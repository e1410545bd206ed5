/**
 * @file
 * Aggressive next-line instruction prefetcher (Figure 10 baseline).
 *
 * On every demand fetch, enqueues the next `degree` sequential blocks.
 * Captures spatially contiguous accesses but none of the discontinuous
 * control transfers, and over-fetches past the end of each accessed
 * region (Section 6).
 */

#pragma once

#include "common/config.hh"
#include "prefetch/prefetch_queue.hh"
#include "prefetch/prefetcher.hh"

namespace pifetch {

/**
 * Next-N-line prefetcher triggered by every fetch access.
 */
class NextLinePrefetcher final : public Prefetcher
{
  public:
    explicit NextLinePrefetcher(const NextLineConfig &cfg);

    void onFetchAccess(const FetchInfo &info) override;

    unsigned
    drainRequests(std::vector<Addr> &out, unsigned max) override
    {
        return queue_.drain(out, max);
    }

  private:
    unsigned degree_;
    Addr lastBlock_ = invalidAddr;
    PrefetchQueue queue_{64};
};

} // namespace pifetch
