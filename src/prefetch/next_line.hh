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

#include <deque>

#include "common/config.hh"
#include "common/flat_hash.hh"
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
    unsigned drainRequests(std::vector<Addr> &out, unsigned max) override;

  private:
    unsigned degree_;
    Addr lastBlock_ = invalidAddr;
    std::deque<Addr> queue_;
    AddrSet queued_;
};

} // namespace pifetch
