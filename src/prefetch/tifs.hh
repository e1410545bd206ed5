/**
 * @file
 * Temporal Instruction Fetch Streaming (TIFS) baseline.
 *
 * Reimplementation of Ferdman et al., MICRO 2008, as characterized in
 * this paper's Sections 2 and 5.5: a temporal streaming prefetcher
 * that records the L1-I *miss* stream (individual block addresses, no
 * compaction) and replays the most recent stream when a miss to a
 * recorded head recurs. Because the recorded stream is the cache-
 * filtered, wrong-path-polluted miss sequence, its coverage saturates
 * at 65-90% (Figure 10 left).
 */

#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "common/config.hh"
#include "pif/index_table.hh"
#include "prefetch/prefetch_queue.hh"
#include "prefetch/prefetcher.hh"

namespace pifetch {

/**
 * TIFS: miss-stream temporal streaming at block granularity.
 */
class TifsPrefetcher final : public Prefetcher
{
  public:
    explicit TifsPrefetcher(const TifsConfig &cfg);

    void onFetchAccess(const FetchInfo &info) override;

    unsigned
    drainRequests(std::vector<Addr> &out, unsigned max) override
    {
        return queue_.drain(out, max);
    }

    /** Miss-history entries recorded. */
    std::uint64_t recorded() const { return tail_; }

  private:
    /** One active replay stream over the miss history. */
    struct Stream
    {
        bool active = false;
        std::uint64_t ptr = 0;     //!< next history position to load
        std::deque<Addr> window;   //!< upcoming blocks
        std::uint64_t lastUse = 0;
    };

    /** Append a miss block to the circular history. */
    void record(Addr block);

    /** True if @p seq is still retained. */
    bool valid(std::uint64_t seq) const;

    /** Read history at @p seq. */
    Addr at(std::uint64_t seq) const;

    /** Refill @p s's window, enqueueing newly loaded blocks. */
    void refill(Stream &s);

    void enqueue(Addr block);

    TifsConfig cfg_;
    std::vector<Addr> ring_;
    std::uint64_t tail_ = 0;
    IndexTable index_;

    std::vector<Stream> streams_;
    std::uint64_t tick_ = 0;

    PrefetchQueue queue_{256};
};

} // namespace pifetch
