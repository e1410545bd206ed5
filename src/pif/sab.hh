/**
 * @file
 * Stream address buffer (Section 4.3, Figure 6).
 *
 * A SAB tracks one active prediction stream: a window of consecutive
 * spatial region records read from the history buffer. On allocation
 * it issues prefetch candidates for every block encoded in the window;
 * as the core's fetches march through the stream, the SAB advances its
 * history pointer, loading further records and issuing their blocks.
 *
 * onAccess() runs for every SAB on every L1-I fetch access — it is
 * the single hottest prefetcher loop in replay — so the window lives
 * in a small flat vector (one contiguous scan, retire is a short
 * memmove) rather than a deque, and the match path is defined inline.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "pif/history_buffer.hh"
#include "pif/region.hh"

namespace pifetch {

/**
 * One stream address buffer. PIF maintains a small pool of these
 * (paper: 4 SABs, 7-region window, LRU replacement).
 */
class StreamAddressBuffer
{
  public:
    /**
     * @param window_regions Consecutive regions tracked (paper: 7).
     * @param blocks_before Region geometry (compactor's N).
     */
    StreamAddressBuffer(unsigned window_regions, unsigned blocks_before);

    /**
     * (Re)allocate this SAB at history position @p seq.
     *
     * Loads the initial window and appends the prefetch candidate
     * blocks of every loaded region to @p out in bit-vector order
     * (preceding blocks, trigger, succeeding blocks).
     *
     * @param hist The history buffer this stream replays.
     */
    void allocate(const HistoryBuffer *hist, std::uint64_t seq,
                  std::vector<Addr> &out);

    /**
     * Monitor an L1-I fetch of @p block.
     *
     * If the block falls within the window, the SAB advances: regions
     * preceding the matched one are retired, subsequent records are
     * read from the history buffer, and their blocks are appended to
     * @p out as new prefetch candidates.
     *
     * @return true if the access matched this stream.
     */
    bool
    onAccess(Addr block, std::vector<Addr> &out)
    {
        if (!active_)
            return false;

        // Fast reject: [lo_, hi_] conservatively bounds every block any
        // window region can cover, so most accesses (which belong to
        // other streams or to no stream) take one compare pair instead
        // of the per-region bit tests. Inside the bounds the full scan
        // decides — the bounds are a superset, never a filter on
        // matches.
        if (block < lo_ || block > hi_)
            return false;

        for (std::size_t i = 0; i < window_.size(); ++i) {
            if (!regionCovers(window_[i], block))
                continue;
            // Matched region i: retire everything before it and slide
            // the window forward, issuing prefetches for newly loaded
            // records. The bounds only move when the window contents
            // change — a match on the head region with a full window
            // (the common steady-state case) recomputes nothing.
            advanced_ += i;
            window_.erase(window_.begin(),
                          window_.begin() +
                              static_cast<std::ptrdiff_t>(i));
            const bool loaded = refill(out);
            if (i > 0 || loaded)
                updateBounds();
            return true;
        }
        return false;
    }

    /** True while the SAB has a live window. */
    bool active() const { return active_; }

    /**
     * Conservative coverage bounds (the onAccess fast reject's
     * [lo_, hi_]). Inactive SABs park them at [invalidAddr, 0], so a
     * pool can min/max over every SAB without checking active().
     */
    Addr boundLo() const { return lo_; }
    Addr boundHi() const { return hi_; }

    /** LRU tick of the last match or allocation. */
    std::uint64_t lastUse() const { return lastUse_; }

    /** Bump the LRU tick (pool maintains the clock). */
    void touch(std::uint64_t tick) { lastUse_ = tick; }

    /** Regions streamed through this SAB since allocation. */
    std::uint64_t advanced() const { return advanced_; }

    /** True if @p block is covered by any region in the window. */
    bool
    windowCovers(Addr block) const
    {
        if (!active_)
            return false;
        for (const SpatialRegion &rec : window_) {
            if (regionCovers(rec, block))
                return true;
        }
        return false;
    }

  private:
    /** Append the blocks of @p rec to @p out (left-to-right order). */
    void emitRegion(const SpatialRegion &rec, std::vector<Addr> &out);

    /**
     * Load records from history until the window is full.
     * @return true if at least one record was loaded (callers refresh
     *         the coverage bounds on any window change).
     */
    bool refill(std::vector<Addr> &out);

    /** Recompute the [lo_, hi_] coverage bounds from the window. */
    void updateBounds();

    /** True if @p rec covers @p block (trigger or set neighbour bit). */
    bool
    regionCovers(const SpatialRegion &rec, Addr block) const
    {
        const std::int64_t off = static_cast<std::int64_t>(block) -
            static_cast<std::int64_t>(rec.triggerBlock());
        if (off == 0)
            return true;
        if (off < -static_cast<std::int64_t>(blocksBefore_) ||
            off > static_cast<std::int64_t>(31 - blocksBefore_)) {
            return false;
        }
        return rec.testOffset(static_cast<int>(off), blocksBefore_);
    }

    unsigned windowRegions_;
    unsigned blocksBefore_;

    bool active_ = false;
    const HistoryBuffer *hist_ = nullptr;
    std::uint64_t ptr_ = 0;  //!< next history sequence to load
    std::vector<SpatialRegion> window_;
    std::uint64_t lastUse_ = 0;
    std::uint64_t advanced_ = 0;

    /**
     * Conservative bounds on the blocks the window can cover
     * (min trigger - blocksBefore_ .. max trigger + 31 - blocksBefore_),
     * kept in sync on every window change. Inactive/empty windows hold
     * the empty interval [invalidAddr, 0] so every access fast-rejects.
     */
    Addr lo_ = invalidAddr;
    Addr hi_ = 0;
};

} // namespace pifetch
