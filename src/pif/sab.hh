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
 * the single hottest prefetcher loop in replay — so each loaded region
 * is kept as a window entry: its base block and a mask of the blocks
 * it covers, both computed once when the region is loaded. A counting
 * filter over the covered blocks answers most accesses with one load,
 * and the rest take one branch-free pass over the entries. The filter
 * and the masks are simulator bookkeeping, not modelled hardware: the
 * SAB's storage (computePifStorage) is the window of records.
 */

#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/bitops.hh"
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
     * preceding the first one covering it are retired, subsequent
     * records are read from the history buffer, and their blocks are
     * appended to @p out as new prefetch candidates.
     *
     * @return true if the access matched this stream.
     */
    bool
    onAccess(Addr block, std::vector<Addr> &out)
    {
        // A zero counter proves no entry covers the block (an inactive
        // SAB's counters are all zero).
        if (filter_[slot(block)] == 0)
            return false;
        const std::size_t i = firstMatch(block);
        if (i == window_.size())
            return false;
        advanced_ += i;
        for (std::size_t k = 0; k < i; ++k)
            uncount(window_[k]);
        window_.erase(window_.begin(),
                      window_.begin() + static_cast<std::ptrdiff_t>(i));
        refill(out);
        return true;
    }

    /** True while the SAB has a live window. */
    bool active() const { return !window_.empty(); }

    /** LRU tick of the last match or allocation. */
    std::uint64_t lastUse() const { return lastUse_; }

    /** Bump the LRU tick (pool maintains the clock). */
    void touch(std::uint64_t tick) { lastUse_ = tick; }

    /** Regions streamed through this SAB since allocation. */
    std::uint64_t advanced() const { return advanced_; }

    /**
     * Blocks the filter counts: the window entries' cover-mask bits,
     * one per (entry, block) pair, while its bookkeeping is exact.
     */
    std::uint32_t
    filterCount() const
    {
        std::uint32_t n = 0;
        for (std::uint16_t c : filter_)
            n += c;
        return n;
    }

    /** True if @p block is covered by any region in the window. */
    bool
    windowCovers(Addr block) const
    {
        return filter_[slot(block)] != 0 &&
               firstMatch(block) < window_.size();
    }

  private:
    /**
     * One loaded region: bit j of @ref mask covers block base + j, so
     * the trigger is bit blocksBefore and the mask's ascending bits are
     * the bit vector's left-to-right order.
     */
    struct Entry
    {
        Addr base;
        std::uint32_t mask;
    };

    /** Filter counters; a power of two, indexed by the low block bits
     * so the blocks of one region never share a counter. */
    static constexpr std::size_t filterSlots = 512;

    static std::size_t slot(Addr block) { return block & (filterSlots - 1); }

    /**
     * Index of the first entry covering @p block, or the window size.
     * Each 64-entry chunk is one pass without branches that leaves bit
     * k - at set when entry k covers the block (walking down, so each
     * step shifts by one instead of by k).
     */
    std::size_t
    firstMatch(Addr block) const
    {
        const std::size_t n = window_.size();
        for (std::size_t at = 0; at < n; at += 64) {
            const std::size_t end = n - at < 64 ? n : at + 64;
            std::uint64_t hits = 0;
            for (std::size_t k = end; k-- > at;) {
                const Addr d = block - window_[k].base;
                const std::uint64_t covers =
                    (d < 32) & (window_[k].mask >> (d & 31));
                hits = hits << 1 | (covers & 1);
            }
            if (hits != 0)
                return at + static_cast<std::size_t>(bits::countrZero(hits));
        }
        return n;
    }

    /** Drop @p e's covered blocks from the filter (region retires). */
    void
    uncount(const Entry &e)
    {
        for (std::uint32_t m = e.mask; m != 0; m &= m - 1)
            --filter_[slot(e.base + static_cast<Addr>(bits::countrZero(m)))];
    }

    /** Load records from history until the window is full. */
    void refill(std::vector<Addr> &out);

    unsigned windowRegions_;
    unsigned blocksBefore_;

    const HistoryBuffer *hist_ = nullptr;
    std::uint64_t ptr_ = 0;  //!< next history sequence to load
    std::vector<Entry> window_;
    std::uint64_t lastUse_ = 0;
    std::uint64_t advanced_ = 0;

    /**
     * Per-slot count of window blocks hashing there, over every entry.
     * A window holds at most 1,024 regions (validateSystemConfig) of at
     * most 32 blocks each, so a counter never exceeds 32,768.
     */
    std::array<std::uint16_t, filterSlots> filter_{};
};

} // namespace pifetch
