/**
 * @file
 * Set-associative cache model operating on block addresses.
 *
 * The model is functional (tag array only): it answers hit/miss, tracks
 * the prefetched bit per line (needed by PIF's index-table insertion
 * rule, Section 4.2), and exposes an explicit fill so engines can
 * model miss latency themselves. Timing lives in the engines, not
 * here, matching the paper's split between trace studies and
 * cycle-accurate runs.
 *
 * The tag store is structure-of-arrays: tags, valid bits and prefetch
 * bits live in parallel vectors so the way scan in probe()/access() —
 * the hottest loop in batched replay — reads one dense tag run per set
 * and resolves the match with a conditional move instead of an early
 * exit branch per way. Replacement is true LRU, kept inline as
 * per-line stamps.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "common/config.hh"
#include "common/types.hh"

namespace pifetch {

/** Replacement policy selector: true LRU is the only policy. */
enum class ReplacementKind { LRU };

/**
 * A single-level, set-associative, block-addressed cache.
 *
 * All addresses passed to this class are block addresses
 * (byte address >> blockShift).
 */
class Cache
{
  public:
    /** Result of a demand access. */
    struct AccessResult
    {
        bool hit = false;
        /**
         * On a hit: whether the line was brought in by a prefetch and
         * this is the first demand touch (PIF tags such instructions as
         * "prefetched"; untagged triggers insert into the index table).
         */
        bool firstDemandOfPrefetch = false;
    };

    /**
     * The two trailing parameters are ignored; they keep the
     * three-argument form that existing callers pass.
     */
    Cache(const CacheConfig &cfg, ReplacementKind = ReplacementKind::LRU,
          std::uint64_t = 0);

    /**
     * Demand access to @p block. Updates recency on hit; on miss the
     * caller is responsible for calling fill() (possibly later, to model
     * latency). Clears the line's prefetched bit on first demand touch.
     */
    AccessResult access(Addr block);

    /** Tag probe with no state change (used by prefetch filtering). */
    bool
    probe(Addr block) const
    {
        const std::uint64_t set = setOf(block);
        return findWay(set, tagOf(block)) != ways_;
    }

    /**
     * Install @p block. Evicts the replacement victim if the set is
     * full. @p prefetched marks the line as prefetch-installed.
     * @return the evicted block address, or invalidAddr if none.
     */
    Addr fill(Addr block, bool prefetched = false);

    /** True if @p block is present and still carries the prefetch bit. */
    bool isPrefetched(Addr block) const;

    std::uint64_t sets() const { return sets_; }

    /** Demand hits observed. */
    std::uint64_t hits() const { return hits_; }
    /** Demand misses observed. */
    std::uint64_t misses() const { return misses_; }
    /** Lines installed by prefetch. */
    std::uint64_t prefetchFills() const { return prefetchFills_; }
    /** Demand hits on prefetched lines (first touch). */
    std::uint64_t usefulPrefetches() const { return usefulPrefetches_; }

  private:
    std::uint64_t setOf(Addr block) const { return block & (sets_ - 1); }
    Addr tagOf(Addr block) const { return block >> setShift_; }

    /**
     * Find the way holding @p tag in @p set, or ways() if absent.
     *
     * Branch-light: scans the full set unconditionally and selects the
     * matching way with a conditional move (tags are unique within a
     * set, so last-writer-wins is exact). The explicit valid test is
     * ANDed into the compare rather than relying on an invalid-tag
     * sentinel so degenerate one-set configurations cannot alias.
     */
    unsigned
    findWay(std::uint64_t set, Addr tag) const
    {
        const std::uint64_t base = set * ways_;
        unsigned way = ways_;
        for (unsigned w = 0; w < ways_; ++w) {
            const bool match =
                (valid_[base + w] != 0) & (tags_[base + w] == tag);
            way = match ? w : way;
        }
        return way;
    }

    /** Record a use of @p way. */
    void
    touchWay(std::uint64_t set, unsigned way)
    {
        stamp_[set * ways_ + way] = ++tick_;
    }

    /**
     * Choose the eviction victim way in @p set: the least recently
     * used, the lowest way index on ties.
     */
    unsigned
    victimWay(std::uint64_t set) const
    {
        const std::uint64_t base = set * ways_;
        unsigned best = 0;
        std::uint64_t best_stamp = stamp_[base];
        for (unsigned w = 1; w < ways_; ++w) {
            if (stamp_[base + w] < best_stamp) {
                best_stamp = stamp_[base + w];
                best = w;
            }
        }
        return best;
    }

    std::uint64_t sets_;
    unsigned ways_;
    unsigned setShift_;

    /** Parallel per-line arrays, indexed set * ways_ + way. */
    std::vector<Addr> tags_;
    std::vector<std::uint8_t> valid_;
    std::vector<std::uint8_t> prefetched_;

    /** LRU state: the tick of each line's last use. */
    std::vector<std::uint64_t> stamp_;
    std::uint64_t tick_ = 0;

    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t prefetchFills_ = 0;
    std::uint64_t usefulPrefetches_ = 0;
};

} // namespace pifetch
