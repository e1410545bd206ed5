/**
 * @file
 * Set-associative cache implementation.
 */

#include "cache/cache.hh"

#include "common/bitops.hh"

namespace pifetch {

Cache::Cache(const CacheConfig &cfg, ReplacementKind, std::uint64_t)
    : sets_(cfg.sets()), ways_(cfg.assoc)
{
    if (sets_ == 0 || (sets_ & (sets_ - 1)) != 0)
        fatalError("cache '" + cfg.name + "': set count must be a power "
                   "of two (size/assoc/block mismatch)");
    if (ways_ == 0)
        fatalError("cache '" + cfg.name + "': associativity must be >= 1");
    setShift_ = static_cast<unsigned>(bits::countrZero(sets_));
    tags_.assign(sets_ * ways_, invalidAddr);
    valid_.assign(sets_ * ways_, 0);
    prefetched_.assign(sets_ * ways_, 0);
    stamp_.assign(sets_ * ways_, 0);
}

Cache::AccessResult
Cache::access(Addr block)
{
    const std::uint64_t set = setOf(block);
    const Addr tag = tagOf(block);
    const unsigned way = findWay(set, tag);

    AccessResult res;
    if (way == ways_) {
        ++misses_;
        return res;
    }

    const std::uint64_t idx = set * ways_ + way;
    res.hit = true;
    if (prefetched_[idx]) {
        res.firstDemandOfPrefetch = true;
        prefetched_[idx] = 0;
        ++usefulPrefetches_;
    }
    touchWay(set, way);
    ++hits_;
    return res;
}

Addr
Cache::fill(Addr block, bool prefetched)
{
    const std::uint64_t set = setOf(block);
    const Addr tag = tagOf(block);
    unsigned way = findWay(set, tag);
    const std::uint64_t base = set * ways_;

    if (way != ways_) {
        // Already present (e.g. demand fill racing a prefetch): just
        // refresh recency; do not downgrade an existing demand line to
        // prefetched state.
        prefetched_[base + way] =
            prefetched_[base + way] && prefetched ? 1 : 0;
        touchWay(set, way);
        return invalidAddr;
    }

    // Prefer an invalid way before evicting the LRU line.
    way = ways_;
    for (unsigned w = 0; w < ways_; ++w) {
        if (!valid_[base + w]) {
            way = w;
            break;
        }
    }

    Addr victim = invalidAddr;
    if (way == ways_) {
        way = victimWay(set);
        victim = (tags_[base + way] << setShift_) | set;
    }

    tags_[base + way] = tag;
    valid_[base + way] = 1;
    prefetched_[base + way] = prefetched ? 1 : 0;
    if (prefetched)
        ++prefetchFills_;
    touchWay(set, way);
    return victim;
}

bool
Cache::isPrefetched(Addr block) const
{
    const std::uint64_t set = setOf(block);
    const unsigned way = findWay(set, tagOf(block));
    if (way == ways_)
        return false;
    return prefetched_[set * ways_ + way] != 0;
}

} // namespace pifetch
