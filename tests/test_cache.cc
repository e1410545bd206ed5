/**
 * @file
 * Set-associative cache model tests.
 */

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "cache/cache.hh"
#include "common/rng.hh"

namespace pifetch {
namespace {

CacheConfig
tinyCache(std::uint64_t size = 4 * 64, unsigned assoc = 2)
{
    CacheConfig c;
    c.name = "test";
    c.sizeBytes = size;
    c.assoc = assoc;
    c.blockBytes = 64;
    return c;
}

TEST(Cache, ColdAccessMisses)
{
    Cache c(tinyCache());
    EXPECT_FALSE(c.access(1).hit);
    EXPECT_EQ(c.misses(), 1u);
    EXPECT_EQ(c.hits(), 0u);
}

TEST(Cache, FillThenHit)
{
    Cache c(tinyCache());
    c.fill(1);
    EXPECT_TRUE(c.access(1).hit);
    EXPECT_EQ(c.hits(), 1u);
}

TEST(Cache, ProbeDoesNotDisturbState)
{
    Cache c(tinyCache());
    c.fill(1);
    EXPECT_TRUE(c.probe(1));
    EXPECT_FALSE(c.probe(2));
    EXPECT_EQ(c.hits(), 0u);
    EXPECT_EQ(c.misses(), 0u);
}

TEST(Cache, LruEvictionOrder)
{
    // 2 sets x 2 ways; blocks 0,2,4 map to set 0.
    Cache c(tinyCache());
    c.fill(0);
    c.fill(2);
    c.access(0);           // 0 is now MRU; 2 is LRU
    const Addr victim = c.fill(4);
    EXPECT_EQ(victim, 2u);
    EXPECT_TRUE(c.probe(0));
    EXPECT_FALSE(c.probe(2));
    EXPECT_TRUE(c.probe(4));
}

TEST(Cache, FillReturnsInvalidWhenNoVictim)
{
    Cache c(tinyCache());
    EXPECT_EQ(c.fill(0), invalidAddr);
    EXPECT_EQ(c.fill(2), invalidAddr);  // second way, still free
}

TEST(Cache, PrefetchedBitLifecycle)
{
    Cache c(tinyCache());
    c.fill(1, true);
    EXPECT_TRUE(c.isPrefetched(1));

    const auto first = c.access(1);
    EXPECT_TRUE(first.hit);
    EXPECT_TRUE(first.firstDemandOfPrefetch);
    EXPECT_FALSE(c.isPrefetched(1));

    const auto second = c.access(1);
    EXPECT_TRUE(second.hit);
    EXPECT_FALSE(second.firstDemandOfPrefetch);
    EXPECT_EQ(c.usefulPrefetches(), 1u);
}

TEST(Cache, RefillDoesNotDowngradeDemandLine)
{
    Cache c(tinyCache());
    c.fill(1, false);
    c.fill(1, true);  // prefetch racing an existing demand line
    EXPECT_FALSE(c.isPrefetched(1));
}

TEST(CacheDeath, RejectsNonPowerOfTwoSets)
{
    CacheConfig bad = tinyCache(3 * 64, 1);
    EXPECT_EXIT(Cache c(bad), ::testing::ExitedWithCode(1),
                "power");
}

TEST(Cache, DistinctSetsDoNotConflict)
{
    // Blocks 0 and 1 map to different sets in a 2-set cache.
    Cache c(tinyCache());
    c.fill(0);
    c.fill(2);
    c.fill(1);
    c.fill(3);
    EXPECT_TRUE(c.probe(0));
    EXPECT_TRUE(c.probe(1));
    EXPECT_TRUE(c.probe(2));
    EXPECT_TRUE(c.probe(3));
}

/**
 * Property sweep over geometries: filling exactly `ways` distinct
 * conflicting blocks never evicts; one more always evicts.
 */
class CacheGeometry
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>>
{
};

TEST_P(CacheGeometry, AssociativityIsRespected)
{
    const auto [sets_log2, ways] = GetParam();
    const std::uint64_t sets = 1ull << sets_log2;
    Cache c(tinyCache(sets * ways * 64, ways));
    ASSERT_EQ(c.sets(), sets);

    // Fill `ways` blocks all mapping to set 0.
    for (unsigned w = 0; w < ways; ++w)
        EXPECT_EQ(c.fill(w * sets), invalidAddr);
    for (unsigned w = 0; w < ways; ++w)
        EXPECT_TRUE(c.probe(w * sets));

    // One more conflicting fill must evict exactly one resident.
    const Addr victim = c.fill(ways * sets);
    EXPECT_NE(victim, invalidAddr);
    unsigned present = 0;
    for (unsigned w = 0; w <= ways; ++w)
        present += c.probe(w * sets) ? 1 : 0;
    EXPECT_EQ(present, ways);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometry,
    ::testing::Combine(::testing::Values(0u, 1u, 3u, 6u),
                       ::testing::Values(1u, 2u, 4u, 16u)));

/**
 * Reference model of the cache: one recency list per set, most
 * recently used first, each line with its prefetched bit.
 */
class ReferenceCache
{
  public:
    struct Line
    {
        Addr block;
        bool prefetched;
    };

    ReferenceCache(std::uint64_t sets, unsigned ways)
        : ways_(ways), sets_(sets)
    {
    }

    Cache::AccessResult
    access(Addr block)
    {
        Cache::AccessResult res;
        std::vector<Line> &set = setOf(block);
        const auto it = findIn(set, block);
        if (it == set.end()) {
            ++misses;
            return res;
        }
        res.hit = true;
        res.firstDemandOfPrefetch = it->prefetched;
        useful += it->prefetched ? 1 : 0;
        ++hits;
        set.erase(it);
        set.insert(set.begin(), Line{block, false});
        return res;
    }

    Addr
    fill(Addr block, bool prefetched)
    {
        std::vector<Line> &set = setOf(block);
        const auto it = findIn(set, block);
        Line line{block, prefetched};
        Addr victim = invalidAddr;
        if (it != set.end()) {
            line.prefetched = it->prefetched && prefetched;
            set.erase(it);
        } else {
            prefetchFills += prefetched ? 1 : 0;
            if (set.size() == ways_) {
                victim = set.back().block;
                set.pop_back();
            }
        }
        set.insert(set.begin(), line);
        return victim;
    }

    /** The line holding @p block, or nullptr. */
    const Line *
    find(Addr block)
    {
        std::vector<Line> &set = setOf(block);
        const auto it = findIn(set, block);
        return it == set.end() ? nullptr : &*it;
    }

    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t prefetchFills = 0;
    std::uint64_t useful = 0;

  private:
    std::vector<Line> &setOf(Addr block)
    {
        return sets_[block % sets_.size()];
    }

    static std::vector<Line>::iterator
    findIn(std::vector<Line> &set, Addr block)
    {
        auto it = set.begin();
        while (it != set.end() && it->block != block)
            ++it;
        return it;
    }

    unsigned ways_;
    std::vector<std::vector<Line>> sets_;
};

/**
 * Seeded random access/fill/probe operations against the reference
 * model; every result and the probed block's state must agree after
 * each operation.
 */
class CacheReference
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>>
{
};

TEST_P(CacheReference, MatchesPerSetRecencyLists)
{
    const auto [sets, ways] = GetParam();
    Cache c(tinyCache(std::uint64_t{sets} * ways * 64, ways));
    ASSERT_EQ(c.sets(), sets);
    ReferenceCache ref(sets, ways);
    Rng rng(std::uint64_t{sets} * 131 + ways);

    // About twice the capacity, over four tag ranges far apart, so
    // sets overflow and victims carry high tag bits.
    const std::uint64_t low = std::uint64_t{sets} * ways / 2 + 1;
    for (int op = 0; op < 20'000; ++op) {
        const Addr block = (rng.below(4) << 40) | rng.below(low);
        const std::uint64_t kind = rng.below(100);
        if (kind < 45) {
            const Cache::AccessResult got = c.access(block);
            const Cache::AccessResult want = ref.access(block);
            ASSERT_EQ(got.hit, want.hit) << "op " << op;
            ASSERT_EQ(got.firstDemandOfPrefetch,
                      want.firstDemandOfPrefetch) << "op " << op;
        } else if (kind < 85) {
            const bool prefetched = rng.chance(0.5);
            ASSERT_EQ(c.fill(block, prefetched),
                      ref.fill(block, prefetched)) << "op " << op;
        }
        // The remaining operations are probes alone.
        const ReferenceCache::Line *line = ref.find(block);
        ASSERT_EQ(c.probe(block), line != nullptr) << "op " << op;
        ASSERT_EQ(c.isPrefetched(block), line && line->prefetched)
            << "op " << op;
    }
    EXPECT_EQ(c.hits(), ref.hits);
    EXPECT_EQ(c.misses(), ref.misses);
    EXPECT_EQ(c.prefetchFills(), ref.prefetchFills);
    EXPECT_EQ(c.usefulPrefetches(), ref.useful);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheReference,
    ::testing::Values(std::make_tuple(1u, 1u), std::make_tuple(1u, 8u),
                      std::make_tuple(4u, 2u), std::make_tuple(16u, 4u),
                      std::make_tuple(64u, 8u),
                      std::make_tuple(512u, 2u)));

} // namespace
} // namespace pifetch
