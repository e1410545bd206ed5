/**
 * @file
 * Baseline prefetcher tests: next-line, TIFS, discontinuity.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "prefetch/discontinuity.hh"
#include "prefetch/next_line.hh"
#include "prefetch/prefetcher.hh"
#include "prefetch/tifs.hh"

namespace pifetch {
namespace {

FetchInfo
fetchOf(Addr block, bool hit = false)
{
    FetchInfo f;
    f.block = block;
    f.pc = blockBase(block);
    f.hit = hit;
    f.correctPath = true;
    return f;
}

TEST(NullPrefetcher, ProducesNothing)
{
    NullPrefetcher p;
    std::vector<Addr> out;
    p.onFetchAccess(fetchOf(1));
    EXPECT_EQ(p.drainRequests(out, 8), 0u);
}

TEST(NextLine, EmitsNextDegreeBlocks)
{
    NextLineConfig cfg;
    cfg.degree = 3;
    NextLinePrefetcher p(cfg);
    p.onFetchAccess(fetchOf(100));
    std::vector<Addr> out;
    p.drainRequests(out, 16);
    ASSERT_EQ(out.size(), 3u);
    EXPECT_EQ(out[0], 101u);
    EXPECT_EQ(out[1], 102u);
    EXPECT_EQ(out[2], 103u);
}

TEST(NextLine, SameBlockDoesNotRetrigger)
{
    NextLinePrefetcher p(NextLineConfig{});
    p.onFetchAccess(fetchOf(100));
    p.onFetchAccess(fetchOf(100));
    std::vector<Addr> out;
    p.drainRequests(out, 64);
    EXPECT_EQ(out.size(), NextLineConfig{}.degree);
}

TEST(NextLine, QueueDedups)
{
    NextLineConfig cfg;
    cfg.degree = 4;
    NextLinePrefetcher p(cfg);
    p.onFetchAccess(fetchOf(100));
    p.onFetchAccess(fetchOf(101));  // overlapping window
    std::vector<Addr> out;
    p.drainRequests(out, 64);
    std::sort(out.begin(), out.end());
    EXPECT_TRUE(std::adjacent_find(out.begin(), out.end()) == out.end());
}

TEST(Tifs, ReplaysRecordedMissStream)
{
    TifsConfig cfg;
    cfg.historyEntries = 256;
    cfg.indexEntries = 64;
    TifsPrefetcher p(cfg);

    // First pass: a distinctive miss stream.
    const std::vector<Addr> misses = {10, 50, 90, 130, 170};
    for (Addr b : misses)
        p.onFetchAccess(fetchOf(b, false));
    std::vector<Addr> out;
    p.drainRequests(out, 64);  // nothing to replay yet
    EXPECT_TRUE(out.empty());

    // Recurrence of the head triggers replay of the rest.
    p.onFetchAccess(fetchOf(10, false));
    out.clear();
    p.drainRequests(out, 64);
    for (std::size_t i = 1; i < misses.size(); ++i) {
        EXPECT_NE(std::find(out.begin(), out.end(), misses[i]),
                  out.end())
            << "block " << misses[i] << " not replayed";
    }
}

TEST(Tifs, HitsDoNotRecord)
{
    TifsConfig cfg;
    TifsPrefetcher p(cfg);
    p.onFetchAccess(fetchOf(10, true));
    p.onFetchAccess(fetchOf(20, true));
    EXPECT_EQ(p.recorded(), 0u);
}

TEST(Tifs, StreamAdvancesOnFetches)
{
    TifsConfig cfg;
    cfg.sabWindowBlocks = 4;
    TifsPrefetcher p(cfg);
    std::vector<Addr> misses;
    for (Addr b = 0; b < 20; ++b)
        misses.push_back(b * 10);
    for (Addr b : misses)
        p.onFetchAccess(fetchOf(b, false));

    p.onFetchAccess(fetchOf(0, false));  // trigger
    std::vector<Addr> out;
    p.drainRequests(out, 256);
    const std::size_t first = out.size();
    EXPECT_GE(first, 4u);

    // Walking the stream (as hits now) loads further blocks.
    p.onFetchAccess(fetchOf(10, true));
    p.onFetchAccess(fetchOf(20, true));
    out.clear();
    p.drainRequests(out, 256);
    EXPECT_FALSE(out.empty());
}

TEST(Tifs, BoundedHistoryForgets)
{
    TifsConfig cfg;
    cfg.historyEntries = 8;
    cfg.indexEntries = 64;
    TifsPrefetcher p(cfg);
    p.onFetchAccess(fetchOf(999, false));
    for (Addr b = 0; b < 20; ++b)
        p.onFetchAccess(fetchOf(b, false));
    // 999's history slot is long overwritten: no replay on recurrence.
    p.onFetchAccess(fetchOf(999, false));
    std::vector<Addr> out;
    p.drainRequests(out, 64);
    EXPECT_TRUE(out.empty());
}

TEST(Tifs, UnboundedRemembersEverything)
{
    TifsConfig cfg;
    cfg.unbounded = true;
    TifsPrefetcher p(cfg);
    p.onFetchAccess(fetchOf(999, false));
    for (Addr b = 0; b < 5000; ++b)
        p.onFetchAccess(fetchOf(b, false));
    p.onFetchAccess(fetchOf(999, false));
    std::vector<Addr> out;
    p.drainRequests(out, 8);
    EXPECT_FALSE(out.empty());
}

TEST(Discontinuity, LearnsNonSequentialTransition)
{
    DiscontinuityConfig cfg;
    cfg.nextLineDegree = 1;
    DiscontinuityPrefetcher p(cfg);

    // Teach 100 -> 500.
    p.onFetchAccess(fetchOf(100));
    p.onFetchAccess(fetchOf(500));
    std::vector<Addr> out;
    p.drainRequests(out, 64);

    // Revisit 100: the discontinuity target must be prefetched.
    p.onFetchAccess(fetchOf(100));
    out.clear();
    p.drainRequests(out, 64);
    EXPECT_NE(std::find(out.begin(), out.end(), 500u), out.end());
    EXPECT_NE(std::find(out.begin(), out.end(), 501u), out.end());
}

TEST(Discontinuity, SequentialTransitionsNotTabled)
{
    DiscontinuityConfig cfg;
    cfg.nextLineDegree = 1;
    DiscontinuityPrefetcher p(cfg);
    p.onFetchAccess(fetchOf(100));
    p.onFetchAccess(fetchOf(101));
    p.onFetchAccess(fetchOf(100));
    std::vector<Addr> out;
    p.drainRequests(out, 64);
    // Only next-line output; no tabled target beyond block 102.
    for (Addr b : out)
        EXPECT_LE(b, 102u);
}

TEST(Discontinuity, NewTargetOverwritesOld)
{
    DiscontinuityConfig cfg;
    cfg.nextLineDegree = 0;
    DiscontinuityPrefetcher p(cfg);
    p.onFetchAccess(fetchOf(100));
    p.onFetchAccess(fetchOf(500));
    p.onFetchAccess(fetchOf(100));
    std::vector<Addr> drop;
    p.drainRequests(drop, 64);
    p.onFetchAccess(fetchOf(700));  // 100 -> 700 now
    p.onFetchAccess(fetchOf(100));
    std::vector<Addr> out;
    p.drainRequests(out, 64);
    EXPECT_NE(std::find(out.begin(), out.end(), 700u), out.end());
    EXPECT_EQ(std::find(out.begin(), out.end(), 500u), out.end());
}

} // namespace
} // namespace pifetch
