/**
 * @file
 * Baseline prefetcher tests: next-line, TIFS, discontinuity, and the
 * prefetch queue all four queueing prefetchers share.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <set>

#include "common/rng.hh"
#include "prefetch/discontinuity.hh"
#include "prefetch/next_line.hh"
#include "prefetch/prefetch_queue.hh"
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

TEST(PrefetchQueue, MatchesDequeAndSetModel)
{
    // The model is the deque-plus-set the prefetchers kept before the
    // shared ring: FIFO order, dedup against queued blocks, a drop when
    // full, and contains() as set membership.
    for (const std::size_t cap : {std::size_t{64}, std::size_t{256}}) {
        Rng rng(0x9e0e + cap);
        PrefetchQueue q(cap);
        std::deque<Addr> fifo;
        std::set<Addr> queued;
        std::vector<Addr> got;
        unsigned full = 0, dups = 0;
        for (int op = 0; op < 100000; ++op) {
            // Phases of 2,000 operations alternately fill the queue
            // past its capacity and empty it, so the ring wraps many
            // times; a key space of twice the capacity makes duplicate
            // pushes common.
            const bool filling = op / 2000 % 2 == 0;
            const Addr b = rng.below(cap * 2);
            if (rng.chance(filling ? 0.9 : 0.1)) {
                full += fifo.size() == cap;
                dups += fifo.size() < cap && queued.count(b) != 0;
                const bool want = fifo.size() < cap && !queued.count(b);
                if (want) {
                    fifo.push_back(b);
                    queued.insert(b);
                }
                ASSERT_EQ(q.push(b), want) << "cap " << cap << " op " << op;
            } else {
                const unsigned max = static_cast<unsigned>(rng.below(5));
                got.clear();
                const unsigned n = q.drain(got, max);
                ASSERT_EQ(n, std::min<std::size_t>(max, fifo.size()));
                ASSERT_EQ(got.size(), n);
                for (Addr g : got) {
                    ASSERT_EQ(g, fifo.front()) << "cap " << cap;
                    queued.erase(g);
                    fifo.pop_front();
                }
            }
            const Addr probe = rng.below(cap * 2);
            ASSERT_EQ(q.contains(probe), queued.count(probe) != 0);
        }
        EXPECT_GT(full, 1000u) << "cap " << cap;
        EXPECT_GT(dups, 1000u) << "cap " << cap;
    }
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
