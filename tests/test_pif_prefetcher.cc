/**
 * @file
 * End-to-end PIF prefetcher tests.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "pif/pif_prefetcher.hh"

namespace pifetch {
namespace {

PifConfig
smallPif()
{
    PifConfig cfg;
    cfg.historyRegions = 1024;
    cfg.indexEntries = 256;
    cfg.indexAssoc = 4;
    return cfg;
}

/** Retire every instruction of the blocks in @p blocks, in order. */
void
retireBlocks(PifPrefetcher &pif, const std::vector<Addr> &blocks,
             TrapLevel tl = 0, bool tagged = true)
{
    for (Addr b : blocks) {
        RetiredInstr r;
        r.pc = blockBase(b);
        r.trapLevel = tl;
        pif.onRetire(r, tagged);
    }
}

FetchInfo
fetchOf(Addr block, bool hit = false, bool was_prefetched = false,
        TrapLevel tl = 0)
{
    FetchInfo f;
    f.block = block;
    f.pc = blockBase(block);
    f.hit = hit;
    f.wasPrefetched = was_prefetched;
    f.correctPath = true;
    f.trapLevel = tl;
    return f;
}

/**
 * A distinctive block sequence with spatial structure (functions at
 * 1000, 2000, 3000) and a distant jump separating occurrences.
 */
std::vector<Addr>
sampleSequence()
{
    return {1000, 1001, 1002, 2000, 2001, 3000, 3001, 3002, 3003};
}

TEST(PifPrefetcher, RecordsRegionsFromRetireStream)
{
    PifPrefetcher pif(smallPif());
    retireBlocks(pif, sampleSequence());
    retireBlocks(pif, {5000});  // close the last region
    EXPECT_GE(pif.regionsRecorded(), 3u);
}

TEST(PifPrefetcher, SecondOccurrenceTriggersPrefetchOfRecordedStream)
{
    PifPrefetcher pif(smallPif());
    const auto seq = sampleSequence();

    // First pass records; interpose a long excursion to flush the
    // spatial compactor.
    retireBlocks(pif, seq);
    retireBlocks(pif, {7000, 8000, 9000});

    // The recurrence: a not-prefetched fetch of the stream head.
    pif.onFetchAccess(fetchOf(1000));

    std::vector<Addr> out;
    pif.drainRequests(out, 64);
    // Every block of the recorded sequence should be prefetched.
    for (Addr b : seq) {
        EXPECT_NE(std::find(out.begin(), out.end(), b), out.end())
            << "block " << b << " was not prefetched";
    }
}

TEST(PifPrefetcher, PrefetchedFetchDoesNotTrigger)
{
    PifPrefetcher pif(smallPif());
    retireBlocks(pif, sampleSequence());
    retireBlocks(pif, {7000});

    // Delivered from a prefetched line: not a stream trigger.
    pif.onFetchAccess(fetchOf(1000, true, true));
    std::vector<Addr> out;
    pif.drainRequests(out, 64);
    EXPECT_TRUE(out.empty());
}

TEST(PifPrefetcher, UntaggedTriggerDoesNotIndex)
{
    PifPrefetcher pif(smallPif());
    // Record the stream with untagged triggers (as if prefetched).
    retireBlocks(pif, sampleSequence(), 0, false);
    retireBlocks(pif, {7000}, 0, false);

    pif.onFetchAccess(fetchOf(1000));
    std::vector<Addr> out;
    pif.drainRequests(out, 64);
    EXPECT_TRUE(out.empty()) << "untagged triggers must not be indexed";
}

TEST(PifPrefetcher, TrapLevelsRecordSeparately)
{
    PifConfig cfg = smallPif();
    cfg.separateTrapLevels = true;
    PifPrefetcher pif(cfg);

    retireBlocks(pif, {1000, 1001}, 0);
    retireBlocks(pif, {6000, 6001}, 1);  // handler interleaves
    retireBlocks(pif, {1002, 2000}, 0);
    retireBlocks(pif, {9000}, 0);
    retireBlocks(pif, {9500}, 1);

    // TL0 history must contain a region at 1000 whose bits include
    // +1 and +2 despite the interleaved handler blocks.
    const HistoryBuffer &h0 = pif.history(0);
    bool found = false;
    for (std::uint64_t s = 0; s < h0.tail(); ++s) {
        if (!h0.valid(s))
            continue;
        const SpatialRegion &r = h0.at(s);
        if (r.triggerBlock() == 1000 && r.testOffset(1, cfg.blocksBefore)
            && r.testOffset(2, cfg.blocksBefore)) {
            found = true;
        }
        EXPECT_EQ(r.trapLevel, 0);
    }
    EXPECT_TRUE(found)
        << "handler interleaving fragmented the TL0 region";

    // TL1 history holds only handler regions.
    const HistoryBuffer &h1 = pif.history(1);
    EXPECT_GE(h1.tail(), 1u);
    for (std::uint64_t s = 0; s < h1.tail(); ++s) {
        if (h1.valid(s)) {
            EXPECT_EQ(h1.at(s).trapLevel, 1);
        }
    }
}

TEST(PifPrefetcher, CombinedModeUsesOneChain)
{
    PifConfig cfg = smallPif();
    cfg.separateTrapLevels = false;
    PifPrefetcher pif(cfg);
    retireBlocks(pif, {1000}, 0);
    retireBlocks(pif, {6000}, 1);
    retireBlocks(pif, {2000}, 0);
    // Both trap levels land in chain 0.
    EXPECT_EQ(&pif.history(0), &pif.history(1));
}

TEST(PifPrefetcher, CoverageCountsCorrectPathAccesses)
{
    PifPrefetcher pif(smallPif());
    pif.onFetchAccess(fetchOf(100));          // uncovered
    pif.onFetchAccess(fetchOf(101, true, true));  // covered (prefetched)
    EXPECT_EQ(pif.totalAccesses(0), 2u);
    EXPECT_EQ(pif.coveredAccesses(0), 1u);
    EXPECT_DOUBLE_EQ(pif.coverage(0), 0.5);
}

TEST(PifPrefetcher, WrongPathAccessesNotCounted)
{
    PifPrefetcher pif(smallPif());
    FetchInfo f = fetchOf(100);
    f.correctPath = false;
    pif.onFetchAccess(f);
    EXPECT_EQ(pif.totalAccesses(0), 0u);
}

TEST(PifPrefetcher, DrainHonoursMaxAndDedups)
{
    PifPrefetcher pif(smallPif());
    retireBlocks(pif, sampleSequence());
    retireBlocks(pif, {7000});
    pif.onFetchAccess(fetchOf(1000));

    std::vector<Addr> first;
    pif.drainRequests(first, 2);
    EXPECT_EQ(first.size(), 2u);
    std::vector<Addr> rest;
    pif.drainRequests(rest, 64);
    for (Addr b : first) {
        EXPECT_EQ(std::count(rest.begin(), rest.end(), b), 0)
            << "block " << b << " drained twice";
    }
}

TEST(PifPrefetcher, LoopIterationsCompactAway)
{
    PifPrefetcher pif(smallPif());
    // 50 iterations of a loop spanning blocks 1000-1001.
    for (int i = 0; i < 50; ++i)
        retireBlocks(pif, {1000, 1001});
    retireBlocks(pif, {5000});
    // One region record for the loop (plus at most the closer).
    EXPECT_LE(pif.regionsRecorded(), 2u);
}

TEST(PifPrefetcher, UnboundedStorageNeverForgets)
{
    PifConfig cfg = smallPif();
    PifPrefetcher pif(cfg, true);
    // Record far more regions than the bounded capacity would hold.
    for (Addr b = 0; b < 10000; b += 10)
        retireBlocks(pif, {b});
    retireBlocks(pif, {100000});
    EXPECT_GE(pif.regionsRecorded(), 900u);
    // The very first stream is still replayable.
    pif.onFetchAccess(fetchOf(0));
    std::vector<Addr> out;
    pif.drainRequests(out, 8);
    EXPECT_FALSE(out.empty());
}

TEST(PifPrefetcher, SabAdvancesAlongStream)
{
    PifPrefetcher pif(smallPif());
    // Record a long stream of single-block regions.
    std::vector<Addr> stream;
    for (Addr b = 0; b < 40; ++b)
        stream.push_back(1000 + b * 100);
    retireBlocks(pif, stream);
    retireBlocks(pif, {90000});

    pif.onFetchAccess(fetchOf(1000));
    std::vector<Addr> out;
    pif.drainRequests(out, 256);
    const std::size_t initial = out.size();
    EXPECT_GE(initial, 7u);  // window worth of regions

    // March along the stream: more of it gets prefetched.
    pif.onFetchAccess(fetchOf(1300, true, true));
    pif.onFetchAccess(fetchOf(1600, true, true));
    out.clear();
    pif.drainRequests(out, 256);
    EXPECT_FALSE(out.empty());
}

} // namespace
} // namespace pifetch
