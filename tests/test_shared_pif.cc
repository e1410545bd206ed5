/**
 * @file
 * Shared-storage PIF tests.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "pif/shared_pif.hh"
#include "sim/multicore.hh"

namespace pifetch {
namespace {

PifConfig
smallPif()
{
    PifConfig cfg;
    cfg.historyRegions = 1024;
    cfg.indexEntries = 256;
    return cfg;
}

void
retireBlocks(Prefetcher &pf, const std::vector<Addr> &blocks)
{
    for (Addr b : blocks) {
        RetiredInstr r;
        r.pc = blockBase(b);
        pf.onRetire(r, true);
    }
}

FetchInfo
fetchOf(Addr block)
{
    FetchInfo f;
    f.block = block;
    f.pc = blockBase(block);
    f.correctPath = true;
    return f;
}

TEST(SharedPif, CrossCoreStreamReplay)
{
    auto storage = std::make_shared<SharedPifStorage>(smallPif());
    SharedPifPrefetcher core_a(storage);
    SharedPifPrefetcher core_b(storage);

    // Core A records a stream...
    retireBlocks(core_a, {1000, 1001, 2000, 3000});
    retireBlocks(core_a, {9000});

    // ...core B, which has never executed it, replays it on the
    // trigger recurrence. This is exactly what dedicated per-core
    // storage cannot do.
    core_b.onFetchAccess(fetchOf(1000));
    std::vector<Addr> out;
    core_b.drainRequests(out, 64);
    EXPECT_NE(std::find(out.begin(), out.end(), 2000u), out.end());
    EXPECT_NE(std::find(out.begin(), out.end(), 3000u), out.end());
    EXPECT_EQ(core_b.sabAllocations(), 1u);
}

TEST(SharedPif, StorageAggregatesAcrossCores)
{
    auto storage = std::make_shared<SharedPifStorage>(smallPif());
    SharedPifPrefetcher a(storage);
    SharedPifPrefetcher b(storage);
    retireBlocks(a, {100, 5000});
    retireBlocks(b, {900, 7000});
    EXPECT_GE(storage->regionsRecorded(), 2u);
}

TEST(SharedPif, CoverageAccounting)
{
    auto storage = std::make_shared<SharedPifStorage>(smallPif());
    SharedPifPrefetcher pf(storage);
    pf.onFetchAccess(fetchOf(42));
    FetchInfo covered = fetchOf(43);
    covered.hit = true;
    covered.wasPrefetched = true;
    pf.onFetchAccess(covered);
    EXPECT_DOUBLE_EQ(pf.coverage(), 0.5);
}

TEST(SharedPif, ResetKeepsSharedStorage)
{
    auto storage = std::make_shared<SharedPifStorage>(smallPif());
    SharedPifPrefetcher a(storage);
    retireBlocks(a, {100, 5000});
    const std::uint64_t recorded = storage->regionsRecorded();
    a.reset();
    EXPECT_EQ(storage->regionsRecorded(), recorded);
}

TEST(SharedPifStudy, SharedBeatsEqualAggregatePrivate)
{
    // With 4 cores running the same binary, one shared 8K-region pool
    // must outperform four private 2K pools: streams recorded by any
    // core serve all of them.
    const WorkloadRef db2 = ServerWorkload::OltpDb2;
    const Program prog = db2.buildProgram();
    std::vector<FrontRecording> cores;
    for (unsigned core = 0; core < 4; ++core)
        cores.push_back(
            recordSharedPifCore(db2, prog, core, 200'000, 300'000));
    const auto arm = [&](bool shared) {
        return runSharedPifStudy(cores, 8 * 1024, shared);
    };
    const SharedPifStudyResult priv = arm(false);
    const SharedPifStudyResult shared = arm(true);
    EXPECT_GT(priv.missRatio, 0.0);
    EXPECT_GT(shared.coverage, priv.coverage - 0.02);
    EXPECT_LT(shared.missRatio, priv.missRatio * 1.05);
}

} // namespace
} // namespace pifetch
