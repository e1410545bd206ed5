/**
 * @file
 * Shared-storage PIF tests: PifPrefetchers of several cores over one
 * PifHistoryStore, and the shared-vs-private storage study.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "check/invariants.hh"
#include "pif/pif_prefetcher.hh"
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
    auto store = std::make_shared<PifHistoryStore>(smallPif());
    PifPrefetcher core_a(store);
    PifPrefetcher core_b(store);

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
    auto store = std::make_shared<PifHistoryStore>(smallPif());
    PifPrefetcher a(store);
    PifPrefetcher b(store);
    retireBlocks(a, {100, 5000});
    retireBlocks(b, {900, 7000});
    EXPECT_GE(store->regionsRecorded(), 2u);
}

TEST(SharedPif, CoverageAccounting)
{
    PifPrefetcher pf(std::make_shared<PifHistoryStore>(smallPif()));
    pf.onFetchAccess(fetchOf(42));
    FetchInfo covered = fetchOf(43);
    covered.hit = true;
    covered.wasPrefetched = true;
    pf.onFetchAccess(covered);
    EXPECT_DOUBLE_EQ(pf.coverage(), 0.5);
}

TEST(SharedPif, OneCoreOverAStoreMatchesOwnedStore)
{
    // A core alone on a store made apart from it runs exactly like a
    // PifPrefetcher that builds its own: one implementation serves
    // the dedicated and the shared design. The small history wraps,
    // so the bounded and unbounded stores behave differently.
    const WorkloadRef db2 = ServerWorkload::OltpDb2;
    const Program prog = db2.buildProgram();
    struct Run
    {
        TraceRunResult result;
        std::uint64_t regions = 0;
        std::uint64_t sabAllocations = 0;
    };
    const auto run = [&](const SystemConfig &cfg,
                         std::unique_ptr<PifPrefetcher> pf) {
        PifPrefetcher *pif = pf.get();
        TraceEngine engine(cfg, prog, db2.executorConfig(), std::move(pf));
        ObserverConfig obs;
        obs.digests = true;
        engine.attachObservers(obs);
        Run r;
        r.result = engine.run(100'000, 200'000);
        r.regions = pif->regionsRecorded();
        r.sabAllocations = pif->sabAllocations();
        return r;
    };
    for (const bool separate : {false, true}) {
        for (const bool unbounded : {false, true}) {
            SystemConfig cfg;
            cfg.pif = smallPif();
            cfg.pif.separateTrapLevels = separate;
            const Run owned = run(
                cfg, std::make_unique<PifPrefetcher>(cfg.pif, unbounded));
            const Run over = run(
                cfg, std::make_unique<PifPrefetcher>(
                         std::make_shared<PifHistoryStore>(cfg.pif,
                                                           unbounded)));
            const std::string label =
                std::string(separate ? "separate" : "combined") +
                (unbounded ? " unbounded" : " bounded");
            std::vector<CheckFailure> failures;
            checkTraceIdentical(owned.result, over.result,
                                "owned-vs-shared-store", failures);
            for (const CheckFailure &f : failures)
                ADD_FAILURE() << label << ": " << f.detail;
            EXPECT_GT(owned.regions, 0u) << label;
            EXPECT_EQ(owned.regions, over.regions) << label;
            EXPECT_GT(owned.sabAllocations, 0u) << label;
            EXPECT_EQ(owned.sabAllocations, over.sabAllocations) << label;
        }
    }
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
