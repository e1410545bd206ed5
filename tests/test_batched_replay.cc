/**
 * @file
 * Batched-vs-scalar differential suite for the SoA replay pipeline.
 *
 * The batched replay loop must be a pure reorganization: at any batch
 * length the engines retire the same instruction stream, observe the
 * same fetch accesses, and record byte-identical event-store rows and
 * windowed counter samples. This suite pins that equivalence on the
 * six server presets and two workload-zoo specs by comparing each
 * engine at the default batch length against the scalar-order (length
 * 1) reference, and checks that TraceEngine::replayBatch, fed its
 * executor's batches, ends where the engine's own loop does.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "check/invariants.hh"
#include "check/scenario.hh"
#include "query/event_store.hh"
#include "sim/cycle_engine.hh"
#include "sim/trace_engine.hh"
#include "sim/workloads.hh"
#include "trace/workload_spec.hh"

namespace pifetch {
namespace {

constexpr InstCount kWarmup = 20'000;
constexpr InstCount kMeasure = 60'000;

/**
 * Event-store shape for same-engine comparisons: fine counter stride
 * and every slice kind on — unlike the cross-engine oracles, batching
 * must reproduce even the timing-sensitive prefetch rows exactly.
 */
EventStoreOptions
fullRecordingOptions()
{
    EventStoreOptions opts;
    opts.counterWindow = 1'024;
    opts.recordPrefetches = true;
    return opts;
}

/** Every slice and counter column must match byte for byte. */
void
expectStoresIdentical(const EventStore &a, const EventStore &b,
                      const std::string &label)
{
    EXPECT_GT(a.sliceCount(), 0u) << label;
    EXPECT_GT(a.counterCount(), 0u) << label;
    EXPECT_EQ(a.sliceInstr(), b.sliceInstr()) << label;
    EXPECT_EQ(a.slicePc(), b.slicePc()) << label;
    EXPECT_EQ(a.sliceBlock(), b.sliceBlock()) << label;
    EXPECT_EQ(a.sliceKind(), b.sliceKind()) << label;
    EXPECT_EQ(a.sliceCore(), b.sliceCore()) << label;
    EXPECT_EQ(a.sliceTrap(), b.sliceTrap()) << label;
    EXPECT_EQ(a.sliceHit(), b.sliceHit()) << label;
    EXPECT_EQ(a.slicePrefetched(), b.slicePrefetched()) << label;
    EXPECT_EQ(a.sliceCorrect(), b.sliceCorrect()) << label;
    EXPECT_EQ(a.counterInstr(), b.counterInstr()) << label;
    EXPECT_EQ(a.counterCore(), b.counterCore()) << label;
    EXPECT_EQ(a.counterId(), b.counterId()) << label;
    EXPECT_EQ(a.counterValue(), b.counterValue()) << label;
}

/** One observed functional run at the given batch length. */
TraceRunResult
traceRunAt(const Program &prog, const ExecutorConfig &exec,
           PrefetcherKind kind, std::uint32_t batch_len,
           EventStore &events)
{
    const SystemConfig cfg{};
    TraceEngine engine(cfg, prog, exec, makePrefetcher(kind, cfg));
    engine.setBatchLen(batch_len);
    ObserverConfig obs;
    obs.digests = true;
    obs.events = &events;
    engine.attachObservers(obs);
    return engine.run(kWarmup, kMeasure);
}

/** One observed timed run at the given batch length. */
CycleRunResult
cycleRunAt(const Program &prog, const ExecutorConfig &exec,
           PrefetcherKind kind, std::uint32_t batch_len,
           EventStore &events)
{
    const SystemConfig cfg{};
    CycleEngine engine(cfg, prog, exec, kind);
    engine.setBatchLen(batch_len);
    ObserverConfig obs;
    obs.digests = true;
    obs.events = &events;
    engine.attachObservers(obs);
    return engine.run(kWarmup, kMeasure);
}

/** Batched-vs-scalar equivalence of both engines on one workload. */
void
expectBatchLengthInvariant(const Program &prog,
                           const ExecutorConfig &exec,
                           const std::string &label)
{
    for (const PrefetcherKind kind :
         {PrefetcherKind::None, PrefetcherKind::Pif}) {
        const std::string at =
            label + "/" + prefetcherKey(kind);

        EventStore batched_events(fullRecordingOptions());
        EventStore scalar_events(fullRecordingOptions());
        const TraceRunResult batched = traceRunAt(
            prog, exec, kind, recordBatchLen, batched_events);
        const TraceRunResult scalar =
            traceRunAt(prog, exec, kind, 1, scalar_events);

        EXPECT_NE(batched.retireDigest, 0u) << at;
        std::vector<CheckFailure> failures;
        checkTraceIdentical(batched, scalar, "batch-length-invariance",
                            failures);
        for (const CheckFailure &f : failures)
            ADD_FAILURE() << at << ": " << f.invariant << ": "
                          << f.detail;
        expectStoresIdentical(batched_events, scalar_events, at);

        EventStore cyc_batched_events(fullRecordingOptions());
        EventStore cyc_scalar_events(fullRecordingOptions());
        const CycleRunResult cb = cycleRunAt(
            prog, exec, kind, recordBatchLen, cyc_batched_events);
        const CycleRunResult cs =
            cycleRunAt(prog, exec, kind, 1, cyc_scalar_events);

        failures.clear();
        checkCountersIdentical(cb, cs, "batch-length-invariance", true,
                               failures);
        for (const CheckFailure &f : failures)
            ADD_FAILURE() << at << " (cycle): " << f.invariant << ": "
                          << f.detail;
        EXPECT_EQ(cb.cycles, cs.cycles) << at;
        EXPECT_EQ(cb.userInstrs, cs.userInstrs) << at;
        EXPECT_EQ(cb.fetchStallCycles, cs.fetchStallCycles) << at;
        EXPECT_EQ(cb.branchPenaltyCycles, cs.branchPenaltyCycles) << at;
        EXPECT_EQ(cb.demandMisses, cs.demandMisses) << at;
        EXPECT_EQ(cb.latePrefetches, cs.latePrefetches) << at;
        EXPECT_EQ(cb.prefetchFills, cs.prefetchFills) << at;
        EXPECT_EQ(cb.l2Hits, cs.l2Hits) << at;
        EXPECT_EQ(cb.l2Misses, cs.l2Misses) << at;
        EXPECT_DOUBLE_EQ(cb.uipc, cs.uipc) << at;
        expectStoresIdentical(cyc_batched_events, cyc_scalar_events,
                              at + " (cycle)");
    }
}

class PresetBatched : public ::testing::TestWithParam<ServerWorkload>
{
};

TEST_P(PresetBatched, BatchedMatchesScalarOrder)
{
    const ServerWorkload w = GetParam();
    const Program prog = buildWorkloadProgram(w);
    expectBatchLengthInvariant(prog, executorConfigFor(w),
                               workloadKey(w));
}

TEST(ZooBatched, BatchedMatchesScalarOrderOnZooSpecs)
{
    const std::vector<WorkloadZooEntry> zoo = workloadZoo();
    ASSERT_GE(zoo.size(), 2u);
    for (std::size_t i = 0; i < 2; ++i) {
        std::string err;
        auto spec = loadWorkloadSpecFile(zoo[i].path, &err);
        ASSERT_TRUE(spec.has_value()) << zoo[i].key << ": " << err;
        const WorkloadRef ref = workloadRefFromSpec(std::move(*spec));
        expectBatchLengthInvariant(ref.buildProgram(),
                                   ref.executorConfig(), zoo[i].key);
    }
}

/**
 * Unobserved runs at two batch lengths against an observed run, for
 * every prefetcher on one workload under @p cfg.
 */
void
expectObservedMatchesUnobserved(const Program &prog,
                                const ExecutorConfig &exec,
                                const SystemConfig &cfg,
                                const std::string &label)
{
    for (const PrefetcherKind kind :
         {PrefetcherKind::None, PrefetcherKind::NextLine,
          PrefetcherKind::Tifs, PrefetcherKind::Discontinuity,
          PrefetcherKind::Pif, PrefetcherKind::Perfect}) {
        const std::string at = label + "/" + prefetcherKey(kind);
        const auto runAt = [&](std::uint32_t batch_len, bool observe) {
            TraceEngine engine(cfg, prog, exec, makePrefetcher(kind, cfg));
            engine.setBatchLen(batch_len);
            if (observe) {
                ObserverConfig obs;
                obs.digests = true;
                engine.attachObservers(obs);
            }
            return engine.run(kWarmup, kMeasure);
        };

        const TraceRunResult bulk = runAt(recordBatchLen, false);
        const TraceRunResult bulk1 = runAt(1, false);
        TraceRunResult observed = runAt(recordBatchLen, true);

        std::vector<CheckFailure> failures;
        checkTraceIdentical(bulk, bulk1, "unobserved-batch-invariance",
                            failures);
        // Digest fields are zero on both unobserved runs; mask them off
        // the observed reference so only the simulation counters
        // compare.
        observed.retireDigest = bulk.retireDigest;
        observed.accessDigest = bulk.accessDigest;
        checkTraceIdentical(bulk, observed, "unobserved-vs-observed",
                            failures);
        for (const CheckFailure &f : failures)
            ADD_FAILURE() << at << ": " << f.invariant << ": " << f.detail;
        EXPECT_GT(bulk.instrs, 0u) << at;
    }
}

TEST(UnobservedBatched, BulkFastPathMatchesObservedScalarCounters)
{
    // The bulk no-op-run fast path (and the lean decode it enables)
    // only engages when no observers are attached; the observed run
    // takes the per-instruction path. Observation is read-only, so
    // every simulation counter must agree between the two, and the
    // batch length must not matter for the unobserved run either.
    const ServerWorkload w = ServerWorkload::OltpDb2;
    const Program db2 = buildWorkloadProgram(w);
    expectObservedMatchesUnobserved(db2, executorConfigFor(w),
                                    SystemConfig{}, workloadKey(w));

    // A 64-block lookahead on the 64-slot queue leaves work after the
    // engine's 16-block drain per instruction, so same-block runs
    // drain inside the run and a loop that stops draining early moves
    // next-line's counters by far.
    SystemConfig deep;
    deep.nextLine.degree = 64;
    expectObservedMatchesUnobserved(db2, executorConfigFor(w), deep,
                                    workloadKey(w) + "/degree64");

    // On jit_churn, some same-block runs still find prefetches queued
    // after their first drain, so a run that stops draining too early
    // moves PIF's counters.
    std::string err;
    auto spec =
        loadWorkloadSpecFile(workloadZooDir() + "/jit_churn.json", &err);
    ASSERT_TRUE(spec.has_value()) << err;
    const WorkloadRef ref = workloadRefFromSpec(std::move(*spec));
    expectObservedMatchesUnobserved(ref.buildProgram(),
                                    ref.executorConfig(), SystemConfig{},
                                    "jit_churn");
}

TEST(ReplayBatch, ExecutorBatchesMatchTheEnginesOwnLoop)
{
    // perfbench's PIF probe times Executor::nextBatch and replayBatch
    // in separate spans. Fed the lean batches its own executor would
    // decode, an engine must end exactly where advance() leaves one.
    const ServerWorkload w = ServerWorkload::WebApache;
    const Program prog = buildWorkloadProgram(w);
    const ExecutorConfig exec = executorConfigFor(w);
    const SystemConfig cfg{};
    constexpr InstCount kInstrs = 200'000;

    for (const PrefetcherKind kind :
         {PrefetcherKind::None, PrefetcherKind::Pif}) {
        const std::string at = prefetcherKey(kind);

        TraceEngine replayed(cfg, prog, exec, makePrefetcher(kind, cfg));
        Executor x(prog, exec);
        RecordBatch batch;
        batch.reserve(recordBatchLen);
        InstCount fed = 0;
        while (fed < kInstrs) {
            x.nextBatch(batch,
                        static_cast<std::uint32_t>(std::min<InstCount>(
                            kInstrs - fed, recordBatchLen)),
                        true);
            ASSERT_GT(batch.size, 0u) << at;
            replayed.replayBatch(batch);
            fed += batch.size;
        }

        TraceEngine own(cfg, prog, exec, makePrefetcher(kind, cfg));
        own.advance(kInstrs);

        EXPECT_GT(own.l1i().misses(), 0u) << at;
        if (kind == PrefetcherKind::Pif) {
            EXPECT_GT(own.l1i().prefetchFills(), 0u) << at;
        }
        EXPECT_EQ(replayed.l1i().hits(), own.l1i().hits()) << at;
        EXPECT_EQ(replayed.l1i().misses(), own.l1i().misses()) << at;
        EXPECT_EQ(replayed.l1i().prefetchFills(),
                  own.l1i().prefetchFills())
            << at;
        EXPECT_EQ(replayed.prefetcher().issued(),
                  own.prefetcher().issued())
            << at;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllSix, PresetBatched, ::testing::ValuesIn(allServerWorkloads()),
    [](const ::testing::TestParamInfo<ServerWorkload> &info) {
        std::string n =
            workloadGroup(info.param) + workloadName(info.param);
        n.erase(std::remove(n.begin(), n.end(), ' '), n.end());
        return n;
    });

} // namespace
} // namespace pifetch
