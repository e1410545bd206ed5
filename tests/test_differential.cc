/**
 * @file
 * Differential regression suite over the six server presets.
 *
 * The fuzz harness (`pifetch check`) exercises the cross-engine
 * oracles on randomized scenarios; this suite pins them on the fixed
 * presets so they run in every plain CTest invocation, with no
 * fuzzing involved. Any drift between TraceEngine and CycleEngine on
 * retired-instruction streams, fetch sequences or miss counts fails
 * here first.
 *
 * The recorded-stream suites check that replaying a FrontRecording
 * through the back stage equals the live engine counter for counter,
 * for every prefetcher the experiment grids use, at batch lengths 1
 * and 1024, with the replays sharing one recording across pool lanes.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "check/checker.hh"
#include "check/invariants.hh"
#include "common/parallel.hh"
#include "pif/pif_prefetcher.hh"
#include "sim/experiment.hh"
#include "sim/multicore.hh"
#include "sim/workloads.hh"
#include "trace/workload_spec.hh"

namespace pifetch {
namespace {

constexpr InstCount kWarmup = 60'000;
constexpr InstCount kMeasure = 120'000;

/**
 * The event-store shape the windowed oracles use: a fine counter
 * stride, and no prefetch slices (their timing differs across engines,
 * which would misalign the slice streams row for row).
 */
EventStoreOptions
windowedOptions()
{
    EventStoreOptions opts;
    opts.counterWindow = 1'024;
    opts.recordPrefetches = false;
    return opts;
}

/**
 * Drive one workload through both engines with attached event stores
 * and apply the windowed differential oracles.
 */
void
runWindowedOracles(const Program &prog, const ExecutorConfig &exec,
                   PrefetcherKind kind, const std::string &label)
{
    const SystemConfig cfg{};
    EventStore trace_events(windowedOptions());
    TraceEngine trace_engine(cfg, prog, exec,
                             makePrefetcher(kind, cfg));
    ObserverConfig trace_obs;
    trace_obs.events = &trace_events;
    trace_engine.attachObservers(trace_obs);
    trace_engine.run(kWarmup, kMeasure);

    EventStore cycle_events(windowedOptions());
    CycleEngine cycle_engine(cfg, prog, exec, kind);
    ObserverConfig cycle_obs;
    cycle_obs.events = &cycle_events;
    cycle_engine.attachObservers(cycle_obs);
    cycle_engine.run(kWarmup, kMeasure);

    // Recording must actually have happened — two empty stores would
    // compare equal and verify nothing.
    EXPECT_GT(trace_events.sliceCount(), 0u) << label;
    EXPECT_GT(trace_events.counterCount(), 0u) << label;

    std::vector<CheckFailure> failures;
    const bool instant = kind == PrefetcherKind::None;
    checkWindowedCounters(trace_events, cycle_events, instant,
                          failures);
    if (instant)
        checkRegionMissProfile(trace_events, cycle_events, failures);
    for (const CheckFailure &f : failures) {
        ADD_FAILURE() << label << "/" << prefetcherKey(kind) << ": "
                      << f.invariant << ": " << f.detail;
    }
}

class PresetDifferential
    : public ::testing::TestWithParam<ServerWorkload>
{
};

TEST_P(PresetDifferential, EnginesAgreeOnStreamsAndCounters)
{
    const ServerWorkload w = GetParam();
    const SystemConfig cfg{};
    const Program prog = buildWorkloadProgram(w);

    for (const PrefetcherKind kind :
         {PrefetcherKind::None, PrefetcherKind::Pif}) {
        TraceEngine trace_engine(cfg, prog, executorConfigFor(w),
                                 makePrefetcher(kind, cfg));
        ObserverConfig obs;
        obs.digests = true;
        trace_engine.attachObservers(obs);
        const TraceRunResult trace =
            trace_engine.run(kWarmup, kMeasure);

        CycleEngine cycle_engine(cfg, prog, executorConfigFor(w), kind);
        cycle_engine.attachObservers(obs);
        const CycleRunResult cycle =
            cycle_engine.run(kWarmup, kMeasure);

        // Digest collection must actually have happened — an
        // accidental 0 == 0 comparison would verify nothing.
        EXPECT_NE(trace.retireDigest, 0u);
        EXPECT_NE(trace.accessDigest, 0u);

        std::vector<CheckFailure> failures;
        checkTraceSanity(trace, workloadKey(w),
                         cfg.l1i.sizeBytes / blockBytes, failures);
        checkCycleSanity(cycle, false, failures);
        checkCrossEngine(trace, cycle,
                         kind == PrefetcherKind::None, failures);
        for (const CheckFailure &f : failures) {
            ADD_FAILURE() << workloadKey(w) << "/"
                          << prefetcherKey(kind) << ": "
                          << f.invariant << ": " << f.detail;
        }
    }
}

TEST_P(PresetDifferential, WindowedOraclesAgreeAcrossEngines)
{
    const ServerWorkload w = GetParam();
    const Program prog = buildWorkloadProgram(w);
    for (const PrefetcherKind kind :
         {PrefetcherKind::None, PrefetcherKind::Pif})
        runWindowedOracles(prog, executorConfigFor(w), kind,
                           workloadKey(w));
}

TEST(ZooDifferential, WindowedOraclesAgreeOnZooSpecs)
{
    const std::vector<WorkloadZooEntry> zoo = workloadZoo();
    ASSERT_GE(zoo.size(), 2u);
    // The first two specs in key order; the fuzz harness sweeps the
    // rest.
    for (std::size_t i = 0; i < 2; ++i) {
        std::string err;
        auto spec = loadWorkloadSpecFile(zoo[i].path, &err);
        ASSERT_TRUE(spec.has_value()) << zoo[i].key << ": " << err;
        const WorkloadRef ref = workloadRefFromSpec(std::move(*spec));
        const Program prog = ref.buildProgram();
        const ExecutorConfig exec = ref.executorConfig();
        for (const PrefetcherKind kind :
             {PrefetcherKind::None, PrefetcherKind::Pif})
            runWindowedOracles(prog, exec, kind, zoo[i].key);
    }
}

TEST(WindowedFault, PlantedMiscountIsLocalizedToItsWindow)
{
    // The injected skew hits the cycle store's second accesses sample:
    // with the oracle's 1024-instruction stride that is instruction
    // window 2048, and the failure must name exactly that window (the
    // whole-run totals stay equal, so no other oracle may trip).
    Scenario sc = scenarioFromSeed(1);
    sc.warmup = 2'000;
    sc.measure = 8'000;
    const std::vector<CheckFailure> failures =
        runScenario(sc, FaultInjection::WindowMiscount);
    ASSERT_EQ(failures.size(), 1u);
    EXPECT_EQ(failures[0].invariant, "windowed-counter-equality");
    EXPECT_NE(
        failures[0].detail.find("accesses diverges at instr 2048"),
        std::string::npos)
        << failures[0].detail;
}

// ------------------------------------------- recorded front-end streams

constexpr InstCount kRecWarmup = 20'000;
constexpr InstCount kRecMeasure = 50'000;

/** One engine configuration of the recorded-stream comparison. */
struct BackStageCase
{
    bool cycle = false;       //!< CycleEngine, else TraceEngine
    PrefetcherKind kind = PrefetcherKind::None;
    bool unbounded = false;   //!< trace engine: no storage limits
    std::uint32_t batchLen = recordBatchLen;
};

/** Every prefetcher the grids run, on each engine, at both lengths. */
std::vector<BackStageCase>
backStageCases()
{
    std::vector<BackStageCase> out;
    for (const std::uint32_t len : {1u, recordBatchLen}) {
        for (const PrefetcherKind k :
             {PrefetcherKind::None, PrefetcherKind::NextLine,
              PrefetcherKind::Tifs, PrefetcherKind::Pif})
            out.push_back({false, k, false, len});
        // Fig. 10 coverage runs TIFS and PIF without storage limits.
        out.push_back({false, PrefetcherKind::Tifs, true, len});
        out.push_back({false, PrefetcherKind::Pif, true, len});
        for (const PrefetcherKind k :
             {PrefetcherKind::None, PrefetcherKind::NextLine,
              PrefetcherKind::Tifs, PrefetcherKind::Pif,
              PrefetcherKind::Perfect})
            out.push_back({true, k, false, len});
    }
    return out;
}

std::string
caseLabel(const BackStageCase &c)
{
    return std::string(c.cycle ? "cycle/" : "trace/") +
           prefetcherKey(c.kind) + (c.unbounded ? "-unbounded" : "") +
           "/len" + std::to_string(c.batchLen);
}

/** One run's every result field plus the L1-I's final state. */
struct BackStageOutcome
{
    TraceRunResult trace;
    CycleRunResult cycle;
    /** Per block up to past the code end: bit 0 present, bit 1
     * prefetched and not yet demanded. */
    std::vector<std::uint8_t> lines;
    std::uint64_t l1iHits = 0;
    std::uint64_t l1iMisses = 0;
};

std::vector<std::uint8_t>
l1iLines(const Cache &l1i, const Program &prog)
{
    // The margin covers wrong-path bursts running past the code end.
    std::vector<std::uint8_t> out(prog.footprintBlocks() + 64);
    for (Addr b = 0; b < out.size(); ++b) {
        out[b] = static_cast<std::uint8_t>(
            (l1i.probe(b) ? 1 : 0) | (l1i.isPrefetched(b) ? 2 : 0));
    }
    return out;
}

/** Run @p c live on @p prog, or replayed from @p rec when non-null. */
BackStageOutcome
runBackStageCase(const BackStageCase &c, const Program &prog,
                 const ExecutorConfig &exec, const FrontRecording *rec)
{
    const SystemConfig cfg{};
    BackStageOutcome out;
    if (c.cycle) {
        std::unique_ptr<CycleEngine> e =
            rec ? std::make_unique<CycleEngine>(cfg, *rec, c.kind)
                : std::make_unique<CycleEngine>(cfg, prog, exec, c.kind);
        e->setBatchLen(c.batchLen);
        out.cycle = e->run(kRecWarmup, kRecMeasure);
        out.lines = l1iLines(e->l1i(), prog);
        out.l1iHits = e->l1i().hits();
        out.l1iMisses = e->l1i().misses();
    } else {
        auto pf = makePrefetcher(c.kind, cfg, c.unbounded);
        std::unique_ptr<TraceEngine> e =
            rec ? std::make_unique<TraceEngine>(cfg, *rec, std::move(pf))
                : std::make_unique<TraceEngine>(cfg, prog, exec,
                                                std::move(pf));
        e->setBatchLen(c.batchLen);
        out.trace = e->run(kRecWarmup, kRecMeasure);
        out.lines = l1iLines(e->l1i(), prog);
        out.l1iHits = e->l1i().hits();
        out.l1iMisses = e->l1i().misses();
    }
    return out;
}

/** Every difference between a replayed and a live outcome. */
std::vector<std::string>
backStageDiffs(const BackStageCase &c, const BackStageOutcome &replay,
               const BackStageOutcome &live)
{
    std::vector<CheckFailure> failures;
    if (c.cycle) {
        const CycleRunResult &a = replay.cycle;
        const CycleRunResult &b = live.cycle;
        checkCountersIdentical(a, b, "replay", true, failures);
        const auto eq = [&](const char *name, std::uint64_t x,
                            std::uint64_t y) {
            if (x != y) {
                failures.push_back({"replay", std::string(name) + ": " +
                                                  std::to_string(x) +
                                                  " vs " +
                                                  std::to_string(y)});
            }
        };
        eq("cycles", a.cycles, b.cycles);
        eq("userInstrs", a.userInstrs, b.userInstrs);
        eq("fetchStallCycles", a.fetchStallCycles, b.fetchStallCycles);
        eq("branchPenaltyCycles", a.branchPenaltyCycles,
           b.branchPenaltyCycles);
        eq("demandMisses", a.demandMisses, b.demandMisses);
        eq("latePrefetches", a.latePrefetches, b.latePrefetches);
        eq("prefetchFills", a.prefetchFills, b.prefetchFills);
        eq("l2Hits", a.l2Hits, b.l2Hits);
        eq("l2Misses", a.l2Misses, b.l2Misses);
        if (a.uipc != b.uipc)
            failures.push_back({"replay", "uipc"});
    } else {
        checkTraceIdentical(replay.trace, live.trace, "replay", failures);
    }
    if (replay.l1iHits != live.l1iHits ||
        replay.l1iMisses != live.l1iMisses)
        failures.push_back({"replay", "L1-I hit/miss totals"});
    if (replay.lines != live.lines)
        failures.push_back({"replay", "final L1-I contents"});

    std::vector<std::string> out;
    for (const CheckFailure &f : failures)
        out.push_back(caseLabel(c) + ": " + f.detail);
    return out;
}

/**
 * Record @p ref once, then run every case live and replayed on a
 * 4-lane pool, all replays sharing the one read-only recording. With
 * @p exec_seed_offset nonzero the recording is made from another
 * executor seed (the negative control). Returns each case's
 * differences, in backStageCases() order.
 */
std::vector<std::vector<std::string>>
compareRecordedStream(const WorkloadRef &ref,
                      std::uint64_t exec_seed_offset = 0)
{
    const Program prog = ref.buildProgram();
    const ExecutorConfig exec = ref.executorConfig();
    ExecutorConfig rec_exec = exec;
    rec_exec.seed += exec_seed_offset;
    const FrontRecording rec(SystemConfig{}, prog, rec_exec, kRecWarmup,
                             kRecMeasure);
    // Well under a byte per instruction (two or three per step).
    EXPECT_LE(rec.bytes(), kRecWarmup + kRecMeasure);

    const std::vector<BackStageCase> cases = backStageCases();
    std::vector<BackStageOutcome> live(cases.size());
    std::vector<BackStageOutcome> replay(cases.size());
    parallelFor(4, 2 * cases.size(), [&](std::uint64_t i) {
        const BackStageCase &c = cases[i / 2];
        if (i % 2 == 0)
            live[i / 2] = runBackStageCase(c, prog, exec, nullptr);
        else
            replay[i / 2] = runBackStageCase(c, prog, exec, &rec);
    });

    std::vector<std::vector<std::string>> diffs;
    for (std::size_t i = 0; i < cases.size(); ++i)
        diffs.push_back(backStageDiffs(cases[i], replay[i], live[i]));
    return diffs;
}

TEST_P(PresetDifferential, ReplayedFrontEndMatchesLive)
{
    const ServerWorkload w = GetParam();
    for (const std::vector<std::string> &diffs : compareRecordedStream(w)) {
        for (const std::string &d : diffs)
            ADD_FAILURE() << workloadKey(w) << ": " << d;
    }
}

TEST(RecordedDifferential, ReplayedFrontEndMatchesLiveOnZooSpecs)
{
    for (const char *key : {"microservice_fanout", "cold_start_storm"}) {
        const std::optional<WorkloadZooEntry> entry = findZooEntry(key);
        ASSERT_TRUE(entry.has_value()) << key;
        std::string err;
        auto spec = loadWorkloadSpecFile(entry->path, &err);
        ASSERT_TRUE(spec.has_value()) << key << ": " << err;
        const WorkloadRef ref = workloadRefFromSpec(std::move(*spec));
        for (const auto &diffs : compareRecordedStream(ref)) {
            for (const std::string &d : diffs)
                ADD_FAILURE() << key << ": " << d;
        }
    }
}

TEST(RecordedDifferential, ForeignRecordingFailsTheComparison)
{
    // Negative control: a recording of another executor seed replays
    // without complaint but must differ from the live run, or the
    // comparison above could not fail.
    const std::vector<std::vector<std::string>> diffs =
        compareRecordedStream(ServerWorkload::OltpDb2, 1);
    const std::vector<BackStageCase> cases = backStageCases();
    ASSERT_EQ(diffs.size(), cases.size());
    for (std::size_t i = 0; i < cases.size(); ++i)
        EXPECT_FALSE(diffs[i].empty()) << caseLabel(cases[i]);

    // A recording made under another front-end configuration is
    // refused outright.
    SystemConfig other;
    other.seed += 1;
    const FrontRecording rec = recordWorkload(
        ServerWorkload::OltpDb2, {kRecWarmup, kRecMeasure}, other);
    EXPECT_THROW(TraceEngine(SystemConfig{}, rec,
                             makePrefetcher(PrefetcherKind::Pif,
                                            SystemConfig{})),
                 std::invalid_argument);
    EXPECT_THROW(CycleEngine(SystemConfig{}, rec, PrefetcherKind::Pif),
                 std::invalid_argument);
}

/** The live shared-storage study, as it ran before recordings. */
SharedPifStudyResult
liveSharedPifStudy(const WorkloadRef &w, const Program &prog,
                   std::uint64_t total, bool shared, InstCount warmup,
                   InstCount measure)
{
    constexpr unsigned cores = 4;
    SystemConfig cfg;
    cfg.pif.historyRegions =
        shared ? total : std::max<std::uint64_t>(total / cores, 256);
    auto store = std::make_shared<PifHistoryStore>(cfg.pif);
    std::vector<std::unique_ptr<TraceEngine>> engines;
    std::vector<PifPrefetcher *> pfs;
    for (unsigned core = 0; core < cores; ++core) {
        auto pf = shared ? std::make_unique<PifPrefetcher>(store)
                         : std::make_unique<PifPrefetcher>(cfg.pif);
        pfs.push_back(pf.get());
        engines.push_back(std::make_unique<TraceEngine>(
            coreConfig(cfg, core), prog, w.executorConfig(0, core + 1),
            std::move(pf)));
    }
    interleave(engines, warmup, 10'000);
    std::vector<std::uint64_t> acc0;
    std::vector<std::uint64_t> miss0;
    for (unsigned c = 0; c < cores; ++c) {
        acc0.push_back(engines[c]->frontend().correctPathFetches());
        miss0.push_back(engines[c]->frontend().correctPathMisses());
        pfs[c]->resetStats();
    }
    interleave(engines, measure, 10'000);
    SharedPifStudyResult out;
    for (unsigned c = 0; c < cores; ++c) {
        const double acc = static_cast<double>(
            engines[c]->frontend().correctPathFetches() - acc0[c]);
        const double miss = static_cast<double>(
            engines[c]->frontend().correctPathMisses() - miss0[c]);
        out.missRatio += acc > 0.0 ? miss / acc : 0.0;
        out.coverage += pfs[c]->coverage();
    }
    out.missRatio /= cores;
    out.coverage /= cores;
    return out;
}

TEST(RecordedDifferential, SharedStorageArmsMatchLiveAtOneAndFourThreads)
{
    // Warm-up and measure lengths off the 10K interleave grid, so the
    // replays split steps at chunk boundaries.
    constexpr InstCount warmup = 25'000;
    constexpr InstCount measure = 45'000;
    const WorkloadRef w = ServerWorkload::OltpDb2;
    const Program prog = w.buildProgram();
    std::vector<FrontRecording> cores;
    for (unsigned core = 0; core < 4; ++core)
        cores.push_back(recordSharedPifCore(w, prog, core, warmup, measure));

    const std::vector<std::uint64_t> totals = {2048, 8192};
    std::vector<SharedPifStudyResult> live(2 * totals.size());
    for (std::size_t i = 0; i < live.size(); ++i)
        live[i] = liveSharedPifStudy(w, prog, totals[i / 2], i % 2 == 1,
                                     warmup, measure);

    for (const unsigned threads : {1u, 4u}) {
        std::vector<SharedPifStudyResult> replay(live.size());
        parallelFor(threads, replay.size(), [&](std::uint64_t i) {
            replay[i] = runSharedPifStudy(cores, totals[i / 2], i % 2 == 1);
        });
        for (std::size_t i = 0; i < live.size(); ++i) {
            EXPECT_EQ(replay[i].missRatio, live[i].missRatio)
                << "threads " << threads << " arm " << i;
            EXPECT_EQ(replay[i].coverage, live[i].coverage)
                << "threads " << threads << " arm " << i;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllSix, PresetDifferential,
    ::testing::ValuesIn(allServerWorkloads()),
    [](const ::testing::TestParamInfo<ServerWorkload> &info) {
        std::string n = workloadGroup(info.param) +
                        workloadName(info.param);
        n.erase(std::remove(n.begin(), n.end(), ' '), n.end());
        return n;
    });

} // namespace
} // namespace pifetch
