/**
 * @file
 * Checker implementation: the oracle battery, the fuzz loop and the
 * shrinker.
 */

#include "check/checker.hh"

#include <algorithm>
#include <memory>
#include <set>
#include <type_traits>

#include "common/parallel.hh"
#include "pif/pif_prefetcher.hh"
#include "sim/multicore.hh"
#include "sim/workloads.hh"

namespace pifetch {

std::vector<FaultInjection>
allFaultInjections()
{
    return {FaultInjection::None, FaultInjection::DegreeMiscount,
            FaultInjection::CoverageDrop, FaultInjection::WindowMiscount};
}

std::string
faultKey(FaultInjection fault)
{
    switch (fault) {
      case FaultInjection::None:           return "none";
      case FaultInjection::DegreeMiscount: return "degree-miscount";
      case FaultInjection::CoverageDrop:   return "coverage-drop";
      case FaultInjection::WindowMiscount: return "window-miscount";
    }
    panic("unknown fault injection");
}

std::optional<FaultInjection>
faultFromKey(const std::string &s)
{
    for (FaultInjection f : allFaultInjections()) {
        if (s == faultKey(f))
            return f;
    }
    return std::nullopt;
}

namespace {

/** One digest-enabled functional run (optionally event-recorded). */
TraceRunResult
traceRun(const Program &prog, const ExecutorConfig &exec,
         const SystemConfig &cfg, PrefetcherKind kind, InstCount warmup,
         InstCount measure, EventStore *events = nullptr)
{
    TraceEngine engine(cfg, prog, exec, makePrefetcher(kind, cfg));
    ObserverConfig obs;
    obs.digests = true;
    obs.events = events;
    engine.attachObservers(obs);
    return engine.run(warmup, measure);
}

/**
 * Event-store knobs for the step-1 windowed oracles: fetch slices
 * only (prefetch rows are timing-dependent, and excluding them keeps
 * the two engines' slice streams row-aligned under the overflow cap)
 * and a finer counter stride than the CLI default so even the
 * canonical shrunk scenario (measure floor 4000) takes several
 * samples.
 */
EventStoreOptions
oracleEventOptions()
{
    EventStoreOptions opts;
    opts.counterWindow = 1'024;
    opts.maxSlices = std::uint64_t{1} << 20;
    opts.recordRetires = false;
    opts.recordFetches = true;
    opts.recordPrefetches = false;
    return opts;
}

/** The params for simulated core @p core of a fuzzed scenario. */
WorkloadParams
coreParams(const WorkloadParams &base, unsigned core)
{
    WorkloadParams p = base;
    // Same role as workloadParams(w, seed_offset): each core runs its
    // own instance of the workload.
    p.seed = base.seed + core * 0x9e3779b9ull;
    return p;
}

/**
 * The scenario's lowered spec, or nullopt in plain-params mode.
 * Callers run after validateScenario, so lowering cannot panic.
 */
std::optional<LoweredWorkload>
loweredOf(const Scenario &sc)
{
    if (!sc.spec)
        return std::nullopt;
    return lowerWorkloadSpec(*sc.spec);
}

/**
 * The multicore differential: sc.cores independent engines, one per
 * simulated core with its own program instance and seed, fanned over
 * @p threads lanes.
 */
std::vector<TraceRunResult>
multicoreRun(const Scenario &sc, unsigned threads)
{
    const std::optional<LoweredWorkload> lw = loweredOf(sc);
    std::vector<TraceRunResult> out(sc.cores);
    parallelFor(threads, sc.cores, [&](std::uint64_t core) {
        Program prog;
        ExecutorConfig exec;
        if (lw) {
            prog = lw->build(core);
            exec = executorConfigFor(*lw, core, core);
        } else {
            const WorkloadParams params =
                coreParams(sc.params, static_cast<unsigned>(core));
            prog = WorkloadGenerator::build(params);
            exec = executorConfigFor(params, core);
        }
        const SystemConfig cfg =
            coreConfig(sc.cfg, static_cast<unsigned>(core));
        TraceEngine engine(cfg, prog, exec,
                           makePrefetcher(sc.kind, cfg));
        ObserverConfig obs;
        obs.digests = true;
        engine.attachObservers(obs);
        out[core] = engine.run(sc.warmup / 2, sc.measure / 2);
    });
    return out;
}

/** Counters observed from one shared-PIF interleaving. */
struct SharedPifRun
{
    std::vector<std::uint64_t> accesses;
    std::vector<std::uint64_t> misses;
    std::vector<double> coverage;
    std::uint64_t regionsRecorded = 0;
};

/**
 * Two cores of the same program interleaving through one shared PIF
 * history store (the Section 4 shared-storage path, serial by design).
 */
SharedPifRun
sharedPifRun(const Scenario &sc, const LoweredWorkload *lw,
             const Program &prog)
{
    constexpr unsigned cores = 2;
    auto store = std::make_shared<PifHistoryStore>(sc.cfg.pif);

    std::vector<std::unique_ptr<TraceEngine>> engines;
    std::vector<PifPrefetcher *> prefetchers;
    for (unsigned core = 0; core < cores; ++core) {
        auto pf = std::make_unique<PifPrefetcher>(store);
        prefetchers.push_back(pf.get());
        const ExecutorConfig exec =
            lw ? executorConfigFor(*lw, 0, core + 1)
               : executorConfigFor(sc.params, core + 1);
        engines.push_back(std::make_unique<TraceEngine>(
            coreConfig(sc.cfg, core), prog, exec, std::move(pf)));
    }
    interleave(engines, (sc.warmup + sc.measure) / 2, 2'000);

    SharedPifRun run;
    for (unsigned core = 0; core < cores; ++core) {
        run.accesses.push_back(
            engines[core]->frontend().correctPathFetches());
        run.misses.push_back(
            engines[core]->frontend().correctPathMisses());
        run.coverage.push_back(prefetchers[core]->coverage());
    }
    run.regionsRecorded = store->regionsRecorded();
    return run;
}

} // namespace

std::vector<CheckFailure>
runScenario(const Scenario &sc, FaultInjection inject)
{
    std::vector<CheckFailure> out;
    if (const auto err = validateScenario(sc)) {
        out.push_back(CheckFailure{"scenario-valid", *err});
        return out;
    }

    // Spec scenarios lower onto the same pipeline: linked Program
    // plus a phase-scheduled executor config; every oracle below is
    // workload-agnostic.
    const std::optional<LoweredWorkload> lw = loweredOf(sc);
    const Program prog =
        lw ? lw->build() : WorkloadGenerator::build(sc.params);
    const ExecutorConfig exec =
        lw ? executorConfigFor(*lw) : executorConfigFor(sc.params);

    // 1. Differential oracle: same scenario through both engines —
    //    whole-run digests and counters, plus the windowed event-store
    //    oracles (src/query/), which localize any divergence to the
    //    first disagreeing instruction window.
    EventStore traceEvents(oracleEventOptions());
    const TraceRunResult trace = traceRun(prog, exec, sc.cfg, sc.kind,
                                          sc.warmup, sc.measure,
                                          &traceEvents);
    checkTraceSanity(trace, prefetcherKey(sc.kind),
                     sc.cfg.l1i.sizeBytes / blockBytes, out);
    {
        EventStore cycleEvents(oracleEventOptions());
        CycleEngine engine(sc.cfg, prog, exec, sc.kind);
        ObserverConfig obs;
        obs.digests = true;
        obs.events = &cycleEvents;
        engine.attachObservers(obs);
        const CycleRunResult cycle = engine.run(sc.warmup, sc.measure);
        const bool perfect = sc.kind == PrefetcherKind::Perfect;
        const bool instant = perfect || sc.kind == PrefetcherKind::None;
        checkCycleSanity(cycle, perfect, out);
        checkCrossEngine(trace, cycle, instant, out);
        if (inject == FaultInjection::WindowMiscount) {
            // Skew the second accesses sample: one interior window
            // disagrees, whole-run totals stay intact, and the fault
            // survives every shrink move down to the canonical floor
            // (4000 retires / stride 1024 still take three samples).
            cycleEvents.injectCounterSkew(EventCounter::Accesses, 1, 7);
        }
        checkWindowedCounters(traceEvents, cycleEvents, instant, out);
        if (instant)
            checkRegionMissProfile(traceEvents, cycleEvents, out);
    }

    // 2. Prefetcher-off baseline: zero activity, deterministic, and
    //    the fetch sequence matches the prefetching run. When the
    //    scenario itself runs kind None, step 1's run *is* the
    //    baseline (determinism below guarantees reuse is sound — and
    //    matters: the shrinker pins kind to None, so its probes
    //    always hit this path).
    const TraceRunResult off =
        sc.kind == PrefetcherKind::None
            ? trace
            : traceRun(prog, exec, sc.cfg, PrefetcherKind::None,
                       sc.warmup, sc.measure);
    checkPrefetchOff(off, out);
    checkTraceIdentical(off,
                        traceRun(prog, exec, sc.cfg,
                                 PrefetcherKind::None, sc.warmup,
                                 sc.measure),
                        "trace-determinism", out);

    // Full-budget PIF run: feeds the Fig. 9 oracle below, and stands
    // in as the prefetching side of the access-invariance comparison
    // when the scenario's own kind attaches no real prefetcher (None,
    // or Perfect's NullPrefetcher) — comparing `off` with `trace`
    // would then be a self-comparison that exercises nothing.
    const TraceRunResult pif_full =
        sc.kind == PrefetcherKind::Pif
            ? trace
            : traceRun(prog, exec, sc.cfg, PrefetcherKind::Pif,
                       sc.warmup, sc.measure);
    const bool kind_is_null = sc.kind == PrefetcherKind::None ||
                              sc.kind == PrefetcherKind::Perfect;
    checkAccessInvariance(off, kind_is_null ? pif_full : trace, out);

    // The runs from here to step 5 feed oracles that read counters
    // only, so they run without observers, on the bulk back stage.
    const auto plainRun = [&](const SystemConfig &cfg, PrefetcherKind kind,
                              InstCount measure) {
        return TraceEngine(cfg, prog, exec, makePrefetcher(kind, cfg))
            .run(sc.warmup, measure);
    };

    // 3. Doubled measurement window extends the run as a prefix.
    checkLengthScaling(
        off, plainRun(sc.cfg, PrefetcherKind::None, sc.measure * 2), out);

    // 4. Fig. 9: PIF coverage direction in the history budget.
    {
        SystemConfig small = sc.cfg;
        small.pif.historyRegions =
            std::max<std::uint64_t>(64, sc.cfg.pif.historyRegions / 4);
        const double cov_small =
            plainRun(small, PrefetcherKind::Pif, sc.measure).pifCoverage;
        double cov_large = pif_full.pifCoverage;
        if (inject == FaultInjection::CoverageDrop)
            cov_large = cov_small - 0.25;
        checkCoverageMonotone(cov_small, cov_large,
                              small.pif.historyRegions,
                              sc.cfg.pif.historyRegions, out);
    }

    // 5. Next-line degree ablation direction.
    {
        SystemConfig doubled = sc.cfg;
        doubled.nextLine.degree = sc.cfg.nextLine.degree * 2;
        // A kind-NextLine scenario already ran the base degree in
        // step 1 (determinism-checked reuse, as in steps 2 and 4).
        std::uint64_t issued_lo =
            sc.kind == PrefetcherKind::NextLine
                ? trace.prefetchIssued
                : plainRun(sc.cfg, PrefetcherKind::NextLine, sc.measure)
                      .prefetchIssued;
        const std::uint64_t issued_hi =
            plainRun(doubled, PrefetcherKind::NextLine, sc.measure)
                .prefetchIssued;
        if (inject == FaultInjection::DegreeMiscount)
            issued_lo = issued_hi + issued_hi / 2 + 64;
        checkDegreeMonotone(issued_lo, issued_hi,
                            sc.cfg.nextLine.degree,
                            doubled.nextLine.degree, out);
    }

    // 6. Thread-count invariance of the multicore fan-out.
    {
        const std::vector<TraceRunResult> serial = multicoreRun(sc, 1);
        const std::vector<TraceRunResult> pooled =
            multicoreRun(sc, sc.threads);
        for (unsigned core = 0; core < sc.cores; ++core)
            checkTraceIdentical(serial[core], pooled[core],
                                "thread-invariance", out);
    }

    // 7. Shared-PIF interleaving determinism.
    {
        const LoweredWorkload *lwp = lw ? &*lw : nullptr;
        const SharedPifRun a = sharedPifRun(sc, lwp, prog);
        const SharedPifRun b = sharedPifRun(sc, lwp, prog);
        if (a.accesses != b.accesses || a.misses != b.misses ||
            a.coverage != b.coverage ||
            a.regionsRecorded != b.regionsRecorded) {
            out.push_back(CheckFailure{
                "shared-pif-determinism",
                "two identical shared-PIF interleavings diverged"});
        }
    }

    return out;
}

Scenario
shrinkScenario(const Scenario &failing,
               const std::function<bool(const Scenario &)> &stillFails,
               unsigned *steps)
{
    // Floors mirror scenarioFromSeed's minima, so a universally-
    // failing scenario shrinks to one canonical point (test_check
    // locks this).
    constexpr InstCount measureFloor = 4'000;

    Scenario cur = failing;
    unsigned accepted = 0;

    const auto attempt = [&](Scenario cand) {
        if (validateScenario(cand))
            return false;  // candidate left the simulable space
        if (!stillFails(cand))
            return false;
        cur = std::move(cand);
        ++accepted;
        return true;
    };

    /** Halve an integral dimension toward its floor. */
    const auto halve = [&](auto member, std::uint64_t floor) {
        Scenario cand = cur;
        auto &value = member(cand);
        const std::uint64_t now = static_cast<std::uint64_t>(value);
        if (now <= floor)
            return false;
        using T = std::decay_t<decltype(value)>;
        value = static_cast<T>(std::max<std::uint64_t>(floor, now / 2));
        return attempt(std::move(cand));
    };

    /** Set a dimension straight to its floor value. */
    const auto pin = [&](auto apply) {
        Scenario cand = cur;
        if (!apply(cand))
            return false;  // already there
        return attempt(std::move(cand));
    };

    /**
     * The workload params the engines actually consume: the spec's
     * surviving program in spec mode (cloned first — Scenario shares
     * its spec), else the scenario's own params. Lets every param
     * move below shrink spec scenarios in spec coordinates.
     */
    const auto mutableParams = [](Scenario &s) -> WorkloadParams & {
        if (!s.spec)
            return s.params;
        auto clone = std::make_shared<WorkloadSpec>(*s.spec);
        WorkloadParams &p = clone->programs.front().params;
        s.spec = std::move(clone);
        return p;
    };

    /** Clone-mutate-replace a spec dimension (no-op sans spec). */
    const auto specPin = [&](auto apply) {
        return pin([&](Scenario &s) {
            if (!s.spec)
                return false;
            auto clone = std::make_shared<WorkloadSpec>(*s.spec);
            if (!apply(*clone))
                return false;  // already at the floor
            s.spec = std::move(clone);
            return true;
        });
    };

    bool changed = true;
    for (int pass = 0; changed && pass < 12; ++pass) {
        changed = false;
        // Budget first: every later probe gets cheaper.
        changed |= halve([](Scenario &s) -> InstCount & {
            return s.measure; }, measureFloor);
        changed |= pin([](Scenario &s) {
            if (s.warmup == 0)
                return false;
            // Snap small warmups straight to zero so the floor is
            // reachable within the pass budget.
            s.warmup = s.warmup >= 2'000 ? s.warmup / 2 : 0;
            return true;
        });
        changed |= pin([](Scenario &s) {
            if (s.threads == 1 && s.cores == 1)
                return false;
            s.threads = 1;
            s.cores = 1;
            return true;
        });
        changed |= pin([](Scenario &s) {
            if (s.kind == PrefetcherKind::None)
                return false;
            s.kind = PrefetcherKind::None;
            return true;
        });
        // Spec coordinates before program knobs: collapsing the
        // schedule and program list first lets the param moves below
        // act on the single surviving program.
        changed |= specPin([](WorkloadSpec &spec) {
            if (spec.phases.empty())
                return false;
            spec.phases.clear();  // steady state (no schedule)
            return true;
        });
        changed |= specPin([](WorkloadSpec &spec) {
            if (spec.phases.size() <= 1)
                return false;
            spec.phases.resize(1);
            return true;
        });
        changed |= specPin([](WorkloadSpec &spec) {
            if (spec.programs.size() <= 1)
                return false;
            spec.programs.resize(1);
            // Mixes may reference dropped programs; uniform-over-one
            // is the canonical floor anyway.
            for (WorkloadSpecPhase &ph : spec.phases)
                ph.mix.clear();
            return true;
        });
        changed |= specPin([](WorkloadSpec &spec) {
            bool any = false;
            for (WorkloadSpecPhase &ph : spec.phases) {
                if (ph.instructions > specMinPhaseInstrs) {
                    ph.instructions = std::max(
                        specMinPhaseInstrs, ph.instructions / 2);
                    any = true;
                }
            }
            return any;
        });
        changed |= specPin([](WorkloadSpec &spec) {
            bool any = false;
            for (WorkloadSpecPhase &ph : spec.phases) {
                if (ph.interruptRate != 0.0 ||
                    ph.interruptRateEnd >= 0.0) {
                    ph.interruptRate = 0.0;   // explicit off, no ramp
                    ph.interruptRateEnd = -1.0;
                    any = true;
                }
            }
            return any;
        });
        changed |= halve([&](Scenario &s) -> unsigned & {
            return mutableParams(s).appFunctions; }, 40);
        changed |= halve([&](Scenario &s) -> unsigned & {
            return mutableParams(s).libFunctions; }, 8);
        changed |= halve([&](Scenario &s) -> unsigned & {
            return mutableParams(s).handlers; }, 4);
        changed |= halve([&](Scenario &s) -> unsigned & {
            return mutableParams(s).transactions; }, 2);
        changed |= pin([&](Scenario &s) {
            WorkloadParams &p = mutableParams(s);
            if (p.interruptRate == 0.0)
                return false;
            p.interruptRate = 0.0;
            return true;
        });
        changed |= pin([&](Scenario &s) {
            WorkloadParams &p = mutableParams(s);
            if (p.loopsPerFunction == 0.0)
                return false;
            p.loopsPerFunction = 0.0;
            return true;
        });
        changed |= halve([&](Scenario &s) -> unsigned & {
            return mutableParams(s).callLayers; }, 2);
        changed |= halve([&](Scenario &s) -> unsigned & {
            return mutableParams(s).maxCallDepth; }, 6);
        changed |= halve([](Scenario &s) -> std::uint64_t & {
            return s.cfg.pif.historyRegions; }, 512);
        changed |= halve([](Scenario &s) -> unsigned & {
            return s.cfg.pif.indexEntries; }, 1024);
        changed |= halve([](Scenario &s) -> unsigned & {
            return s.cfg.pif.numSabs; }, 1);
        changed |= halve([](Scenario &s) -> unsigned & {
            return s.cfg.pif.sabWindowRegions; }, 2);
        changed |= halve([](Scenario &s) -> unsigned & {
            return s.cfg.pif.temporalEntries; }, 1);
        changed |= pin([](Scenario &s) {
            if (s.cfg.pif.blocksBefore == 0)
                return false;
            s.cfg.pif.blocksBefore = 0;
            return true;
        });
        changed |= halve([](Scenario &s) -> unsigned & {
            return s.cfg.pif.blocksAfter; }, 1);
        changed |= halve([](Scenario &s) -> unsigned & {
            return s.cfg.nextLine.degree; }, 1);
        changed |= halve([](Scenario &s) -> std::uint64_t & {
            return s.cfg.l1i.sizeBytes; }, 16 * 1024);
        changed |= halve([](Scenario &s) -> unsigned & {
            return s.cfg.l1i.assoc; }, 1);
        changed |= halve([](Scenario &s) -> unsigned & {
            return s.cfg.l1i.mshrs; }, 8);
    }

    if (steps)
        *steps = accepted;
    return cur;
}

CheckReport
runCheck(const CheckOptions &opts)
{
    CheckReport report;
    report.baseSeed = opts.baseSeed;
    report.seedsRun = opts.seeds;

    std::vector<std::unique_ptr<ScenarioReport>> slots(opts.seeds);
    parallelFor(opts.threads, opts.seeds, [&](std::uint64_t i) {
        Scenario sc = scenarioFromSeed(opts.baseSeed + i);
        // Spec-space mode: the whole seed range sweeps prefetchers,
        // configs and budgets over the one supplied spec.
        if (opts.spec)
            sc.spec = opts.spec;
        std::vector<CheckFailure> failures = runScenario(sc, opts.inject);
        if (failures.empty())
            return;

        auto entry = std::make_unique<ScenarioReport>();
        entry->scenario = sc;
        entry->failures = std::move(failures);
        entry->shrunk = sc;
        if (opts.shrink) {
            // "Still fails" = at least one of the originally violated
            // invariants is still violated; this keeps the shrinker
            // from wandering onto unrelated failures.
            std::set<std::string> ids;
            for (const CheckFailure &f : entry->failures)
                ids.insert(f.invariant);
            const auto still = [&](const Scenario &cand) {
                for (const CheckFailure &f :
                     runScenario(cand, opts.inject)) {
                    if (ids.count(f.invariant))
                        return true;
                }
                return false;
            };
            entry->shrunk =
                shrinkScenario(sc, still, &entry->shrinkSteps);
            entry->shrunkValid = true;
        }
        slots[i] = std::move(entry);
    });

    for (auto &slot : slots) {
        if (slot)
            report.failures.push_back(std::move(*slot));
    }
    return report;
}

ResultValue
toResult(const ScenarioReport &report)
{
    ResultValue entry = ResultValue::object();
    entry.set("seed", report.scenario.seed);
    ResultValue violations = ResultValue::array();
    for (const CheckFailure &f : report.failures) {
        ResultValue v = ResultValue::object();
        v.set("invariant", f.invariant);
        v.set("detail", f.detail);
        violations.push(std::move(v));
    }
    entry.set("failures", std::move(violations));
    entry.set("scenario", toResult(report.scenario));
    if (report.shrunkValid) {
        entry.set("shrunk", toResult(report.shrunk));
        entry.set("shrinkSteps", report.shrinkSteps);
    }
    return entry;
}

ResultValue
toResult(const CheckReport &report)
{
    ResultValue failures = ResultValue::array();
    for (const ScenarioReport &r : report.failures)
        failures.push(toResult(r));

    ResultValue doc = ResultValue::object();
    doc.set("command", "check");
    doc.set("baseSeed", report.baseSeed);
    doc.set("seeds", report.seedsRun);
    doc.set("failed", report.failures.size());
    doc.set("passed", report.passed());
    doc.set("failures", std::move(failures));
    return doc;
}

} // namespace pifetch
