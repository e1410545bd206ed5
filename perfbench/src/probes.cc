/**
 * @file
 * Engine-layer probes.
 */

#include "probes.hh"

#include <algorithm>

#include "cache/cache.hh"
#include "query/event_store.hh"
#include "sim/cycle_engine.hh"
#include "sim/trace_engine.hh"

namespace simbench {

using namespace pifetch;

namespace {

/** Per probe input and engine run: warm up, then measure. */
constexpr InstCount probeWarmup = 200'000;
constexpr InstCount probeMeasure = 600'000;
constexpr InstCount probeInstrs = probeWarmup + probeMeasure;
/** Repetitions per probe; stage times are medians over them. */
constexpr int probeReps = 3;

/** Run @p fn inside a span and return its duration in ns. */
template <typename F>
double
timedSpan(Tracer &tracer, std::uint32_t name, F &&fn)
{
    Scope s(&tracer, name);
    const std::int64_t t0 = nowNs();
    fn();
    return static_cast<double>(nowNs() - t0);
}

/** Stage times of one input, one entry per repetition. */
struct StageTimes
{
    std::vector<double> run, exec, pif, none, cycle, observed, cache;
};

/** Event-store knobs of the checker's windowed oracles. */
EventStoreOptions
oracleEvents()
{
    EventStoreOptions opts;
    opts.counterWindow = 1'024;
    opts.maxSlices = std::uint64_t{1} << 20;
    opts.recordRetires = false;
    opts.recordFetches = true;
    opts.recordPrefetches = false;
    return opts;
}

/** Simulated counts of one input (first repetition). */
struct Counts
{
    std::uint64_t executorInstrs = 0;
    std::uint64_t measured = 0;
    std::uint64_t accesses = 0;
    std::uint64_t wrongPath = 0;
    std::uint64_t mispredicts = 0;
    std::uint64_t noneFetches = 0;
    std::uint64_t noneMisses = 0;
    std::uint64_t issued = 0;
    std::uint64_t fills = 0;
    std::uint64_t useful = 0;
    double coverage = 0.0;
    std::uint64_t cycles = 0;
    std::uint64_t userInstrs = 0;
    std::uint64_t fetchStall = 0;
    std::uint64_t late = 0;
    std::uint64_t cycleFills = 0;
};

} // namespace

void
runProbes(const std::vector<ProbeInput> &inputs, Tracer &tracer,
          std::vector<Metric> &out)
{
    const std::uint32_t n_run = tracer.intern("sim.trace_engine.run");
    const std::uint32_t n_exec = tracer.intern("trace.executor.nextBatch");
    const std::uint32_t n_pif = tracer.intern("pif.replayBatch");
    const std::uint32_t n_none = tracer.intern("core.frontend.replayBatch");
    const std::uint32_t n_cycle = tracer.intern("sim.cycle_engine.run");
    const std::uint32_t n_obs = tracer.intern("query.observed_run");
    const std::uint32_t n_cache = tracer.intern("cache.l1i.access_loop");

    double exec = 0, pif = 0, none = 0, run = 0, cycle = 0, observed = 0,
           cache = 0, decomposed = 0;
    std::uint64_t cache_accesses = 0;
    Counts sum;

    for (const ProbeInput &in : inputs) {
        Scope probe(&tracer, "probe." + in.key);
        const Program &prog = *in.program;
        StageTimes st;
        std::vector<Addr> blocks;
        Counts c;

        for (int rep = 0; rep < probeReps; ++rep) {
            // Composite: the engine's own replay loop.
            {
                TraceEngine e(in.cfg, prog, in.exec,
                              makePrefetcher(PrefetcherKind::Pif, in.cfg));
                TraceRunResult r;
                st.run.push_back(timedSpan(tracer, n_run, [&] {
                    r = e.run(probeWarmup, probeMeasure);
                }));
                if (rep == 0) {
                    c.measured = r.instrs;
                    c.accesses = r.accesses;
                    c.wrongPath = r.wrongPathFetches;
                    c.mispredicts = r.mispredicts;
                    c.issued = r.prefetchIssued;
                    c.fills = r.prefetchFills;
                    c.useful = r.usefulPrefetches;
                    c.coverage = r.pifCoverage;
                }
            }
            // Decomposed, PIF: executor and replay in their own spans.
            {
                Executor x(prog, in.exec);
                TraceEngine e(in.cfg, prog, in.exec,
                              makePrefetcher(PrefetcherKind::Pif, in.cfg));
                RecordBatch b;
                b.reserve(recordBatchLen);
                double ex = 0.0;
                double pf = 0.0;
                Scope d(&tracer, "probe.decomposed_pif");
                for (InstCount left = probeInstrs; left > 0;) {
                    const auto want = static_cast<std::uint32_t>(
                        std::min<InstCount>(left, recordBatchLen));
                    ex += timedSpan(tracer, n_exec,
                                    [&] { x.nextBatch(b, want, true); });
                    if (b.size == 0)
                        break;
                    pf += timedSpan(tracer, n_pif,
                                    [&] { e.replayBatch(b); });
                    left -= b.size;
                }
                st.exec.push_back(ex);
                st.pif.push_back(pf);
                if (rep == 0)
                    c.executorInstrs = x.retired();
            }
            // Decomposed, no prefetcher: the front end, branch
            // predictors and L1-I alone on the same stream.
            {
                Executor x(prog, in.exec);
                TraceEngine e(in.cfg, prog, in.exec,
                              makePrefetcher(PrefetcherKind::None, in.cfg));
                RecordBatch b;
                b.reserve(recordBatchLen);
                double fe = 0.0;
                Scope d(&tracer, "probe.decomposed_none");
                for (InstCount left = probeInstrs; left > 0;) {
                    const auto want = static_cast<std::uint32_t>(
                        std::min<InstCount>(left, recordBatchLen));
                    x.nextBatch(b, want, true);
                    if (b.size == 0)
                        break;
                    fe += timedSpan(tracer, n_none,
                                    [&] { e.replayBatch(b); });
                    if (rep == 0) {
                        for (std::uint32_t i = 0; i < b.size; ++i) {
                            if (!b.plainCont[i])
                                blocks.push_back(b.block[i]);
                        }
                    }
                    left -= b.size;
                }
                st.none.push_back(fe);
                if (rep == 0) {
                    c.noneFetches = e.frontend().correctPathFetches();
                    c.noneMisses = e.frontend().correctPathMisses();
                }
            }
            // The timed engine.
            {
                CycleEngine e(in.cfg, prog, in.exec, PrefetcherKind::Pif);
                CycleRunResult r;
                st.cycle.push_back(timedSpan(tracer, n_cycle, [&] {
                    r = e.run(probeWarmup, probeMeasure);
                }));
                if (rep == 0) {
                    c.cycles = r.cycles;
                    c.userInstrs = r.userInstrs;
                    c.fetchStall = r.fetchStallCycles;
                    c.late = r.latePrefetches;
                    c.cycleFills = r.prefetchFills;
                }
            }
            // Observed: digests plus the event store.
            {
                EventStore store(oracleEvents());
                TraceEngine e(in.cfg, prog, in.exec,
                              makePrefetcher(PrefetcherKind::Pif, in.cfg));
                ObserverConfig obs;
                obs.digests = true;
                obs.events = &store;
                e.attachObservers(obs);
                st.observed.push_back(timedSpan(tracer, n_obs, [&] {
                    e.run(probeWarmup, probeMeasure);
                }));
            }
            // The L1-I alone over the stream's block changes.
            {
                Cache l1(in.cfg.l1i, ReplacementKind::LRU, in.cfg.seed);
                st.cache.push_back(timedSpan(tracer, n_cache, [&] {
                    for (Addr blk : blocks) {
                        if (!l1.access(blk).hit)
                            l1.fill(blk);
                    }
                }));
            }
        }

        std::vector<double> sums;
        for (int rep = 0; rep < probeReps; ++rep)
            sums.push_back(st.exec[rep] + st.pif[rep]);
        exec += median(st.exec);
        pif += median(st.pif);
        none += median(st.none);
        run += median(st.run);
        decomposed += median(sums);
        cycle += median(st.cycle);
        observed += median(st.observed);
        cache += median(st.cache);
        cache_accesses += blocks.size();

        sum.executorInstrs += c.executorInstrs;
        sum.measured += c.measured;
        sum.accesses += c.accesses;
        sum.wrongPath += c.wrongPath;
        sum.mispredicts += c.mispredicts;
        sum.noneFetches += c.noneFetches;
        sum.noneMisses += c.noneMisses;
        sum.issued += c.issued;
        sum.fills += c.fills;
        sum.useful += c.useful;
        sum.cycles += c.cycles;
        sum.userInstrs += c.userInstrs;
        sum.fetchStall += c.fetchStall;
        sum.late += c.late;
        sum.cycleFills += c.cycleFills;
        sum.coverage += c.coverage;
    }

    const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    const double instrs =
        static_cast<double>(inputs.size()) * static_cast<double>(probeInstrs);
    const double kinstr = static_cast<double>(sum.measured) / 1e3;
    const double exec_ns = ratio(exec, instrs);
    const double pif_step_ns = ratio(pif, instrs);

    out.push_back({"trace.executor.ns_per_instr", exec_ns, "ns"});
    out.push_back({"trace.executor.instrs",
                   static_cast<double>(sum.executorInstrs), "count"});
    out.push_back({"core.frontend.ns_per_instr", ratio(none, instrs), "ns"});
    out.push_back({"core.frontend.wrong_path_frac",
                   ratio(static_cast<double>(sum.wrongPath),
                         static_cast<double>(sum.accesses + sum.wrongPath)),
                   "frac"});
    out.push_back({"core.frontend.mispredicts_per_kinstr",
                   ratio(static_cast<double>(sum.mispredicts), kinstr),
                   "1/kinstr"});
    out.push_back({"cache.l1i.ns_per_access",
                   ratio(cache, static_cast<double>(cache_accesses)), "ns"});
    out.push_back({"cache.l1i.miss_ratio",
                   ratio(static_cast<double>(sum.noneMisses),
                         static_cast<double>(sum.noneFetches)),
                   "frac"});
    out.push_back({"pif.ns_per_instr", ratio(pif - none, instrs), "ns"});
    out.push_back({"pif.issued_per_kinstr",
                   ratio(static_cast<double>(sum.issued), kinstr),
                   "1/kinstr"});
    out.push_back({"pif.useful_frac",
                   ratio(static_cast<double>(sum.useful),
                         static_cast<double>(sum.fills)),
                   "frac"});
    out.push_back({"pif.coverage",
                   ratio(sum.coverage, static_cast<double>(inputs.size())),
                   "frac"});
    out.push_back({"sim.trace_engine.ns_per_instr", ratio(run, instrs),
                   "ns"});
    out.push_back({"sim.trace_engine.residual_frac",
                   run > 0 ? 1.0 - decomposed / run : 0.0, "frac"});
    const double cycle_ns = ratio(cycle, instrs);
    out.push_back({"sim.cycle_engine.ns_per_instr", cycle_ns, "ns"});
    out.push_back({"sim.cycle_engine.extra_ns_per_instr",
                   cycle_ns - (exec_ns + pif_step_ns), "ns"});
    out.push_back({"sim.cycle_engine.uipc",
                   ratio(static_cast<double>(sum.userInstrs),
                         static_cast<double>(sum.cycles)),
                   "instr/cycle"});
    out.push_back({"sim.cycle_engine.fetch_stall_frac",
                   ratio(static_cast<double>(sum.fetchStall),
                         static_cast<double>(sum.cycles)),
                   "frac"});
    out.push_back({"sim.cycle_engine.late_prefetch_frac",
                   ratio(static_cast<double>(sum.late),
                         static_cast<double>(sum.cycleFills)),
                   "frac"});
    out.push_back({"query.observed_ns_per_instr", ratio(observed, instrs),
                   "ns"});
}

} // namespace simbench
