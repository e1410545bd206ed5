/**
 * @file
 * Multi-core runner implementation.
 */

#include "sim/multicore.hh"

#include "common/parallel.hh"

namespace pifetch {

double
MulticoreTraceResult::meanMissRatio() const
{
    if (perCore.empty())
        return 0.0;
    double sum = 0.0;
    for (const TraceRunResult &r : perCore)
        sum += r.missRatio();
    return sum / static_cast<double>(perCore.size());
}

double
MulticoreTraceResult::meanPifCoverage() const
{
    if (perCore.empty())
        return 0.0;
    double sum = 0.0;
    for (const TraceRunResult &r : perCore)
        sum += r.pifCoverage;
    return sum / static_cast<double>(perCore.size());
}

std::uint64_t
MulticoreTraceResult::totalMisses() const
{
    std::uint64_t sum = 0;
    for (const TraceRunResult &r : perCore)
        sum += r.misses;
    return sum;
}

double
MulticoreCycleResult::meanUipc() const
{
    if (perCore.empty())
        return 0.0;
    double sum = 0.0;
    for (const CycleRunResult &r : perCore)
        sum += r.uipc;
    return sum / static_cast<double>(perCore.size());
}

InstCount
MulticoreCycleResult::totalUserInstrs() const
{
    InstCount sum = 0;
    for (const CycleRunResult &r : perCore)
        sum += r.userInstrs;
    return sum;
}

MulticoreTraceResult
runMulticoreTrace(const WorkloadRef &w, PrefetcherKind kind, unsigned cores,
                  InstCount warmup, InstCount measure,
                  const SystemConfig &cfg)
{
    MulticoreTraceResult out;
    out.perCore.resize(cores);
    // Cores are fully independent simulations: every task constructs
    // its own Program, SystemConfig, executor and prefetcher, shares
    // nothing mutable, and writes only its own result slot — so the
    // output is bit-identical to the serial loop at any thread count.
    parallelFor(cfg.threads, cores, [&](std::uint64_t core) {
        // Each core executes its own instance of the workload: same
        // program, different transaction interleaving and interrupt
        // arrivals (seed offset), exactly like distinct server threads.
        const Program prog = w.buildProgram(core);
        SystemConfig core_cfg = cfg;
        core_cfg.seed = cfg.seed + core * 7919;
        TraceEngine engine(core_cfg, prog,
                           w.executorConfig(core, core),
                           makePrefetcher(kind, core_cfg));
        out.perCore[core] = engine.run(warmup, measure);
    });
    return out;
}

namespace {

/**
 * Interleave @p engines in round-robin chunks for @p total
 * instructions each, emulating concurrent cores sharing predictor
 * state.
 */
void
interleave(std::vector<std::unique_ptr<TraceEngine>> &engines,
           InstCount total)
{
    constexpr InstCount chunk = 10'000;
    InstCount done = 0;
    while (done < total) {
        const InstCount step = std::min(chunk, total - done);
        for (auto &engine : engines)
            engine->advance(step);
        done += step;
    }
}

/** Mean correct-path miss ratio across engines from counter deltas. */
double
meanMissRatioSince(const std::vector<std::unique_ptr<TraceEngine>> &eng,
                   const std::vector<std::uint64_t> &acc0,
                   const std::vector<std::uint64_t> &miss0)
{
    double sum = 0.0;
    for (std::size_t c = 0; c < eng.size(); ++c) {
        const double acc = static_cast<double>(
            eng[c]->frontend().correctPathFetches() - acc0[c]);
        const double miss = static_cast<double>(
            eng[c]->frontend().correctPathMisses() - miss0[c]);
        sum += acc > 0.0 ? miss / acc : 0.0;
    }
    return sum / static_cast<double>(eng.size());
}

} // namespace

SharedPifStudyResult
runSharedPifStudy(const WorkloadRef &w, const Program &prog,
                  unsigned cores, std::uint64_t total_history_regions,
                  bool shared, InstCount warmup, InstCount measure,
                  const SystemConfig &cfg)
{
    // All cores execute the SAME binary (distinct interleavings), as
    // on a real server; otherwise cross-core sharing cannot help.
    SystemConfig run_cfg = cfg;
    run_cfg.pif.historyRegions =
        shared ? total_history_regions
               : std::max<std::uint64_t>(total_history_regions / cores,
                                         256);

    std::shared_ptr<SharedPifStorage> storage;
    if (shared)
        storage = std::make_shared<SharedPifStorage>(run_cfg.pif);

    std::vector<std::unique_ptr<TraceEngine>> engines;
    std::vector<Prefetcher *> prefetchers;
    for (unsigned core = 0; core < cores; ++core) {
        std::unique_ptr<Prefetcher> pf;
        if (shared) {
            pf = std::make_unique<SharedPifPrefetcher>(storage);
        } else {
            pf = std::make_unique<PifPrefetcher>(run_cfg.pif);
        }
        prefetchers.push_back(pf.get());
        SystemConfig core_cfg = run_cfg;
        core_cfg.seed = run_cfg.seed + core * 7919;
        engines.push_back(std::make_unique<TraceEngine>(
            core_cfg, prog, w.executorConfig(0, core + 1),
            std::move(pf)));
    }

    interleave(engines, warmup);
    std::vector<std::uint64_t> acc0(cores);
    std::vector<std::uint64_t> miss0(cores);
    for (unsigned c = 0; c < cores; ++c) {
        acc0[c] = engines[c]->frontend().correctPathFetches();
        miss0[c] = engines[c]->frontend().correctPathMisses();
        prefetchers[c]->resetStats();
    }
    interleave(engines, measure);

    SharedPifStudyResult out;
    out.missRatio = meanMissRatioSince(engines, acc0, miss0);
    for (Prefetcher *pf : prefetchers) {
        out.coverage += shared
            ? static_cast<SharedPifPrefetcher *>(pf)->coverage()
            : static_cast<PifPrefetcher *>(pf)->coverage();
    }
    out.coverage /= cores;
    return out;
}

MulticoreCycleResult
runMulticoreCycle(const WorkloadRef &w, PrefetcherKind kind, unsigned cores,
                  InstCount warmup, InstCount measure,
                  const SystemConfig &cfg)
{
    MulticoreCycleResult out;
    out.perCore.resize(cores);
    // Same isolation argument as runMulticoreTrace: per-task
    // construction, disjoint result slots, deterministic output.
    parallelFor(cfg.threads, cores, [&](std::uint64_t core) {
        const Program prog = w.buildProgram(core);
        SystemConfig core_cfg = cfg;
        core_cfg.seed = cfg.seed + core * 7919;
        CycleEngine engine(core_cfg, prog,
                           w.executorConfig(core, core),
                           kind);
        out.perCore[core] = engine.run(warmup, measure);
    });
    return out;
}

} // namespace pifetch
