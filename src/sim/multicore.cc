/**
 * @file
 * Multi-core helpers and the shared-storage PIF study.
 */

#include "sim/multicore.hh"

#include <algorithm>

#include "pif/pif_prefetcher.hh"

namespace pifetch {

SystemConfig
coreConfig(const SystemConfig &cfg, unsigned core)
{
    SystemConfig core_cfg = cfg;
    core_cfg.seed = cfg.seed + core * 7919;
    return core_cfg;
}

void
interleave(std::vector<std::unique_ptr<TraceEngine>> &engines,
           InstCount total, InstCount chunk)
{
    InstCount done = 0;
    while (done < total) {
        const InstCount step = std::min(chunk, total - done);
        for (auto &engine : engines)
            engine->advance(step);
        done += step;
    }
}

namespace {

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

FrontRecording
recordSharedPifCore(const WorkloadRef &w, const Program &prog,
                    unsigned core, InstCount warmup, InstCount measure,
                    const SystemConfig &cfg)
{
    return FrontRecording(coreConfig(cfg, core), prog,
                          w.executorConfig(0, core + 1), warmup, measure);
}

SharedPifStudyResult
runSharedPifStudy(const std::vector<FrontRecording> &cores,
                  std::uint64_t total_history_regions, bool shared,
                  const SystemConfig &cfg)
{
    const auto n = static_cast<unsigned>(cores.size());
    SystemConfig run_cfg = cfg;
    run_cfg.pif.historyRegions =
        shared ? total_history_regions
               : std::max<std::uint64_t>(total_history_regions / n, 256);

    std::shared_ptr<PifHistoryStore> store;
    if (shared)
        store = std::make_shared<PifHistoryStore>(run_cfg.pif);

    std::vector<std::unique_ptr<TraceEngine>> engines;
    std::vector<PifPrefetcher *> prefetchers;
    for (unsigned core = 0; core < n; ++core) {
        auto pf = shared ? std::make_unique<PifPrefetcher>(store)
                         : std::make_unique<PifPrefetcher>(run_cfg.pif);
        prefetchers.push_back(pf.get());
        engines.push_back(std::make_unique<TraceEngine>(
            coreConfig(run_cfg, core), cores[core], std::move(pf)));
    }

    constexpr InstCount chunk = 10'000;
    interleave(engines, cores.front().warmup(), chunk);
    std::vector<std::uint64_t> acc0(n);
    std::vector<std::uint64_t> miss0(n);
    for (unsigned c = 0; c < n; ++c) {
        acc0[c] = engines[c]->frontend().correctPathFetches();
        miss0[c] = engines[c]->frontend().correctPathMisses();
        prefetchers[c]->resetStats();
    }
    interleave(engines, cores.front().measure(), chunk);

    SharedPifStudyResult out;
    out.missRatio = meanMissRatioSince(engines, acc0, miss0);
    for (const PifPrefetcher *pf : prefetchers)
        out.coverage += pf->coverage();
    out.coverage /= n;
    return out;
}

} // namespace pifetch
