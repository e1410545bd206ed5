/**
 * @file
 * OLTP deep-dive: the workload class the paper's introduction motivates.
 *
 * Runs both OLTP workloads (TPC-C on DB2 and Oracle) through the
 * functional engine with each prefetcher, then through the cycle-level
 * engine, reporting miss elimination and UIPC speedups side by side —
 * a miniature of the paper's Section 5.5/5.6 story.
 */

#include <chrono>
#include <cstdio>
#include <vector>

#include "common/parallel.hh"
#include "sim/cycle_engine.hh"
#include "sim/experiment.hh"
#include "sim/multicore.hh"
#include "sim/workloads.hh"

using namespace pifetch;

int
main()
{
    // threads == 0 resolves to PIFETCH_THREADS or the hardware count;
    // every simulated core runs on its own worker with identical
    // results at any thread count.
    const SystemConfig cfg;
    std::printf("host worker threads: %u "
                "(override with PIFETCH_THREADS)\n\n",
                resolveThreads(cfg.threads));
    ExperimentBudget budget;
    budget.warmup = 1'000'000;
    budget.measure = 4'000'000;

    const std::vector<ServerWorkload> oltp = {
        ServerWorkload::OltpDb2,
        ServerWorkload::OltpOracle,
    };

    for (ServerWorkload w : oltp) {
        std::printf("=== OLTP %s ===\n", workloadName(w).c_str());

        // The workload's front end is recorded once; every engine run
        // replays only its back stage from that read-only recording,
        // so all nine run as one task list on the pool.
        const FrontRecording rec = recordWorkload(w, budget, cfg);
        constexpr std::size_t nc = std::size(fig10CoverageKinds);
        constexpr std::size_t ns = std::size(fig10SpeedupKinds);
        std::uint64_t misses[nc] = {};
        double uipc[ns] = {};
        parallelFor(cfg.threads, nc + ns, [&](std::uint64_t i) {
            if (i < nc) {
                misses[i] = runFig10Coverage(rec, fig10CoverageKinds[i],
                                             cfg);
            } else {
                uipc[i - nc] = runFig10Speedup(
                    rec, fig10SpeedupKinds[i - nc], cfg);
            }
        });

        std::printf("  baseline L1-I misses: %llu\n",
                    static_cast<unsigned long long>(misses[0]));
        for (std::size_t k = 1; k < nc; ++k) {
            std::printf("  %-12s miss coverage %6.2f%%  (%llu left)\n",
                        prefetcherName(fig10CoverageKinds[k]).c_str(),
                        100.0 * missCoverage(misses[0], misses[k]),
                        static_cast<unsigned long long>(misses[k]));
        }
        for (std::size_t k = 0; k < ns; ++k) {
            std::printf("  %-12s UIPC %.4f  speedup %.3fx\n",
                        prefetcherName(fig10SpeedupKinds[k]).c_str(),
                        uipc[k], uipc[0] > 0.0 ? uipc[k] / uipc[0] : 0.0);
        }
        std::printf("\n");
    }

    // The paper's actual methodology: a 16-core CMP, results averaged
    // across the cores. Each core is an independent engine, so the
    // multicore runner spreads them over the worker pool.
    std::printf("=== 16-core CMP (PIF, DB2), parallel runner ===\n");
    // lint:allow(D-clock): demo prints wall-clock speed, not results
    const auto t0 = std::chrono::steady_clock::now();
    const auto mc = runMulticoreTrace(ServerWorkload::OltpDb2,
                                      PrefetcherKind::Pif,
                                      cfg.numCores, 250'000, 1'000'000,
                                      cfg);
    const double ms = std::chrono::duration<double, std::milli>(
        // lint:allow(D-clock): demo prints wall-clock speed, not results
        std::chrono::steady_clock::now() - t0).count();
    std::printf("  mean miss ratio %.4f, mean PIF coverage %.2f%%, "
                "%llu total misses\n",
                mc.meanMissRatio(), 100.0 * mc.meanPifCoverage(),
                static_cast<unsigned long long>(mc.totalMisses()));
    std::printf("  %u cores on %u threads in %.0f ms\n",
                cfg.numCores, resolveThreads(cfg.threads), ms);
    return 0;
}
