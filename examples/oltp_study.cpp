/**
 * @file
 * OLTP deep-dive: the workload class the paper's introduction motivates.
 *
 * Runs both OLTP workloads (TPC-C on DB2 and Oracle) through the
 * functional engine with each prefetcher, then through the cycle-level
 * engine, reporting miss elimination and UIPC speedups side by side —
 * a miniature of the paper's Section 5.5/5.6 story.
 */

#include <cstdio>
#include <vector>

#include "common/parallel.hh"
#include "sim/cycle_engine.hh"
#include "sim/experiment.hh"
#include "sim/workloads.hh"

using namespace pifetch;

int
main()
{
    // threads == 0 resolves to PIFETCH_THREADS or the hardware count;
    // each engine run is one pool task, with identical results at any
    // thread count.
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

    return 0;
}
