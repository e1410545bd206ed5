/**
 * @file
 * Multi-core measurement runner.
 *
 * The paper simulates a 16-core CMP and reports results "averaged
 * across the 16 simulated cores", with each core owning completely
 * independent dedicated predictor hardware (Section 4). This runner
 * reproduces that methodology: it instantiates N per-core engines,
 * each executing its own instance of the workload (distinct seeds, so
 * cores run different transaction interleavings of the same program
 * mix), and aggregates per-core results. Inter-core interaction is
 * folded into the shared-L2 latency model (DESIGN.md substitution #3).
 */

#pragma once

#include <vector>

#include "pif/shared_pif.hh"
#include "sim/cycle_engine.hh"
#include "sim/trace_engine.hh"
#include "sim/workloads.hh"

namespace pifetch {

/** Aggregated multi-core functional results. */
struct MulticoreTraceResult
{
    /** Per-core results, in core order. */
    std::vector<TraceRunResult> perCore;

    /** Mean correct-path miss ratio across cores. */
    double meanMissRatio() const;

    /** Mean PIF coverage across cores (0 unless PIF was attached). */
    double meanPifCoverage() const;

    /** Total correct-path misses across cores. */
    std::uint64_t totalMisses() const;
};

/** Aggregated multi-core timed results. */
struct MulticoreCycleResult
{
    std::vector<CycleRunResult> perCore;

    /** Mean UIPC across cores (the paper's throughput proxy). */
    double meanUipc() const;

    /** Total user instructions committed across cores. */
    InstCount totalUserInstrs() const;
};

/**
 * Run the functional engine on @p cores instances of a workload.
 *
 * @param kind Prefetcher attached to every core (independent copies).
 */
MulticoreTraceResult
runMulticoreTrace(const WorkloadRef &w, PrefetcherKind kind, unsigned cores,
                  InstCount warmup, InstCount measure,
                  const SystemConfig &cfg = SystemConfig{});

/** Run the cycle engine on @p cores instances of a workload. */
MulticoreCycleResult
runMulticoreCycle(const WorkloadRef &w, PrefetcherKind kind, unsigned cores,
                  InstCount warmup, InstCount measure,
                  const SystemConfig &cfg = SystemConfig{});

/** One arm of the shared-vs-private PIF storage study (Section 4's
 * deferred optimization). */
struct SharedPifStudyResult
{
    /** Mean correct-path miss ratio across cores. */
    double missRatio = 0.0;
    /** Mean PIF coverage across cores. */
    double coverage = 0.0;
};

/**
 * Record the front end of core @p core of the shared-storage study on
 * @p prog, the caller-built program of @p w: every core executes the
 * same binary, with its own interleaving and seeds, as on a real
 * server. One recording per core serves every arm of
 * runSharedPifStudy.
 */
FrontRecording
recordSharedPifCore(const WorkloadRef &w, const Program &prog,
                    unsigned core, InstCount warmup, InstCount measure,
                    const SystemConfig &cfg = SystemConfig{});

/**
 * Interleave one engine per recording of @p cores (core c's made by
 * recordSharedPifCore with the same @p cfg) in 10K-instruction
 * chunks over their warm-up and measure segments. PIF history totals
 * @p total_history_regions: one shared pool when @p shared, else a
 * dedicated total/cores pool (at least 256 regions) per core. Compare
 * the two arms at equal @p total_history_regions.
 */
SharedPifStudyResult
runSharedPifStudy(const std::vector<FrontRecording> &cores,
                  std::uint64_t total_history_regions, bool shared,
                  const SystemConfig &cfg = SystemConfig{});

} // namespace pifetch
