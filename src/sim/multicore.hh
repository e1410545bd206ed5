/**
 * @file
 * Multi-core building blocks and the shared-storage PIF study.
 *
 * The paper simulates a 16-core CMP in which each core owns
 * completely independent dedicated predictor hardware (Section 4),
 * and notes that the cores could share predictor storage instead.
 * Every simulated core of a workload runs its own instance of it
 * (coreConfig: distinct seeds, so cores run different transaction
 * interleavings of the same program mix). Cores that share PIF
 * storage advance in round-robin chunks (interleave), which is how
 * runSharedPifStudy compares shared against private history at equal
 * total capacity. Inter-core interaction is otherwise folded into the
 * shared-L2 latency model.
 */

#pragma once

#include <memory>
#include <vector>

#include "sim/trace_engine.hh"
#include "sim/workloads.hh"

namespace pifetch {

/** Core @p core's configuration: @p cfg with the core's seed. */
SystemConfig coreConfig(const SystemConfig &cfg, unsigned core);

/**
 * Advance every engine of @p engines by @p total instructions, in
 * round-robin chunks of @p chunk, emulating concurrent cores that
 * share predictor state.
 */
void interleave(std::vector<std::unique_ptr<TraceEngine>> &engines,
                InstCount total, InstCount chunk);

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
 * @p total_history_regions: one store shared by every core when
 * @p shared, else a dedicated total/cores store (at least 256
 * regions) per core. Compare the two arms at equal
 * @p total_history_regions.
 */
SharedPifStudyResult
runSharedPifStudy(const std::vector<FrontRecording> &cores,
                  std::uint64_t total_history_regions, bool shared,
                  const SystemConfig &cfg = SystemConfig{});

} // namespace pifetch
