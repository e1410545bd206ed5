/**
 * @file
 * The perf kernel registry: the simulator's throughput-critical loops
 * as named, individually-runnable benchmarks.
 *
 * Each kernel isolates one layer of the replay stack:
 *
 *   trace-decode-soa    streamed trace decode into SoA record batches
 *                       (trace/trace_io)
 *   trace-replay        full functional engine with PIF attached
 *                       (executor -> front-end -> L1-I -> prefetcher)
 *   pif-train           PIF train+predict driven directly with a
 *                       pre-generated retire stream (src/pif hot path)
 *   cache-lookup        L1-I access / L2 fill loop (src/cache)
 *   fig10-multicore-t1  the Figure 10 multicore fan-out, 1 worker
 *   fig10-multicore-t2  ... 2 workers
 *   fig10-multicore-t4  ... 4 workers
 *
 * `pifetch perf` runs these under the warm-up/repeat protocol of
 * perf/harness.hh and emits the BENCH_*.json document consumed by
 * scripts/perf_compare.py (the CI perf-regression gate). See
 * docs/performance.md for the measurement protocol.
 */

#pragma once

#include <functional>
#include <string>
#include <vector>

#include "common/results.hh"
#include "perf/harness.hh"
#include "trace/server_suite.hh"

namespace pifetch {

/** Options for one `pifetch perf` invocation. */
struct PerfOptions
{
    /** Warm-up/repeat protocol applied to every kernel. */
    PerfProtocol protocol;

    /** Kernel names to run; empty means every registered kernel. */
    std::vector<std::string> kernels;

    /** Workload driving the kernels' instruction streams. */
    ServerWorkload workload = ServerWorkload::OltpDb2;

    /**
     * Multiplier on every kernel's per-repetition op count (> 0).
     * Timings scale with it; the op counts themselves stay a pure
     * function of (kernel, scale), which is what makes cross-build
     * ops/sec comparison meaningful.
     */
    double scale = 1.0;

    /** Master seed for the generated instruction streams. */
    std::uint64_t seed = 42;
};

/** One registered perf kernel. */
struct PerfKernelSpec
{
    std::string name;         //!< registry key, e.g. "trace-replay"
    std::string description;  //!< one line for `pifetch perf --list`
    std::function<KernelTiming(const PerfOptions &)> run;
};

/** All registered kernels, in presentation order. */
const std::vector<PerfKernelSpec> &perfKernels();

/** Look up a kernel by name (nullptr when absent). */
const PerfKernelSpec *findPerfKernel(const std::string &name);

/**
 * Run the selected kernels and wrap the timings in the standard
 * experiment-document convention:
 * {
 *   "experiment": "perf",
 *   "meta":    { git, reps, warmup_reps, scale, workload, seed },
 *   "kernels": [ <toResult(KernelTiming)>... ],
 *   "tables":  [ one human-readable throughput table ]
 * }
 * The document renders through renderText/toJson/toCsv like any other
 * experiment result; `pifetch perf --json` writes it verbatim.
 */
ResultValue runPerfSuite(const PerfOptions &opts);

} // namespace pifetch
