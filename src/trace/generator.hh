/**
 * @file
 * Synthetic server-workload generator.
 *
 * Builds Programs with the statistical properties the paper attributes
 * to commercial server software (Sections 1-3): multi-megabyte
 * instruction footprints spread over thousands of multi-block
 * functions, a hot transaction-dispatch loop, skewed (Zipf) function
 * popularity, shared-library calls that jump across the binary,
 * never-taken error-handling gaps inside functions, tight loops whose
 * bodies span a few cache blocks, data-dependent conditional branches,
 * and a set of compact interrupt-handler routines executed at trap
 * level 1.
 */

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "trace/program.hh"

namespace pifetch {

/**
 * Tunable knobs for workload synthesis.
 *
 * The six server presets (server_suite.hh) are instances of this
 * struct; every distribution drawn during generation is seeded from
 * @ref seed, so a given parameter set always yields the same Program.
 */
struct WorkloadParams
{
    /** Human-readable workload name ("OLTP DB2", ...). */
    std::string name = "generic";
    /** Master seed for program construction. */
    std::uint64_t seed = 1;

    /** Number of application functions. */
    unsigned appFunctions = 2000;
    /** Number of shared-library functions (hot, called from anywhere). */
    unsigned libFunctions = 200;
    /** Number of distinct interrupt-handler routines. */
    unsigned handlers = 12;

    /** Mean function size in 64B cache blocks. */
    double meanFnBlocks = 6.0;
    /** Hard cap on function size in blocks. */
    unsigned maxFnBlocks = 32;
    /** Mean handler size in blocks (handlers are compact). */
    double meanHandlerBlocks = 3.0;
    /** Mean basic-block length in instructions. */
    double meanBasicBlockInstrs = 6.0;

    /** Probability a basic block ends in a library-helper call. */
    double callDensity = 0.10;
    /**
     * Mean number of next-layer (application) call sites per
     * application function — the call-tree branching factor knob.
     * With biased branches occasionally skipping call blocks, the
     * executed branching factor is roughly 0.85x this value; values
     * near 1.8-2.2 yield transactions of tens of thousands of
     * instructions over ten layers.
     */
    double meanAppCalls = 1.9;
    /** Probability a basic block ends in a forward conditional branch. */
    double condDensity = 0.25;
    /** Probability a basic block ends in an unconditional jump. */
    double jumpDensity = 0.03;
    /**
     * Fraction of conditional branches that are strongly biased
     * (taken probability near 0 or 1); the remainder are data-dependent
     * with taken probability drawn from [dataDepLo, dataDepHi].
     */
    double biasedFraction = 0.85;
    double dataDepLo = 0.25;
    double dataDepHi = 0.75;

    /** Expected number of tight loops per function. */
    double loopsPerFunction = 0.6;
    /** Mean loop trip count (geometric). */
    double meanLoopIter = 8.0;

    /** Zipf exponent for callee popularity skew. */
    double zipfS = 0.75;
    /**
     * Application call-graph depth. Functions are assigned to layers;
     * call sites in layer l target layer l+1 (bottom-layer sites call
     * library code). This mirrors server request processing (dispatch
     * -> protocol -> business logic -> storage -> utility) and
     * guarantees acyclic, structurally repetitive transaction trees
     * whose instruction footprint scales with the branching factor.
     */
    unsigned callLayers = 10;

    /** Number of transaction types (dispatch targets). */
    unsigned transactions = 8;
    /** Per-instruction probability of a spontaneous interrupt. */
    double interruptRate = 2e-5;
    /** Call depth at which further calls are elided. */
    unsigned maxCallDepth = 24;
};

/**
 * The one table of WorkloadParams' 22 generator knobs, every field but
 * `name`: calls `fn(key, field)` for each, in document order. Spec
 * files' `params`, a scenario's `params` and their writers all loop
 * over it. @p p may be const.
 */
template <typename Params, typename Fn>
void
forEachWorkloadParam(Params &p, Fn &&fn)
{
    fn("seed", p.seed);
    fn("appFunctions", p.appFunctions);
    fn("libFunctions", p.libFunctions);
    fn("handlers", p.handlers);
    fn("meanFnBlocks", p.meanFnBlocks);
    fn("maxFnBlocks", p.maxFnBlocks);
    fn("meanHandlerBlocks", p.meanHandlerBlocks);
    fn("meanBasicBlockInstrs", p.meanBasicBlockInstrs);
    fn("callDensity", p.callDensity);
    fn("meanAppCalls", p.meanAppCalls);
    fn("condDensity", p.condDensity);
    fn("jumpDensity", p.jumpDensity);
    fn("biasedFraction", p.biasedFraction);
    fn("dataDepLo", p.dataDepLo);
    fn("dataDepHi", p.dataDepHi);
    fn("loopsPerFunction", p.loopsPerFunction);
    fn("meanLoopIter", p.meanLoopIter);
    fn("zipfS", p.zipfS);
    fn("callLayers", p.callLayers);
    fn("transactions", p.transactions);
    fn("interruptRate", p.interruptRate);
    fn("maxCallDepth", p.maxCallDepth);
}

/** The table's keys, in table order. */
const std::vector<std::string> &workloadParamKeys();

/**
 * Validate a WorkloadParams point against the generator's parameter
 * space: every probability in [0, 1], every mean/exponent finite and
 * inside the range the synthesis algorithms are defined over, and the
 * structural minima build() has always enforced (enough application
 * functions for the transaction mix, at least one handler, at least
 * two library functions).
 *
 * This is the single source of truth for "is this point simulable":
 * build() fails fast on the first violation, and the scenario fuzzer
 * (src/check/) only emits points this function accepts.
 *
 * @return nullopt when valid; otherwise a human-readable description
 *         of the first violated bound.
 */
std::optional<std::string>
validateWorkloadParams(const WorkloadParams &params);

/**
 * Builds a Program from WorkloadParams. Stateless; all randomness comes
 * from the params' seed.
 */
class WorkloadGenerator
{
  public:
    /** Generate and validate a program. */
    static Program build(const WorkloadParams &params);
};

} // namespace pifetch
