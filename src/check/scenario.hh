/**
 * @file
 * Fuzzable simulation scenarios.
 *
 * A Scenario is one fully-specified point of the simulator's input
 * space: a WorkloadParams vector (the synthetic program), a
 * SystemConfig (cache geometry, PIF sizing, seeds), a prefetcher kind,
 * an instruction budget and the fan-out shape for the thread
 * differential. The six server presets are six such points; the
 * scenario fuzzer (checker.hh) generates unboundedly many more, each
 * derived deterministically from a single 64-bit seed so any failure
 * is replayable from the seed alone.
 *
 * Scenarios serialize to/from the ResultValue JSON model so a failing
 * (and shrunk) scenario ships as a self-contained repro artifact:
 * `pifetch check --replay repro.json` re-executes it bit-identically.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "common/config.hh"
#include "common/results.hh"
#include "sim/system_config.hh"
#include "trace/generator.hh"
#include "trace/workload_spec.hh"

namespace pifetch {

/** One point of the simulator's input space. */
struct Scenario
{
    /** Fuzz seed this scenario was derived from (0 = hand-built). */
    std::uint64_t seed = 0;

    /** Synthetic-workload parameters (validated, not preset-bound). */
    WorkloadParams params;

    /**
     * Declarative workload spec driving the engines instead of
     * `params` when set (spec-mode scenarios; the fuzzer emits these
     * for a fifth of its seeds). Shared so copying a Scenario stays
     * cheap; the shrinker clones before mutating (copy-on-write).
     */
    std::shared_ptr<const WorkloadSpec> spec;

    /** System configuration (cache geometry, PIF sizing, seeds). */
    SystemConfig cfg;

    /** Prefetcher attached to the engines under test. */
    PrefetcherKind kind = PrefetcherKind::Pif;

    /** Instruction budget for each engine run. */
    InstCount warmup = 10'000;
    InstCount measure = 30'000;

    /** Worker lanes for the threads-1-vs-N differential. */
    unsigned threads = 2;

    /** Independent engines in the multicore differential. */
    unsigned cores = 2;
};

/**
 * Derive a randomized-but-valid scenario from @p seed. Deterministic:
 * the same seed always yields the identical scenario, and every
 * emitted point satisfies validateScenario().
 */
Scenario scenarioFromSeed(std::uint64_t seed);

/**
 * Check a scenario against the simulable parameter space: workload
 * bounds (validateWorkloadParams), the system config
 * (validateSystemConfig), PIF sizing minima and a sane instruction
 * budget. Returns nullopt when valid, else a description of the first
 * violation.
 */
std::optional<std::string> validateScenario(const Scenario &sc);

/** Serialize a scenario (full fidelity round trip). */
ResultValue toResult(const Scenario &sc);

/**
 * Parse a scenario serialized by toResult(). Also accepts a failure
 * document wrapping one (prefers its "shrunk", then its "scenario"
 * member). Returns nullopt and sets @p err on malformed input.
 */
std::optional<Scenario> scenarioFromResult(const ResultValue &v,
                                           std::string *err = nullptr);

/** Stable CLI/JSON token for a prefetcher kind ("pif", "nextline"...). */
std::string prefetcherKey(PrefetcherKind kind);

/** Parse a prefetcherKey() token (exact match; nullopt otherwise). */
std::optional<PrefetcherKind> prefetcherFromKey(const std::string &s);

} // namespace pifetch
