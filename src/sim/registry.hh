/**
 * @file
 * The experiment registry: every figure/table of the paper's
 * evaluation as a named, uniformly-invocable entry.
 *
 * Each ExperimentSpec couples a name, a description, a default
 * workload set and instruction budget, and a runner that produces a
 * structured ResultValue document (see common/results.hh). The
 * `pifetch` CLI and the golden-snapshot regression suite both go
 * through this table, so a new scenario is a registry entry instead
 * of a new binary.
 *
 * Result document convention:
 * {
 *   "experiment":  "<name>",
 *   "description": "<one line>",
 *   "meta":        { seed, warmup, measure, threads, git, config },
 *   "tables":      [ { "title", "columns": [...], "rows": [[...]] } ],
 *   "notes":       [ "paper shape: ..." ]
 * }
 *
 * Golden mode pins `meta` to {mode, seed, warmup, measure} only (no
 * git describe, no resolved thread count), because fixtures must be
 * byte-identical across checkouts and PIFETCH_THREADS settings.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/results.hh"
#include "sim/experiment.hh"
#include "sim/workloads.hh"

namespace pifetch {

/** Options for one registry invocation. */
struct RunOptions
{
    /** Workloads to evaluate; empty means the spec's default set.
     *  Presets convert implicitly; spec-file workloads arrive as
     *  WorkloadRef wrappers (see workloadRefFromSpec). */
    std::vector<WorkloadRef> workloads;

    /**
     * Instruction budget override. Analysis-only studies (Fig. 3, 7,
     * 8-left, 9-left) interpret `measure` as their single-pass count
     * and ignore `warmup`.
     */
    std::optional<ExperimentBudget> budget;

    /** System configuration (seed, PIF geometry, threads knob...). */
    SystemConfig cfg;
};

/** One registered experiment. */
struct ExperimentSpec
{
    std::string name;         //!< registry key, e.g. "fig10-coverage"
    std::string description;  //!< one-line summary for `pifetch list`
    std::string paperShape;   //!< expected qualitative trend (a note)
    std::vector<WorkloadRef> defaultWorkloads;
    ExperimentBudget defaultBudget;

    /** Produce the document body ("tables", optionally extra keys). */
    std::function<ResultValue(const ExperimentSpec &,
                              const RunOptions &)> run;

    /**
     * Whether the runner consumes RunOptions.cfg. Analysis-only
     * studies (Fig. 3, 7, 8-left, 9-left) take just a workload and an
     * instruction count; their meta omits seed/config so the JSON
     * artifact never claims settings that had no effect.
     */
    bool usesConfig = true;
};

/** The full registry, in the paper's presentation order. */
const std::vector<ExperimentSpec> &experimentRegistry();

/** Look up a spec by name (nullptr when absent). */
const ExperimentSpec *findExperiment(const std::string &name);

/**
 * Run @p spec with @p opts and wrap the body in the full document
 * (experiment, description, meta, tables, notes).
 */
ResultValue runExperiment(const ExperimentSpec &spec,
                          const RunOptions &opts);

/** `git describe` of the build, or "unknown" outside a git checkout. */
std::string gitDescribe();

// ------------------------------------------------------ parameter sweeps

/** One sweep axis: a config-table key and its value list. */
struct SweepAxis
{
    std::string key;
    std::vector<std::string> values;
};

/** Total grid points (product of the axis sizes; 0 without axes). */
std::uint64_t sweepPointCount(const std::vector<SweepAxis> &axes);

/**
 * Parameter assignment of grid point @p p: one (key, value) pair per
 * axis, first axis outermost, last axis fastest. @p p must be
 * < sweepPointCount(@p axes).
 */
std::vector<std::pair<std::string, std::string>>
sweepPointParams(const std::vector<SweepAxis> &axes, std::uint64_t p);

/**
 * Check a sweep grid against @p base, the configuration every point
 * starts from: no key given twice (the later override would win under
 * both labels); every value must apply to its key; every point's
 * configuration must pass validateSystemConfig(); at most 2^20
 * points. Returns nullopt when valid, else the first problem.
 */
std::optional<std::string>
validateSweepGrid(const std::vector<SweepAxis> &axes,
                  const SystemConfig &base);

/**
 * Run every point of a grid validateSweepGrid() accepted: @p base plus
 * the point's overrides, each point on one thread, the points fanned
 * over `base.cfg.threads` lanes. Returns
 * {"experiment", "sweep": true, "points", "runs": [{"params",
 * "result"}]}, the same bytes at any thread count.
 */
ResultValue runSweep(const ExperimentSpec &spec, const RunOptions &base,
                     const std::vector<SweepAxis> &axes);

// ------------------------------------------------- golden snapshots

/** One entry of the golden-snapshot suite (tests/golden/<name>.json). */
struct GoldenEntry
{
    std::string experiment;  //!< registry key
    RunOptions options;      //!< pinned small-budget options
    /**
     * Fixture base name (tests/golden/<fixture>.json). Empty falls
     * back to the experiment name; entries sharing an experiment
     * (e.g. a zoo-spec variant) must set a distinct fixture.
     */
    std::string fixture;
};

/** The experiments locked by the golden regression suite. */
const std::vector<GoldenEntry> &goldenSuite();

/** Fixture base name of an entry (fixture, or the experiment name). */
std::string goldenFixtureName(const GoldenEntry &entry);

/**
 * Canonical fixture serialization of one golden entry: the document
 * with pinned metadata, 2-space-indented JSON, trailing newline.
 * @p threads overrides the entry's SystemConfig::threads (results
 * must be identical for any value; the suite checks 1 and 4).
 */
std::string goldenJson(const GoldenEntry &entry, unsigned threads = 0);

} // namespace pifetch
