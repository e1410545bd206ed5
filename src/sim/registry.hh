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

#include <functional>
#include <optional>
#include <string>
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

/** Key system-configuration parameters as a result object. */
ResultValue configToResult(const SystemConfig &cfg);

/**
 * Apply a `key=value` configuration override ("pif.historyRegions",
 * "nextLine.degree", "seed", ...). Returns false on an unknown key, an
 * unparsable value or one wider than its field. It does not bound the
 * result; run validateSystemConfig() once all overrides are applied.
 * configOverrideKeys() lists the supported keys.
 */
bool applyConfigOverride(SystemConfig &cfg, const std::string &key,
                         const std::string &value);

/** The override keys applyConfigOverride understands. */
const std::vector<std::string> &configOverrideKeys();

/**
 * Strict non-negative integer parse (base 0: decimal/hex/octal).
 * Rejects negatives outright — strtoull would wrap them to huge
 * values, turning a typo like "-1" into 1.8e19 instructions. Shared
 * by the config overrides and the CLI's numeric options.
 */
bool parseU64Value(const std::string &s, std::uint64_t &out);

/** `git describe` of the build, or "unknown" outside a git checkout. */
std::string gitDescribe();

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
