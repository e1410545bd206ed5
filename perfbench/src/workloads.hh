/**
 * @file
 * The benchmark's three workloads behind one closed-loop interface.
 *
 *  - repro:  all registry experiments in registry order on their
 *            default paper presets, at one fixed reduced budget,
 *            fanned over the worker pool.
 *  - replay: every workload-zoo spec through one TraceEngine with
 *            bounded PIF and one CycleEngine with PIF, each engine run
 *            on one thread, one copy of the job per lane.
 *  - fuzz:   runCheck over a fixed scenario-seed range on the pool.
 *
 * A workload materializes its inputs in setup(), proves its outputs
 * correct in gate() before anything is timed, and then runs pass()
 * back to back; each pass returns a digest of the simulated
 * statistics it produced, which must not change from pass to pass.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/results.hh"
#include "sim/system_config.hh"
#include "trace/executor.hh"
#include "trace/program.hh"
#include "tracer.hh"

namespace simbench {

/** Command-line options shared by every workload. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Lanes: min(4, nproc). */
    unsigned lanes = 1;
    /** Checkout root: tests/golden and workloads/ live under it. */
    std::string root = ".";
    /** Golden fixture directory (default <root>/tests/golden). */
    std::string goldenDir;
    /** Planted fault for the fuzz self-test ("" = none). */
    std::string fault;
    /** Source revision as run.py computed it (provenance only). */
    std::string sourceId = "unknown";
    /** repro budget in instructions; 0 measured keeps the benchmark's
     *  fixed budget (other budgets are for studying the mix). */
    std::uint64_t reproWarmup = 0;
    std::uint64_t reproMeasure = 0;
};

/** Correctness bookkeeping: operations attempted and failed. */
struct Checks
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> messages;  //!< first few failures

    /** Count one checked operation; record it when @p ok is false. */
    void expect(bool ok, const std::string &what);
};

/** One input of the engine-layer probes (see probes.hh). */
struct ProbeInput
{
    std::string key;
    std::shared_ptr<const pifetch::Program> program;
    pifetch::ExecutorConfig exec;
    pifetch::SystemConfig cfg;
};

/** A named per-layer number. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** One benchmark workload. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Lanes this workload runs on. */
    virtual unsigned lanes() const = 0;

    /**
     * Materialize the inputs (spec loading, Program generation and
     * linking, engine construction). Repeated before every pass and
     * timed as setup_s.
     */
    virtual void setup(Tracer *tracer) = 0;

    /** Correctness checks that run before any timing. */
    virtual void gate(Checks &checks) { (void)checks; }

    /** Untimed per-pass preparation (fresh engines, say). */
    virtual void prepare() {}

    /**
     * One timed closed-loop pass; checks its outputs into @p checks
     * and returns the digest of the simulated statistics it produced.
     */
    virtual std::uint64_t pass(Tracer *tracer, Checks &checks) = 0;

    /** Instructions the last pass retired, read from the engines'
     *  counters (0 when the workload cannot observe them). */
    virtual std::uint64_t passInstrs() const { return 0; }

    /** Inputs for the engine-layer probes of a traced run. */
    virtual std::vector<ProbeInput> probeInputs() const = 0;

    /**
     * Per-layer numbers only this workload's traced passes produce
     * (registry per-experiment spans, checker scenario spans), from
     * the spans recorded so far.
     */
    virtual void layerMetrics(const Tracer &tracer,
                              std::vector<Metric> &out) const = 0;

    /** Add workload-specific provenance (budgets, seed ranges). */
    virtual void describe(pifetch::ResultValue &out) const = 0;
};

/** Registry experiments the repro workload runs, in registry order. */
const std::vector<std::string> &reproExperiments();

/** Build the workload named in @p opts (nullptr when unknown). */
std::unique_ptr<Workload> makeWorkload(const Options &opts);

/** Median of @p v (0 for an empty vector). */
double median(std::vector<double> v);

/** The @p q-quantile (0..1, linear interpolation) of @p v. */
double quantile(std::vector<double> v, double q);

} // namespace simbench
