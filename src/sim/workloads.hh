/**
 * @file
 * Workload construction helpers shared by engines, experiments and
 * tests.
 *
 * WorkloadRef is the uniform workload handle of the experiment layer:
 * either a server preset (ServerWorkload) or a lowered declarative
 * spec (trace/workload_spec.hh). Presets convert implicitly, so
 * call sites written against the preset enum keep compiling; the
 * registry, CLI and checker pass specs through the same interface.
 */

#pragma once

#include <memory>
#include <string>

#include "trace/executor.hh"
#include "trace/program.hh"
#include "trace/server_suite.hh"
#include "trace/workload_spec.hh"

namespace pifetch {

/** Build (and validate) the Program for a server workload. */
Program buildWorkloadProgram(ServerWorkload w,
                             std::uint64_t seed_offset = 0);

/** Executor configuration matching a workload's parameters. */
ExecutorConfig executorConfigFor(const WorkloadParams &params,
                                 std::uint64_t seed_offset = 0);

/** Convenience: executor config for a workload preset. */
ExecutorConfig executorConfigFor(ServerWorkload w,
                                 std::uint64_t seed_offset = 0);

/**
 * Executor configuration for a lowered spec: seed folded from program
 * 0's params exactly like the preset path, plus the root spans and
 * phase schedule driving the executor's two-level dispatch.
 *
 * @param params_offset seed offset applied to the program params
 *                      (per-core program variation).
 * @param exec_offset   seed offset applied to the executor seed
 *                      (per-core interleaving variation).
 */
ExecutorConfig executorConfigFor(const LoweredWorkload &lw,
                                 std::uint64_t params_offset = 0,
                                 std::uint64_t exec_offset = 0);

/**
 * A workload handle: server preset or lowered declarative spec.
 *
 * Cheap to copy (specs are shared), implicitly constructible from
 * ServerWorkload.
 */
class WorkloadRef
{
  public:
    WorkloadRef() = default;
    WorkloadRef(ServerWorkload w) : preset_(w) {}
    WorkloadRef(std::shared_ptr<const LoweredWorkload> spec)
        : spec_(std::move(spec))
    {}

    /** True when this handle wraps a spec rather than a preset. */
    bool isSpec() const { return spec_ != nullptr; }

    /** The wrapped preset; only meaningful when !isSpec(). */
    ServerWorkload preset() const { return preset_; }

    /** The wrapped spec; null for presets. */
    const std::shared_ptr<const LoweredWorkload> &lowered() const
    {
        return spec_;
    }

    /** Stable key ("db2", or the spec's slug). */
    std::string key() const;

    /** Display name ("OLTP DB2", or the spec's title). */
    std::string name() const;

    /** Reporting group ("OLTP"/"DSS"/"Web", or the spec's group). */
    std::string group() const;

    /**
     * Generator parameters (program 0 for specs) with the preset-style
     * seed fold for @p seed_offset.
     */
    WorkloadParams params(std::uint64_t seed_offset = 0) const;

    /** Build and validate the (linked) Program. */
    Program buildProgram(std::uint64_t seed_offset = 0) const;

    /** Executor config with separate params/executor seed offsets. */
    ExecutorConfig executorConfig(std::uint64_t params_offset,
                                  std::uint64_t exec_offset) const;

    /** Executor config with both offsets equal (common case). */
    ExecutorConfig
    executorConfig(std::uint64_t seed_offset = 0) const
    {
        return executorConfig(std::uint64_t{0}, seed_offset);
    }

  private:
    ServerWorkload preset_ = ServerWorkload::OltpDb2;
    std::shared_ptr<const LoweredWorkload> spec_;
};

/** Wrap a validated spec as a WorkloadRef (shared, immutable). */
WorkloadRef workloadRefFromSpec(WorkloadSpec spec);

} // namespace pifetch
