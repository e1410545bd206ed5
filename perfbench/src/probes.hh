/**
 * @file
 * Engine-layer probes of a traced run.
 *
 * Each probe input (a workload's own programs) is replayed several
 * ways, all on the one retire stream its Executor produces:
 *
 *  - composite:  TraceEngine::run with bounded PIF, timed whole;
 *  - decomposed: Executor::nextBatch (lean, as the unobserved replay
 *    loop decodes) and TraceEngine::replayBatch with PIF, each batch
 *    in its own span, and again with PrefetcherKind::None;
 *  - CycleEngine::run with PIF;
 *  - TraceEngine::run with digests and the event store attached, as
 *    runScenario attaches them;
 *  - Cache::access alone over the stream's correct-path block changes.
 *
 * Stage costs come from the decomposed spans (executor, front end with
 * None, PIF as the PIF-minus-None difference), and the composite run
 * checks that they add up: residual_frac = 1 - span sum / composite.
 */

#pragma once

#include <vector>

#include "tracer.hh"
#include "workloads.hh"

namespace simbench {

/** Run every probe on @p inputs and append the per-layer metrics. */
void runProbes(const std::vector<ProbeInput> &inputs, Tracer &tracer,
               std::vector<Metric> &out);

} // namespace simbench
