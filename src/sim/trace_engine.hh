/**
 * @file
 * Functional trace-driven simulation engine.
 *
 * Drives the executor -> front-end -> L1-I -> prefetcher pipeline with
 * no timing: prefetch fills are instantaneous, so results measure pure
 * predictor quality (coverage, accuracy, over-prediction) exactly like
 * the paper's trace-based studies (Sections 2, 3, 5.1-5.5).
 *
 * The loop is batched and runs in two stages. The front stage turns an
 * executor batch (a structure-of-arrays RecordBatch, trace/record.hh)
 * into FrontStep records: which blocks each instruction fetches, with
 * same-block runs of plain instructions collapsed. The back stage
 * performs those fetches through the line buffer and the L1-I, runs
 * the prefetcher hooks and applies the prefetch drain. Per-instruction
 * order is preserved exactly — the drain feeds the cache the next
 * instruction observes — so results are bit-identical at any batch
 * length; the batched differential suite and the golden snapshots lock
 * that. An engine built from a FrontRecording runs only the back stage,
 * replaying the recorded steps instead of running the executor and the
 * front stage (sim/front_recording.hh).
 */

#pragma once

#include <memory>
#include <optional>

#include "cache/cache.hh"
#include "common/config.hh"
#include "core/frontend.hh"
#include "prefetch/prefetcher.hh"
#include "sim/front_recording.hh"
#include "sim/observer.hh"
#include "sim/run_counters.hh"
#include "sim/system_config.hh"
#include "trace/executor.hh"
#include "trace/program.hh"

namespace pifetch {

/**
 * Aggregate results of one functional run (measurement window only).
 * The timing-independent counter block (including the stream digests)
 * is the shared RunCounters base.
 */
struct TraceRunResult : RunCounters
{
    /** Prefetch candidates issued / actual fills performed. */
    std::uint64_t prefetchIssued = 0;
    std::uint64_t prefetchFills = 0;
    /** First demand touches of prefetched lines. */
    std::uint64_t usefulPrefetches = 0;
    /** PIF-only: predictor coverage per trap level and overall. */
    double pifCoverageTl0 = 0.0;
    double pifCoverageTl1 = 0.0;
    double pifCoverage = 0.0;
};

/**
 * Functional engine tying together one core's worth of hardware.
 */
class TraceEngine
{
  public:
    /**
     * @param cfg System configuration.
     * @param prog The workload program (externally owned).
     * @param exec_cfg Executor runtime knobs (seed, interrupt rate).
     * @param prefetcher The prefetcher under test (owned).
     */
    TraceEngine(const SystemConfig &cfg, const Program &prog,
                const ExecutorConfig &exec_cfg,
                std::unique_ptr<Prefetcher> prefetcher);

    /**
     * Replay @p rec's front-end stream through the back stage only.
     * run() must ask for the recording's own warm-up and measure
     * lengths; advance() may cut it anywhere. Observers need the live
     * front end and cannot be attached. Throws std::invalid_argument
     * unless rec.replayableWith(cfg).
     *
     * @param rec The recording (externally owned, read-only; many
     *        engines may share it across threads).
     */
    TraceEngine(const SystemConfig &cfg, const FrontRecording &rec,
                std::unique_ptr<Prefetcher> prefetcher);

    /**
     * Execute @p warmup instructions (training predictors and warming
     * the cache), then @p measure instructions with statistics.
     */
    TraceRunResult run(InstCount warmup, InstCount measure);

    /**
     * Execute @p n instructions without statistics bookkeeping.
     * Lets callers interleave several engines (the multi-core shared-
     * storage study) and compute deltas from the component counters.
     *
     * The inner loop is dispatched once on the concrete prefetcher
     * type (every shipped Prefetcher subclass is `final`), so the
     * three per-instruction prefetcher hooks are direct, inlinable
     * calls instead of virtual dispatches. Results are identical to
     * the generic path by construction; the golden suite locks that.
     */
    void advance(InstCount n);

    /**
     * Run a caller's batch through both stages, bypassing the engine's
     * own executor, so perfbench's PIF probe can time Executor::
     * nextBatch() and the stages in separate spans. Given the batches
     * its executor would decode, the engine ends where advance() would
     * have; a lean batch is only valid with no observer attached.
     * Executor-side counters (retired, interrupts) do not advance.
     */
    void replayBatch(const RecordBatch &batch);

    Cache &l1i() { return l1i_; }
    Frontend &frontend() { return frontend_; }
    Prefetcher &prefetcher() { return *prefetcher_; }
    /** The executor (live engines only). */
    Executor &executor() { return *exec_; }

    /**
     * Configure observation: stream digests and/or event-store
     * recording (see ObserverConfig). Detached (the default) the hot
     * path pays one predictable branch per step and nothing else
     * (perfbench's `replay` workload times it detached). Configure
     * before the first advance()/run() so differential runs observe
     * identical windows; digest state accumulated so far is kept.
     * Throws std::logic_error on an engine built from a recording.
     */
    void attachObservers(const ObserverConfig &obs);

    /** Retired-instruction stream digest (0 until digests enabled). */
    std::uint64_t retireDigest() const
    {
        return observers_.retireDigest();
    }

    /** Fetch-access stream digest (0 until digests enabled). */
    std::uint64_t accessDigest() const
    {
        return observers_.accessDigest();
    }

    /**
     * Override the replay batch length (default recordBatchLen).
     * Results are bit-identical at any length — the batched
     * differential suite sweeps this — so the knob exists for tuning
     * and for pinning the scalar-order (length 1) reference.
     */
    void
    setBatchLen(std::uint32_t len)
    {
        batchLen_ = len == 0 ? 1 : len;
        batch_.reserve(batchLen_);
        steps_.reserve(batchLen_);
    }

  private:
    /** Everything but the instruction source. */
    TraceEngine(const SystemConfig &cfg,
                std::unique_ptr<Prefetcher> prefetcher);

    /** The loop, monomorphized over the prefetcher type. */
    template <typename P>
    void advanceWith(P &prefetcher, InstCount n);

    /**
     * The back stage over steps_. @p observed is the batch the steps
     * came from when observers are attached (they fold whole records),
     * else nullptr.
     */
    template <typename P>
    void backStage(P &prefetcher, const RecordBatch *observed);

    /** Apply one instruction's share of the prefetch drain. */
    template <typename P>
    void drainFills(P &prefetcher, bool observing);

    /** Cumulative counters (see run()). */
    RunCounters counters() const;

    SystemConfig cfg_;
    /** Live: the executor; replay: the recording's reader. */
    std::optional<Executor> exec_;
    std::optional<FrontRecording::Reader> replay_;
    Cache l1i_;
    Frontend frontend_;
    std::unique_ptr<Prefetcher> prefetcher_;

    RecordBatch batch_;
    std::uint32_t batchLen_ = recordBatchLen;
    std::vector<FrontStep> steps_;
    std::vector<FetchAccess> events_;
    std::vector<Addr> drain_;

    /** Digests + event recording (opt-in; detached by default). */
    EngineObservers observers_;
};

} // namespace pifetch
