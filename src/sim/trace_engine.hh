/**
 * @file
 * Functional trace-driven simulation engine.
 *
 * Drives the executor -> front-end -> L1-I -> prefetcher pipeline with
 * no timing: prefetch fills are instantaneous, so results measure pure
 * predictor quality (coverage, accuracy, over-prediction) exactly like
 * the paper's trace-based studies (Sections 2, 3, 5.1-5.5).
 *
 * The replay loop is batched: the executor decodes a structure-of-
 * arrays RecordBatch at a time (trace/record.hh), and the per-
 * instruction stages (front-end, prefetcher hooks, drain) stream over
 * the batch columns with an inline fast path for plain instructions
 * that stay inside the current fetch block. Per-instruction order is
 * preserved exactly — the prefetch drain feeds the cache the next
 * instruction observes — so results are bit-identical at any batch
 * length; the batched differential suite and the golden snapshots
 * lock that.
 */

#pragma once

#include <memory>

#include "cache/cache.hh"
#include "common/config.hh"
#include "core/frontend.hh"
#include "prefetch/prefetcher.hh"
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
     * Replay externally supplied records (a captured trace decoded by
     * TraceBatchReader, say) through the same batched pipeline,
     * bypassing the executor. The batch's block column must be
     * populated (computeBlocks()); executor-side counters (retired,
     * interrupts) do not advance.
     */
    void replayBatch(const RecordBatch &batch);

    Cache &l1i() { return l1i_; }
    Frontend &frontend() { return frontend_; }
    Prefetcher &prefetcher() { return *prefetcher_; }
    Executor &executor() { return exec_; }

    /**
     * Configure observation: stream digests and/or event-store
     * recording (see ObserverConfig). Detached (the default) the
     * replay hot path pays one predictable branch per instruction and
     * nothing else (perfbench's `replay` workload times it detached).
     * Configure before the first advance()/run() so differential runs
     * observe identical windows; digest state accumulated so far is
     * kept.
     */
    void attachObservers(const ObserverConfig &obs)
    {
        observers_.configure(obs);
    }

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
    }

  private:
    /** The replay loop, monomorphized over the prefetcher type. */
    template <typename P>
    void advanceWith(P &prefetcher, InstCount n);

    /** Run one decoded batch through the per-instruction stages. */
    template <typename P>
    void stepBatch(P &prefetcher, const RecordBatch &batch);

    SystemConfig cfg_;
    Executor exec_;
    Cache l1i_;
    Frontend frontend_;
    std::unique_ptr<Prefetcher> prefetcher_;

    RecordBatch batch_;
    std::uint32_t batchLen_ = recordBatchLen;
    std::vector<FetchAccess> events_;
    std::vector<Addr> drain_;

    /** Digests + event recording (opt-in; detached by default). */
    EngineObservers observers_;
    /**
     * Per-instruction interrupt count for windowed counter samples,
     * tracked from trap-level transitions while observing (the
     * executor's own counter advances a whole decoded batch early).
     */
    std::uint64_t obsInterrupts_ = 0;
    std::uint8_t obsPrevTl_ = 0;
};

} // namespace pifetch
