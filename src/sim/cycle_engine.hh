/**
 * @file
 * Cycle-level simulation engine (Figure 10 right).
 *
 * Adds timing to the functional pipeline: demand misses stall the core
 * for the L2/memory fill latency, prefetches occupy MSHRs and complete
 * after their fill latency (late prefetches expose the residual), and
 * mispredictions charge the resolution penalty. A Perfect
 * configuration services every fetch at hit latency (Section 5.6's
 * perfect-latency cache).
 *
 * The instruction stream is decoded a structure-of-arrays RecordBatch
 * at a time (trace/record.hh) and split into the same two stages as
 * TraceEngine: the front stage emits FrontStep records, and the back
 * stage installs ready fills, performs the fetches, charges stalls,
 * runs the prefetcher hooks and the timing model, and issues prefetches
 * to the MSHRs. The timed steps stay strictly per-instruction, so cycle
 * counts are bit-identical at any batch length. An engine built from a
 * FrontRecording runs only the back stage.
 */

#pragma once

#include <memory>
#include <optional>
#include <unordered_map>

#include "cache/cache.hh"
#include "cache/hierarchy.hh"
#include "common/config.hh"
#include "core/cycle_core.hh"
#include "core/frontend.hh"
#include "sim/front_recording.hh"
#include "sim/observer.hh"
#include "sim/run_counters.hh"
#include "sim/system_config.hh"
#include "trace/executor.hh"
#include "trace/program.hh"

namespace pifetch {

/**
 * Results of one timed run (measurement window only).
 *
 * The timing-independent counter block (and the stream digests) is
 * the shared RunCounters base, mirroring TraceRunResult so the
 * differential oracle (src/check/) compares the two engines stat for
 * stat: the fetch sequence is timing-independent by construction, so
 * accesses/mispredicts/wrongPathFetches/interrupts must match the
 * functional engine exactly; misses may differ only through prefetch
 * fill timing.
 */
struct CycleRunResult : RunCounters
{
    Cycle cycles = 0;
    InstCount userInstrs = 0;
    double uipc = 0.0;
    Cycle fetchStallCycles = 0;
    Cycle branchPenaltyCycles = 0;
    std::uint64_t demandMisses = 0;
    std::uint64_t latePrefetches = 0;  //!< demand caught an in-flight fill
    std::uint64_t prefetchFills = 0;
    std::uint64_t l2Hits = 0;
    std::uint64_t l2Misses = 0;
};

/**
 * Timed engine: executor -> front-end -> L1-I/L2 -> prefetcher with
 * MSHR-limited, latency-delayed prefetch fills.
 */
class CycleEngine
{
  public:
    CycleEngine(const SystemConfig &cfg, const Program &prog,
                const ExecutorConfig &exec_cfg, PrefetcherKind kind);

    /**
     * Replay @p rec through the back stage only (same contract as the
     * TraceEngine recording constructor).
     */
    CycleEngine(const SystemConfig &cfg, const FrontRecording &rec,
                PrefetcherKind kind);

    /** Warm up, then measure. */
    CycleRunResult run(InstCount warmup, InstCount measure);

    TimingModel &timing() { return timing_; }
    Cache &l1i() { return l1i_; }
    MemoryHierarchy &hierarchy() { return hierarchy_; }
    Frontend &frontend() { return frontend_; }
    /** The executor (live engines only). */
    Executor &executor() { return *exec_; }

    /**
     * Configure observation: stream digests and/or event-store
     * recording (same scheme, encoding and opt-in contract as
     * TraceEngine::attachObservers, so the two engines' digests and
     * stores are directly comparable). Off by default — no hot-path
     * overhead.
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

    /** Override the replay batch length (see TraceEngine::setBatchLen). */
    void
    setBatchLen(std::uint32_t len)
    {
        batchLen_ = len == 0 ? 1 : len;
        batch_.reserve(batchLen_);
        steps_.reserve(batchLen_);
    }

  private:
    /** Everything but the instruction source. */
    CycleEngine(const SystemConfig &cfg, PrefetcherKind kind);

    /**
     * Execute @p n instructions, dispatched once on the concrete
     * prefetcher type so the per-instruction hooks devirtualize
     * (same scheme as TraceEngine::advance; results are identical).
     */
    void advance(InstCount n, bool measuring);

    /** The timed loop, monomorphized over the prefetcher type. */
    template <typename P>
    void advanceWith(P &prefetcher, InstCount n, bool measuring);

    /**
     * The back stage over steps_ (see TraceEngine::backStage for
     * @p observed).
     */
    template <typename P>
    void backStage(P &prefetcher, bool measuring,
                   const RecordBatch *observed);

    /**
     * Issue one instruction's prefetch candidates, MSHR-limited.
     * @return false if the prefetcher had none queued.
     */
    template <typename P>
    bool issuePrefetches(P &prefetcher);

    /** Install prefetch fills whose latency has elapsed. */
    void
    processReadyFills()
    {
        if (timing_.cycles() >= nextFill_)
            installReadyFills();
    }

    /** processReadyFills' walk over pending_, once a fill may be due. */
    void installReadyFills();

    /** Cumulative timing-independent counters. */
    RunCounters counters() const;

    SystemConfig cfg_;
    PrefetcherKind kind_;
    /** Live: the executor; replay: the recording's reader. */
    std::optional<Executor> exec_;
    std::optional<FrontRecording::Reader> replay_;
    Cache l1i_;
    Frontend frontend_;
    MemoryHierarchy hierarchy_;
    std::unique_ptr<Prefetcher> prefetcher_;
    TimingModel timing_;

    /** In-flight prefetch fills: block -> completion cycle. */
    std::unordered_map<Addr, Cycle> pending_;
    static constexpr Cycle noFill = ~Cycle{0};
    /** A lower bound on pending_'s earliest completion cycle: no fill
     * is due while the clock is below it. */
    Cycle nextFill_ = noFill;

    RecordBatch batch_;
    std::uint32_t batchLen_ = recordBatchLen;
    std::vector<FrontStep> steps_;
    std::vector<FetchAccess> events_;
    std::vector<Addr> drain_;

    std::uint64_t demandMisses_ = 0;
    std::uint64_t latePrefetches_ = 0;
    std::uint64_t prefetchFills_ = 0;

    /** Digests + event recording (opt-in; detached by default). */
    EngineObservers observers_;
};

} // namespace pifetch
