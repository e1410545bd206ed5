/**
 * @file
 * Unified engine observation layer.
 *
 * EngineObservers gives both engines one opt-in observation
 * configuration (ObserverConfig: stream digests and event-store
 * recording) behind one predictable detached-branch per step: the
 * engines' back stages test active() once and hand each instruction
 * plus its fetch-access span to observeStep(), which folds the stream
 * digests and appends the event-store rows in a single place. Counter
 * samples are built from the engines' shared RunCounters snapshot, so
 * the two engines' samples stay comparable row for row by
 * construction.
 *
 * Detached (the default) the replay hot path pays the active() test
 * and nothing else. perfbench's `replay` workload times the engines
 * detached; its `query.observed_ns_per_instr` metric times them
 * attached.
 */

#pragma once

#include "cache/cache.hh"
#include "common/digest.hh"
#include "core/frontend.hh"
#include "query/event_store.hh"
#include "sim/run_counters.hh"
#include "trace/executor.hh"

namespace pifetch {

/** What an engine observes, and where it records. */
struct ObserverConfig
{
    /** Fold retire/access stream digests (src/check/ oracles). */
    bool digests = false;
    /**
     * Record events and windowed counter samples into this store
     * (src/query/); nullptr leaves event recording detached. The
     * store must outlive the engine or the next attachObservers().
     */
    EventStore *events = nullptr;
    /** Core id tagged onto recorded rows (multicore runners). */
    unsigned core = 0;
};

/**
 * Live snapshot of the cumulative timing-independent counters. Both
 * engines sample through this one helper, which is what makes their
 * windowed counter rows directly comparable.
 */
inline RunCounters
liveRunCounters(const Executor &exec, const Frontend &frontend)
{
    RunCounters c;
    c.instrs = exec.retired();
    c.accesses = frontend.correctPathFetches();
    c.misses = frontend.correctPathMisses();
    c.wrongPathFetches = frontend.wrongPathFetches();
    c.mispredicts = frontend.mispredicts();
    c.interrupts = exec.interrupts();
    return c;
}

/** Shape a counter snapshot for the event store's counters table. */
inline CounterSnapshot
counterSnapshotOf(const RunCounters &c, std::uint64_t prefetch_fills)
{
    CounterSnapshot snap;
    snap.accesses = c.accesses;
    snap.misses = c.misses;
    snap.wrongPathFetches = c.wrongPathFetches;
    snap.mispredicts = c.mispredicts;
    snap.interrupts = c.interrupts;
    snap.prefetchFills = prefetch_fills;
    return snap;
}

/**
 * The observation state owned by an engine: digest accumulators plus
 * the attached event store. Configured through attachObservers();
 * everything here is bypassed entirely when active() is false.
 */
class EngineObservers
{
  public:
    /** Replace the configuration (digest state is preserved). */
    void configure(const ObserverConfig &cfg) { cfg_ = cfg; }

    /** True when the hot loop must call observeStep(). */
    bool active() const { return cfg_.digests || cfg_.events != nullptr; }

    /** Retired-instruction stream digest (0 until digests enabled). */
    std::uint64_t
    retireDigest() const
    {
        return cfg_.digests ? retireDigest_.value() : 0;
    }

    /** Fetch-access stream digest (0 until digests enabled). */
    std::uint64_t
    accessDigest() const
    {
        return cfg_.digests ? accessDigest_.value() : 0;
    }

    /**
     * Observe one retired instruction of a live engine and the
     * @p count fetch accesses it produced. A due counter sample takes
     * the counters from @p exec, @p frontend and @p l1i, except the
     * interrupt count: the executor's counter advances a whole decoded
     * batch early, so it is re-derived per instruction from the record
     * stream itself (a TL0 -> TL1 transition is exactly one delivery),
     * keeping samples identical at any batch length.
     */
    void
    observeStep(const RetiredInstr &instr, const FetchAccess *events,
                std::size_t count, const Executor &exec,
                const Frontend &frontend, const Cache &l1i)
    {
        interrupts_ += static_cast<std::uint64_t>(instr.trapLevel != 0 &&
                                                  prevTl_ == 0);
        prevTl_ = instr.trapLevel;
        if (cfg_.digests) {
            digestRetire(retireDigest_, instr);
            for (std::size_t i = 0; i < count; ++i)
                digestAccess(accessDigest_, events[i]);
        }
        if (cfg_.events) {
            cfg_.events->recordRetire(cfg_.core, instr);
            for (std::size_t i = 0; i < count; ++i) {
                const FetchAccess &ev = events[i];
                cfg_.events->recordAccess(cfg_.core, ev,
                                          ev.correctPath
                                              ? instr.pc
                                              : blockBase(ev.block));
            }
            if (cfg_.events->counterSampleDue(cfg_.core)) {
                RunCounters live = liveRunCounters(exec, frontend);
                live.interrupts = interrupts_;
                cfg_.events->sampleCounters(
                    cfg_.core, counterSnapshotOf(live, l1i.prefetchFills()));
            }
        }
    }

    /** Record a prefetch fill (no-op unless a store is attached). */
    void
    observePrefetchFill(Addr block)
    {
        if (cfg_.events)
            cfg_.events->recordPrefetchFill(cfg_.core, block);
    }

  private:
    ObserverConfig cfg_;
    StreamDigest retireDigest_;
    StreamDigest accessDigest_;
    /** Interrupts delivered so far, counted per instruction. */
    std::uint64_t interrupts_ = 0;
    TrapLevel prevTl_ = 0;
};

} // namespace pifetch
