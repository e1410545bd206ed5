/**
 * @file
 * In-memory columnar event store for per-run trace analytics.
 *
 * Both simulation engines can optionally populate an EventStore
 * through the unified observer API (ObserverConfig::events, see
 * sim/observer.hh): when no store is attached, the replay hot path
 * pays one predictable branch per instruction and nothing else
 * (perfbench's `replay` workload times that path, and its
 * `query.observed_ns_per_instr` metric the attached one). When
 * attached, every retired instruction, block-granularity fetch access
 * and prefetch fill appends a row to the *slices* table, and the
 * engine samples its cumulative counters into the *counters* table at
 * fixed retired-instruction windows.
 *
 * The layout follows the Perfetto trace_processor idiom: parallel
 * per-column vectors (slices + counters tables) instead of an array
 * of structs, so the filter/aggregate query layer (query.hh) scans
 * only the columns a query touches. A store serializes to a canonical
 * columnar JSON dump (`pifetch query --dump`) and loads back exactly,
 * so a run becomes a queryable dataset without re-simulating.
 */

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/results.hh"
#include "common/types.hh"
#include "core/frontend.hh"
#include "trace/record.hh"

namespace pifetch {

/** Row class of a slices-table entry. */
enum class EventKind : std::uint8_t {
    Retire = 0,    //!< one retired instruction (off by default)
    Fetch = 1,     //!< one block-granularity fetch access
    Prefetch = 2,  //!< one prefetch fill installed into the L1-I
};

/** Number of distinct EventKind values. */
constexpr unsigned numEventKinds = 3;

/** Cumulative run counters sampled into the counters table. */
enum class EventCounter : std::uint8_t {
    Accesses = 0,         //!< correct-path block fetches
    Misses = 1,           //!< correct-path L1-I misses
    WrongPathFetches = 2, //!< wrong-path burst fetches
    Mispredicts = 3,      //!< mispredicted control transfers
    Interrupts = 4,       //!< spontaneous interrupts delivered
    PrefetchFills = 5,    //!< prefetch fills installed
};

/** Number of distinct EventCounter values. */
constexpr unsigned numEventCounters = 6;

/** Stable CLI/JSON token for an event kind ("retire", "fetch"...). */
std::string eventKindKey(EventKind kind);

/** Parse an eventKindKey() token (exact match; nullopt otherwise). */
std::optional<EventKind> eventKindFromKey(const std::string &s);

/** Stable CLI/JSON token for a counter ("accesses", "misses"...). */
std::string eventCounterKey(EventCounter counter);

/** Parse an eventCounterKey() token (exact match; nullopt otherwise). */
std::optional<EventCounter> eventCounterFromKey(const std::string &s);

/** What an attached engine records, and how much. */
struct EventStoreOptions
{
    /**
     * Counter-sample stride in retired instructions: a row per
     * counter lands in the counters table every `counterWindow`
     * retires (per core). 0 disables counter sampling.
     */
    InstCount counterWindow = 4096;

    /**
     * Overflow cap on the slices table. Appends beyond the cap are
     * dropped (and counted in droppedSlices()) instead of growing
     * without bound; counter samples are tiny and never capped.
     */
    std::uint64_t maxSlices = std::uint64_t{1} << 22;

    /** Record a Retire slice per retired instruction (verbose). */
    bool recordRetires = false;
    /** Record a Fetch slice per block-granularity fetch access. */
    bool recordFetches = true;
    /** Record a Prefetch slice per prefetch fill. */
    bool recordPrefetches = true;
};

/**
 * One snapshot of an engine's cumulative counters, taken at a
 * counter-window boundary. Both engines fill it from the identical
 * sources (front-end, executor, L1-I), so samples at the same retired
 * instruction index are directly comparable across engines.
 */
struct CounterSnapshot
{
    std::uint64_t accesses = 0;
    std::uint64_t misses = 0;
    std::uint64_t wrongPathFetches = 0;
    std::uint64_t mispredicts = 0;
    std::uint64_t interrupts = 0;
    std::uint64_t prefetchFills = 0;

    /** The field selected by @p counter. */
    std::uint64_t of(EventCounter counter) const;
};

/**
 * Columnar event store: a slices table (one row per retire / fetch /
 * prefetch event) and a counters table (cumulative counter samples at
 * fixed retired-instruction windows), both as parallel per-column
 * vectors.
 *
 * Recording is single-threaded by design: one store belongs to one
 * engine (or one interleaving of engines on the same thread). The
 * multicore runners attach one store per core and tag rows with the
 * core column.
 */
class EventStore final
{
  public:
    explicit EventStore(EventStoreOptions opts = EventStoreOptions{});

    const EventStoreOptions &options() const { return opts_; }

    // ------------------------------------------- recording (engines)

    /**
     * Record the retirement of @p instr on @p core. Always advances
     * the per-core instruction index (which drives the instr column
     * and counter-sample scheduling), and appends a Retire slice when
     * options().recordRetires is set.
     */
    void recordRetire(unsigned core, const RetiredInstr &instr);

    /**
     * Record one block-granularity fetch access triggered by the
     * current instruction. @p pc is the triggering instruction's PC;
     * wrong-path rows store the block base instead (the same
     * convention as FetchInfo::pc).
     */
    void recordAccess(unsigned core, const FetchAccess &access, Addr pc);

    /** Record a prefetch fill of @p block into the L1-I. */
    void recordPrefetchFill(unsigned core, Addr block);

    /**
     * True when the last recordRetire() landed on a counter-window
     * boundary and a sample should be taken for @p core.
     */
    bool counterSampleDue(unsigned core) const;

    /** Append one row per counter with @p core's current snapshot. */
    void sampleCounters(unsigned core, const CounterSnapshot &snap);

    // -------------------------------------------- the slices table

    std::size_t sliceCount() const { return sliceInstr_.size(); }
    const std::vector<InstCount> &sliceInstr() const { return sliceInstr_; }
    const std::vector<Addr> &slicePc() const { return slicePc_; }
    const std::vector<Addr> &sliceBlock() const { return sliceBlock_; }
    const std::vector<std::uint8_t> &sliceKind() const { return sliceKind_; }
    const std::vector<std::uint8_t> &sliceCore() const { return sliceCore_; }
    const std::vector<std::uint8_t> &sliceTrap() const { return sliceTrap_; }
    const std::vector<std::uint8_t> &sliceHit() const { return sliceHit_; }
    const std::vector<std::uint8_t> &slicePrefetched() const
    {
        return slicePrefetched_;
    }
    const std::vector<std::uint8_t> &sliceCorrect() const
    {
        return sliceCorrect_;
    }

    /** Slices dropped after the maxSlices cap filled up. */
    std::uint64_t droppedSlices() const { return droppedSlices_; }

    // ------------------------------------------- the counters table

    std::size_t counterCount() const { return counterInstr_.size(); }
    const std::vector<InstCount> &counterInstr() const
    {
        return counterInstr_;
    }
    const std::vector<std::uint8_t> &counterCore() const
    {
        return counterCore_;
    }
    const std::vector<std::uint8_t> &counterId() const
    {
        return counterId_;
    }
    const std::vector<std::uint64_t> &counterValue() const
    {
        return counterValue_;
    }

    /** Instructions recorded for @p core (0 if the core never ran). */
    InstCount retired(unsigned core) const;

    /** Cores that recorded at least one instruction. */
    unsigned coresSeen() const
    {
        return static_cast<unsigned>(retiredPerCore_.size());
    }

    /**
     * Harness fault injection (mirrors checker.hh's post-run stat
     * perturbations): add @p delta to the value of the @p ordinal-th
     * sample of @p counter (clamped to the last sample), leaving the
     * simulator and every other row untouched. Returns the instr
     * index of the perturbed sample, or nullopt when no sample of
     * that counter exists.
     */
    std::optional<InstCount> injectCounterSkew(EventCounter counter,
                                               std::size_t ordinal,
                                               std::uint64_t delta);

  private:
    /** The dump loader rebuilds the columns in place. */
    friend std::optional<EventStore>
    eventStoreFromResult(const ResultValue &v, std::string *err);

    /** Append one slices row (drops and counts past the cap). */
    void pushSlice(InstCount instr, Addr pc, Addr block, EventKind kind,
                   unsigned core, TrapLevel trap, bool hit,
                   bool prefetched, bool correct);

    EventStoreOptions opts_;

    // slices table (parallel columns)
    std::vector<InstCount> sliceInstr_;
    std::vector<Addr> slicePc_;
    std::vector<Addr> sliceBlock_;
    std::vector<std::uint8_t> sliceKind_;
    std::vector<std::uint8_t> sliceCore_;
    std::vector<std::uint8_t> sliceTrap_;
    std::vector<std::uint8_t> sliceHit_;
    std::vector<std::uint8_t> slicePrefetched_;
    std::vector<std::uint8_t> sliceCorrect_;
    std::uint64_t droppedSlices_ = 0;

    // counters table (parallel columns)
    std::vector<InstCount> counterInstr_;
    std::vector<std::uint8_t> counterCore_;
    std::vector<std::uint8_t> counterId_;
    std::vector<std::uint64_t> counterValue_;

    /** Per-core retired-instruction indices (grown on demand). */
    std::vector<InstCount> retiredPerCore_;
};

/**
 * Canonical columnar JSON dump of a store: schema tag, options, both
 * tables as per-column arrays, drop/retire bookkeeping. Byte-stable
 * for identical stores; eventStoreFromResult() round-trips exactly.
 */
ResultValue toResult(const EventStore &store);

/**
 * Parse a dump produced by toResult(). Validates the schema tag,
 * column lengths and enum ranges; returns nullopt and sets @p err on
 * malformed input.
 */
std::optional<EventStore> eventStoreFromResult(const ResultValue &v,
                                               std::string *err = nullptr);

} // namespace pifetch
