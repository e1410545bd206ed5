/**
 * @file
 * Columnar event store implementation and dump round trip.
 */

#include "query/event_store.hh"

namespace pifetch {

namespace {

const char *schemaTag = "pifetch-events-v1";

std::string
badDump(const std::string &what, std::string *err)
{
    if (err)
        *err = what;
    return what;
}

/** Pull member @p key of object @p v as a uint column, or fail. */
bool
column(const ResultValue &v, const std::string &key,
       std::vector<std::uint64_t> &out, std::string *err)
{
    const ResultValue *m = v.find(key);
    if (!m) {
        badDump("event dump: missing column '" + key + "'", err);
        return false;
    }
    auto parsed = uintArrayFromResult(*m);
    if (!parsed) {
        badDump("event dump: column '" + key +
                "' is not an unsigned-integer array", err);
        return false;
    }
    out = std::move(*parsed);
    return true;
}

/** Narrow a uint column into @p out, enforcing value < limit. */
bool
narrowColumn(const std::vector<std::uint64_t> &in, std::uint64_t limit,
             const std::string &key, std::vector<std::uint8_t> &out,
             std::string *err)
{
    out.reserve(in.size());
    for (std::uint64_t v : in) {
        if (v >= limit) {
            badDump("event dump: column '" + key + "' value " +
                    std::to_string(v) + " out of range", err);
            return false;
        }
        out.push_back(static_cast<std::uint8_t>(v));
    }
    return true;
}

} // namespace

std::string
eventKindKey(EventKind kind)
{
    switch (kind) {
      case EventKind::Retire:
        return "retire";
      case EventKind::Fetch:
        return "fetch";
      case EventKind::Prefetch:
        return "prefetch";
    }
    return "?";
}

std::optional<EventKind>
eventKindFromKey(const std::string &s)
{
    for (unsigned i = 0; i < numEventKinds; ++i) {
        const auto kind = static_cast<EventKind>(i);
        if (s == eventKindKey(kind))
            return kind;
    }
    return std::nullopt;
}

std::string
eventCounterKey(EventCounter counter)
{
    switch (counter) {
      case EventCounter::Accesses:
        return "accesses";
      case EventCounter::Misses:
        return "misses";
      case EventCounter::WrongPathFetches:
        return "wrong_path_fetches";
      case EventCounter::Mispredicts:
        return "mispredicts";
      case EventCounter::Interrupts:
        return "interrupts";
      case EventCounter::PrefetchFills:
        return "prefetch_fills";
    }
    return "?";
}

std::optional<EventCounter>
eventCounterFromKey(const std::string &s)
{
    for (unsigned i = 0; i < numEventCounters; ++i) {
        const auto counter = static_cast<EventCounter>(i);
        if (s == eventCounterKey(counter))
            return counter;
    }
    return std::nullopt;
}

std::uint64_t
CounterSnapshot::of(EventCounter counter) const
{
    switch (counter) {
      case EventCounter::Accesses:
        return accesses;
      case EventCounter::Misses:
        return misses;
      case EventCounter::WrongPathFetches:
        return wrongPathFetches;
      case EventCounter::Mispredicts:
        return mispredicts;
      case EventCounter::Interrupts:
        return interrupts;
      case EventCounter::PrefetchFills:
        return prefetchFills;
    }
    return 0;
}

EventStore::EventStore(EventStoreOptions opts) : opts_(opts) {}

void
EventStore::pushSlice(InstCount instr, Addr pc, Addr block, EventKind kind,
                      unsigned core, TrapLevel trap, bool hit,
                      bool prefetched, bool correct)
{
    if (sliceInstr_.size() >= opts_.maxSlices) {
        ++droppedSlices_;
        return;
    }
    sliceInstr_.push_back(instr);
    slicePc_.push_back(pc);
    sliceBlock_.push_back(block);
    sliceKind_.push_back(static_cast<std::uint8_t>(kind));
    sliceCore_.push_back(static_cast<std::uint8_t>(core));
    sliceTrap_.push_back(trap);
    sliceHit_.push_back(hit ? 1 : 0);
    slicePrefetched_.push_back(prefetched ? 1 : 0);
    sliceCorrect_.push_back(correct ? 1 : 0);
}

void
EventStore::recordRetire(unsigned core, const RetiredInstr &instr)
{
    if (core >= retiredPerCore_.size())
        retiredPerCore_.resize(core + 1, 0);
    const InstCount idx = ++retiredPerCore_[core];
    if (opts_.recordRetires)
        pushSlice(idx, instr.pc, blockAddr(instr.pc), EventKind::Retire,
                  core, instr.trapLevel, false, false, true);
}

void
EventStore::recordAccess(unsigned core, const FetchAccess &access, Addr pc)
{
    if (!opts_.recordFetches)
        return;
    const InstCount idx =
        core < retiredPerCore_.size() ? retiredPerCore_[core] : 0;
    pushSlice(idx, pc, access.block, EventKind::Fetch, core,
              access.trapLevel, access.hit, access.wasPrefetched,
              access.correctPath);
}

void
EventStore::recordPrefetchFill(unsigned core, Addr block)
{
    if (!opts_.recordPrefetches)
        return;
    const InstCount idx =
        core < retiredPerCore_.size() ? retiredPerCore_[core] : 0;
    pushSlice(idx, blockBase(block), block, EventKind::Prefetch, core, 0,
              false, false, true);
}

bool
EventStore::counterSampleDue(unsigned core) const
{
    if (opts_.counterWindow == 0 || core >= retiredPerCore_.size())
        return false;
    const InstCount n = retiredPerCore_[core];
    return n != 0 && n % opts_.counterWindow == 0;
}

void
EventStore::sampleCounters(unsigned core, const CounterSnapshot &snap)
{
    const InstCount idx =
        core < retiredPerCore_.size() ? retiredPerCore_[core] : 0;
    for (unsigned c = 0; c < numEventCounters; ++c) {
        counterInstr_.push_back(idx);
        counterCore_.push_back(static_cast<std::uint8_t>(core));
        counterId_.push_back(static_cast<std::uint8_t>(c));
        counterValue_.push_back(snap.of(static_cast<EventCounter>(c)));
    }
}

InstCount
EventStore::retired(unsigned core) const
{
    return core < retiredPerCore_.size() ? retiredPerCore_[core] : 0;
}

std::optional<InstCount>
EventStore::injectCounterSkew(EventCounter counter, std::size_t ordinal,
                              std::uint64_t delta)
{
    const auto id = static_cast<std::uint8_t>(counter);
    std::vector<std::size_t> rows;
    for (std::size_t i = 0; i < counterId_.size(); ++i)
        if (counterId_[i] == id)
            rows.push_back(i);
    if (rows.empty())
        return std::nullopt;
    const std::size_t row =
        rows[ordinal < rows.size() ? ordinal : rows.size() - 1];
    counterValue_[row] += delta;
    return counterInstr_[row];
}

ResultValue
toResult(const EventStore &store)
{
    const EventStoreOptions &o = store.options();
    ResultValue options = ResultValue::object();
    options.set("counter_window", o.counterWindow);
    options.set("max_slices", o.maxSlices);
    options.set("record_retires", o.recordRetires);
    options.set("record_fetches", o.recordFetches);
    options.set("record_prefetches", o.recordPrefetches);

    ResultValue slices = ResultValue::object();
    slices.set("instr", toResultArray(store.sliceInstr()));
    slices.set("pc", toResultArray(store.slicePc()));
    slices.set("block", toResultArray(store.sliceBlock()));
    slices.set("kind", toResultArray(store.sliceKind()));
    slices.set("core", toResultArray(store.sliceCore()));
    slices.set("trap", toResultArray(store.sliceTrap()));
    slices.set("hit", toResultArray(store.sliceHit()));
    slices.set("prefetched", toResultArray(store.slicePrefetched()));
    slices.set("correct", toResultArray(store.sliceCorrect()));

    ResultValue counters = ResultValue::object();
    counters.set("instr", toResultArray(store.counterInstr()));
    counters.set("core", toResultArray(store.counterCore()));
    counters.set("counter", toResultArray(store.counterId()));
    counters.set("value", toResultArray(store.counterValue()));

    std::vector<InstCount> retiredCol;
    retiredCol.reserve(store.coresSeen());
    for (unsigned c = 0; c < store.coresSeen(); ++c)
        retiredCol.push_back(store.retired(c));

    ResultValue out = ResultValue::object();
    out.set("schema", schemaTag);
    out.set("options", std::move(options));
    out.set("slices", std::move(slices));
    out.set("counters", std::move(counters));
    out.set("dropped_slices", store.droppedSlices());
    out.set("retired", toResultArray(retiredCol));
    return out;
}

std::optional<EventStore>
eventStoreFromResult(const ResultValue &v, std::string *err)
{
    if (v.kind() != ResultValue::Kind::Object) {
        badDump("event dump: not a JSON object", err);
        return std::nullopt;
    }
    const ResultValue *schema = v.find("schema");
    if (!schema || schema->kind() != ResultValue::Kind::String ||
        schema->str() != schemaTag) {
        badDump(std::string("event dump: missing or unsupported schema "
                            "(want \"") + schemaTag + "\")", err);
        return std::nullopt;
    }

    EventStoreOptions opts;
    const ResultValue *options = v.find("options");
    if (!options || options->kind() != ResultValue::Kind::Object) {
        badDump("event dump: missing 'options' object", err);
        return std::nullopt;
    }
    const auto optUint = [&](const char *key, std::uint64_t &out) {
        const ResultValue *m = options->find(key);
        if (!m || m->kind() != ResultValue::Kind::Uint)
            return false;
        out = m->uintValue();
        return true;
    };
    const auto optBool = [&](const char *key, bool &out) {
        const ResultValue *m = options->find(key);
        if (!m || m->kind() != ResultValue::Kind::Bool)
            return false;
        out = m->boolean();
        return true;
    };
    if (!optUint("counter_window", opts.counterWindow) ||
        !optUint("max_slices", opts.maxSlices) ||
        !optBool("record_retires", opts.recordRetires) ||
        !optBool("record_fetches", opts.recordFetches) ||
        !optBool("record_prefetches", opts.recordPrefetches)) {
        badDump("event dump: malformed 'options'", err);
        return std::nullopt;
    }

    const ResultValue *slices = v.find("slices");
    const ResultValue *counters = v.find("counters");
    if (!slices || slices->kind() != ResultValue::Kind::Object ||
        !counters || counters->kind() != ResultValue::Kind::Object) {
        badDump("event dump: missing 'slices' or 'counters' table", err);
        return std::nullopt;
    }

    EventStore store(opts);

    std::vector<std::uint64_t> kind, core, trap, hit, prefetched, correct;
    if (!column(*slices, "instr", store.sliceInstr_, err) ||
        !column(*slices, "pc", store.slicePc_, err) ||
        !column(*slices, "block", store.sliceBlock_, err) ||
        !column(*slices, "kind", kind, err) ||
        !column(*slices, "core", core, err) ||
        !column(*slices, "trap", trap, err) ||
        !column(*slices, "hit", hit, err) ||
        !column(*slices, "prefetched", prefetched, err) ||
        !column(*slices, "correct", correct, err))
        return std::nullopt;
    if (!narrowColumn(kind, numEventKinds, "kind", store.sliceKind_,
                      err) ||
        !narrowColumn(core, 256, "core", store.sliceCore_, err) ||
        !narrowColumn(trap, 256, "trap", store.sliceTrap_, err) ||
        !narrowColumn(hit, 2, "hit", store.sliceHit_, err) ||
        !narrowColumn(prefetched, 2, "prefetched",
                      store.slicePrefetched_, err) ||
        !narrowColumn(correct, 2, "correct", store.sliceCorrect_, err))
        return std::nullopt;
    const std::size_t nSlices = store.sliceInstr().size();
    if (store.slicePc().size() != nSlices ||
        store.sliceBlock().size() != nSlices ||
        store.sliceKind().size() != nSlices ||
        store.sliceCore().size() != nSlices ||
        store.sliceTrap().size() != nSlices ||
        store.sliceHit().size() != nSlices ||
        store.slicePrefetched().size() != nSlices ||
        store.sliceCorrect().size() != nSlices) {
        badDump("event dump: slices columns have unequal lengths", err);
        return std::nullopt;
    }

    std::vector<std::uint64_t> cCore, cId;
    if (!column(*counters, "instr", store.counterInstr_, err) ||
        !column(*counters, "core", cCore, err) ||
        !column(*counters, "counter", cId, err) ||
        !column(*counters, "value", store.counterValue_, err))
        return std::nullopt;
    if (!narrowColumn(cCore, 256, "core", store.counterCore_, err) ||
        !narrowColumn(cId, numEventCounters, "counter",
                      store.counterId_, err))
        return std::nullopt;
    const std::size_t nCounters = store.counterInstr().size();
    if (store.counterCore().size() != nCounters ||
        store.counterId().size() != nCounters ||
        store.counterValue().size() != nCounters) {
        badDump("event dump: counters columns have unequal lengths", err);
        return std::nullopt;
    }

    const ResultValue *dropped = v.find("dropped_slices");
    if (!dropped || dropped->kind() != ResultValue::Kind::Uint) {
        badDump("event dump: missing 'dropped_slices'", err);
        return std::nullopt;
    }
    store.droppedSlices_ = dropped->uintValue();

    const ResultValue *retired = v.find("retired");
    if (!retired) {
        badDump("event dump: missing 'retired'", err);
        return std::nullopt;
    }
    auto retiredCol = uintArrayFromResult(*retired);
    if (!retiredCol) {
        badDump("event dump: 'retired' is not an unsigned-integer array",
                err);
        return std::nullopt;
    }
    store.retiredPerCore_ = std::move(*retiredCol);

    return store;
}

} // namespace pifetch
