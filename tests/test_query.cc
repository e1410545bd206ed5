/**
 * @file
 * Event-store and query-engine tests: recording semantics and
 * determinism, every query operator against a hand-computed fixture,
 * the JSON dump round trip, and the empty-store / overflow-cap edges.
 */

#include <gtest/gtest.h>

#include "query/event_store.hh"
#include "query/query.hh"
#include "sim/trace_engine.hh"
#include "sim/workloads.hh"

namespace pifetch {
namespace {

// ------------------------------------------------------------- fixture

/**
 * A ten-slice, twelve-counter-row store recorded by hand, so every
 * query expectation below is computable on paper:
 *
 *   instr 1: retire pc 0x1000 (block 64);  fetch  64 miss
 *   instr 2: retire pc 0x1040 (block 65);  fetch  65 hit prefetched;
 *            counter sample A; prefetch fill of block 66
 *   instr 3: retire pc 0x2000 (block 128); fetch 128 miss;
 *            wrong-path fetch 129 hit
 *   instr 4: retire pc 0x2004 trap 1;      fetch 128 hit trap 1;
 *            counter sample B
 *
 * Blocks 64-66 share 8-block region 8; 128/129 are region 16.
 */
EventStore
fixtureStore()
{
    EventStoreOptions opts;
    opts.counterWindow = 2;
    opts.recordRetires = true;
    EventStore s(opts);

    const auto retire = [&](Addr pc, TrapLevel trap) {
        RetiredInstr ri;
        ri.pc = pc;
        ri.trapLevel = trap;
        s.recordRetire(0, ri);
    };
    const auto fetch = [&](Addr block, bool correct, bool hit,
                           bool prefetched, TrapLevel trap, Addr pc) {
        FetchAccess fa;
        fa.block = block;
        fa.correctPath = correct;
        fa.hit = hit;
        fa.wasPrefetched = prefetched;
        fa.trapLevel = trap;
        s.recordAccess(0, fa, pc);
    };
    const auto sample = [&](std::uint64_t accesses, std::uint64_t misses,
                            std::uint64_t wrong, std::uint64_t mispred,
                            std::uint64_t irqs, std::uint64_t fills) {
        CounterSnapshot snap;
        snap.accesses = accesses;
        snap.misses = misses;
        snap.wrongPathFetches = wrong;
        snap.mispredicts = mispred;
        snap.interrupts = irqs;
        snap.prefetchFills = fills;
        s.sampleCounters(0, snap);
    };

    retire(0x1000, 0);
    EXPECT_FALSE(s.counterSampleDue(0));
    fetch(64, true, false, false, 0, 0x1000);

    retire(0x1040, 0);
    fetch(65, true, true, true, 0, 0x1040);
    EXPECT_TRUE(s.counterSampleDue(0));
    sample(2, 1, 0, 0, 0, 1);
    s.recordPrefetchFill(0, 66);

    retire(0x2000, 0);
    fetch(128, true, false, false, 0, 0x2000);
    fetch(129, false, true, false, 0, blockBase(129));
    EXPECT_FALSE(s.counterSampleDue(0));

    retire(0x2004, 1);
    fetch(128, true, true, false, 1, 0x2004);
    EXPECT_TRUE(s.counterSampleDue(0));
    sample(5, 2, 1, 1, 0, 1);
    return s;
}

/** Run @p text against @p store; fails the test on any error. */
ResultValue
ask(const EventStore &store, const std::string &text)
{
    std::string err;
    const auto q = parseQuery(text, &err);
    EXPECT_TRUE(q.has_value()) << text << ": " << err;
    if (!q)
        return ResultValue::object();
    const auto table = runQuery(store, *q, &err);
    EXPECT_TRUE(table.has_value()) << text << ": " << err;
    return table ? *table : ResultValue::object();
}

std::size_t
rowCount(const ResultValue &table)
{
    const ResultValue *rows = table.find("rows");
    return rows ? rows->size() : 0;
}

const ResultValue &
cell(const ResultValue &table, std::size_t row, std::size_t col)
{
    return table.find("rows")->at(row).at(col);
}

// ----------------------------------------------------------- recording

TEST(EventStore, RecordingIsDeterministic)
{
    const std::string a = toJson(toResult(fixtureStore()), 0);
    const std::string b = toJson(toResult(fixtureStore()), 0);
    EXPECT_EQ(a, b);
    EXPECT_NE(a.find("pifetch-events-v1"), std::string::npos);
}

TEST(EventStore, FixtureHasTheHandCountedShape)
{
    const EventStore s = fixtureStore();
    EXPECT_EQ(s.sliceCount(), 10u);
    EXPECT_EQ(s.counterCount(), 12u);
    EXPECT_EQ(s.droppedSlices(), 0u);
    EXPECT_EQ(s.retired(0), 4u);
    EXPECT_EQ(s.retired(7), 0u);  // never-seen core reads as zero
    EXPECT_EQ(s.coresSeen(), 1u);

    // Wrong-path rows carry the block base as their pc, correct-path
    // rows the triggering instruction's pc.
    const EventStore &cs = s;
    bool sawWrongPath = false;
    for (std::size_t i = 0; i < cs.sliceCount(); ++i) {
        if (cs.sliceCorrect()[i])
            continue;
        sawWrongPath = true;
        EXPECT_EQ(cs.slicePc()[i], blockBase(cs.sliceBlock()[i]));
    }
    EXPECT_TRUE(sawWrongPath);
}

TEST(EventStore, KindAndCounterKeysRoundTrip)
{
    for (const EventKind k :
         {EventKind::Retire, EventKind::Fetch, EventKind::Prefetch}) {
        const auto parsed = eventKindFromKey(eventKindKey(k));
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(*parsed, k);
    }
    for (unsigned c = 0; c < numEventCounters; ++c) {
        const auto counter = static_cast<EventCounter>(c);
        const auto parsed =
            eventCounterFromKey(eventCounterKey(counter));
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(*parsed, counter);
    }
    EXPECT_FALSE(eventKindFromKey("fetches").has_value());
    EXPECT_FALSE(eventCounterFromKey("access").has_value());
}

TEST(EventStore, DisabledTablesRecordNothing)
{
    EventStoreOptions opts;
    opts.recordFetches = false;
    opts.recordPrefetches = false;
    opts.counterWindow = 0;
    EventStore s(opts);
    RetiredInstr ri;
    ri.pc = 0x1000;
    s.recordRetire(0, ri);
    FetchAccess fa;
    fa.block = 64;
    s.recordAccess(0, fa, 0x1000);
    s.recordPrefetchFill(0, 65);
    EXPECT_FALSE(s.counterSampleDue(0));
    EXPECT_EQ(s.sliceCount(), 0u);
    EXPECT_EQ(s.retired(0), 1u);  // the instr index still advances
}

TEST(EventStore, OverflowCapDropsAndCounts)
{
    EventStoreOptions opts;
    opts.counterWindow = 2;
    opts.recordRetires = true;
    opts.maxSlices = 3;
    EventStore s(opts);
    RetiredInstr ri;
    FetchAccess fa;
    for (int i = 0; i < 4; ++i) {
        ri.pc = 0x1000 + 4u * static_cast<unsigned>(i);
        s.recordRetire(0, ri);
        fa.block = blockAddr(ri.pc);
        s.recordAccess(0, fa, ri.pc);
        if (s.counterSampleDue(0))
            s.sampleCounters(0, CounterSnapshot{});
    }
    EXPECT_EQ(s.sliceCount(), 3u);
    EXPECT_EQ(s.droppedSlices(), 5u);
    // Counter samples are never capped.
    EXPECT_EQ(s.counterCount(), 2u * numEventCounters);

    // The cap survives the dump round trip.
    const ResultValue dump = toResult(s);
    EXPECT_EQ(dump.find("dropped_slices")->uintValue(), 5u);
}

// ----------------------------------------------------------- round trip

TEST(EventStore, JsonDumpRoundTripsExactly)
{
    const EventStore s = fixtureStore();
    const std::string json = toJson(toResult(s), 2);
    std::string err;
    const auto doc = parseJson(json, &err);
    ASSERT_TRUE(doc.has_value()) << err;
    const auto loaded = eventStoreFromResult(*doc, &err);
    ASSERT_TRUE(loaded.has_value()) << err;
    EXPECT_EQ(toJson(toResult(*loaded), 2), json);
    EXPECT_EQ(loaded->retired(0), 4u);
    EXPECT_EQ(loaded->options().counterWindow, 2u);
}

TEST(EventStore, LoaderRejectsMalformedDumps)
{
    std::string err;
    EXPECT_FALSE(eventStoreFromResult(ResultValue("nope"), &err)
                     .has_value());
    EXPECT_FALSE(err.empty());

    ResultValue bad = toResult(fixtureStore());
    bad.set("schema", "pifetch-events-v0");
    EXPECT_FALSE(eventStoreFromResult(bad, &err).has_value());
    EXPECT_NE(err.find("schema"), std::string::npos) << err;

    // A truncated column (ragged table) must refuse to load.
    bad = toResult(fixtureStore());
    ResultValue shorter = ResultValue::array();
    const ResultValue *hit = bad.find("slices")->find("hit");
    for (std::size_t i = 0; i + 1 < hit->size(); ++i)
        shorter.push(hit->at(i).uintValue());
    bad.find("slices")->set("hit", std::move(shorter));
    EXPECT_FALSE(eventStoreFromResult(bad, &err).has_value());
    EXPECT_FALSE(err.empty());

    // An out-of-range kind byte must refuse to load, not wrap into
    // a valid row class.
    bad = toResult(fixtureStore());
    ResultValue kinds = ResultValue::array();
    const ResultValue *kind = bad.find("slices")->find("kind");
    for (std::size_t i = 0; i < kind->size(); ++i)
        kinds.push(i == 0 ? 9u : kind->at(i).uintValue());
    bad.find("slices")->set("kind", std::move(kinds));
    EXPECT_FALSE(eventStoreFromResult(bad, &err).has_value());
    EXPECT_FALSE(err.empty());
}

// ------------------------------------------------------------- parsing

TEST(Query, ParseAndCanonicalTextRoundTrip)
{
    const char *texts[] = {
        "select kind, count() from slices group by kind",
        "select count() from slices where hit == true and "
        "kind == fetch",
        "select window, sum(value) from counters where "
        "counter == accesses group by window window 1024",
        "select instr, pc, block from slices where region != 8",
        "select min(instr), max(instr), avg(value) from counters",
    };
    for (const char *text : texts) {
        std::string err;
        const auto q = parseQuery(text, &err);
        ASSERT_TRUE(q.has_value()) << text << ": " << err;
        // queryText is canonical: it parses back to itself.
        const std::string canon = queryText(*q);
        const auto again = parseQuery(canon, &err);
        ASSERT_TRUE(again.has_value()) << canon << ": " << err;
        EXPECT_EQ(queryText(*again), canon);
    }
}

TEST(Query, ParserRejectsBadInput)
{
    const char *bad[] = {
        "",
        "select",
        "select from slices",
        "select count() from nowhere",
        "select bogus from slices",
        "select count() from slices where hit == maybe",
        "select count() from slices where kind == accesses",
        "select count() from counters where counter == fetch",
        "select median(instr) from slices",
        "select count(instr) from slices",
        "select count() from slices group by",
        "select count() from slices window 0",
        "select count() from slices trailing",
        "select count() from slices where instr == 99999999999999999999",
    };
    for (const char *text : bad) {
        std::string err;
        EXPECT_FALSE(parseQuery(text, &err).has_value()) << text;
        EXPECT_FALSE(err.empty()) << text;
    }
}

TEST(Query, RunRejectsSemanticErrors)
{
    const EventStore s = fixtureStore();
    std::string err;

    // The window column without a window clause is a run-time error
    // (hand-built Query structs can hit it without the parser).
    Query q;
    q.select.push_back({false, QueryAgg::Count, "window"});
    EXPECT_FALSE(runQuery(s, q, &err).has_value());
    EXPECT_NE(err.find("window"), std::string::npos) << err;

    // A plain select item missing from group by.
    const auto parsed = parseQuery(
        "select pc, count() from slices group by kind");
    ASSERT_TRUE(parsed.has_value());
    EXPECT_FALSE(runQuery(s, *parsed, &err).has_value());
    EXPECT_NE(err.find("group by"), std::string::npos) << err;

    // Group by without any aggregate.
    const auto grouped =
        parseQuery("select kind from slices group by kind");
    ASSERT_TRUE(grouped.has_value());
    EXPECT_FALSE(runQuery(s, *grouped, &err).has_value());
    EXPECT_NE(err.find("aggregate"), std::string::npos) << err;

    // Empty select list (unreachable through the parser).
    EXPECT_FALSE(runQuery(s, Query{}, &err).has_value());
}

// ------------------------------------------------------------ operators

TEST(Query, GroupByKindMatchesHandCount)
{
    const ResultValue t = ask(
        fixtureStore(),
        "select kind, count() from slices group by kind");
    ASSERT_EQ(rowCount(t), 3u);
    EXPECT_EQ(cell(t, 0, 0).str(), "retire");
    EXPECT_EQ(cell(t, 0, 1).uintValue(), 4u);
    EXPECT_EQ(cell(t, 1, 0).str(), "fetch");
    EXPECT_EQ(cell(t, 1, 1).uintValue(), 5u);
    EXPECT_EQ(cell(t, 2, 0).str(), "prefetch");
    EXPECT_EQ(cell(t, 2, 1).uintValue(), 1u);
}

TEST(Query, EveryComparisonOperatorMatchesHandCount)
{
    const EventStore s = fixtureStore();
    const auto countWhere = [&](const std::string &pred) {
        const ResultValue t =
            ask(s, "select count() from slices where " + pred);
        return rowCount(t) == 1 ? cell(t, 0, 0).uintValue() : ~0ull;
    };
    EXPECT_EQ(countWhere("instr == 2"), 3u);
    EXPECT_EQ(countWhere("instr != 2"), 7u);
    EXPECT_EQ(countWhere("instr < 2"), 2u);
    EXPECT_EQ(countWhere("instr <= 2"), 5u);
    EXPECT_EQ(countWhere("instr > 2"), 5u);
    EXPECT_EQ(countWhere("instr >= 2"), 8u);
}

TEST(Query, FlagKindAndTrapPredicatesMatchHandCount)
{
    const EventStore s = fixtureStore();
    const auto one = [&](const std::string &text) {
        const ResultValue t = ask(s, text);
        return rowCount(t) == 1 ? cell(t, 0, 0).uintValue() : ~0ull;
    };
    EXPECT_EQ(one("select count() from slices where kind == fetch "
                  "and hit == true"),
              3u);
    EXPECT_EQ(one("select count() from slices where kind == fetch "
                  "and correct == false"),
              1u);
    EXPECT_EQ(one("select count() from slices where "
                  "prefetched == true"),
              1u);
    EXPECT_EQ(one("select count() from slices where trap > 0"), 2u);
    EXPECT_EQ(one("select count() from slices where kind == prefetch"),
              1u);
}

TEST(Query, RegionColumnGroupsBlocksByEight)
{
    const ResultValue t = ask(
        fixtureStore(),
        "select region, count() from slices where correct == true "
        "group by region");
    ASSERT_EQ(rowCount(t), 2u);
    // Region 8 (blocks 64-66): two retires, two correct fetches and
    // the prefetch fill; region 16 (blocks 128/129): two retires and
    // two correct fetches, with the wrong-path fetch filtered out.
    EXPECT_EQ(cell(t, 0, 0).uintValue(), 8u);
    EXPECT_EQ(cell(t, 0, 1).uintValue(), 5u);
    EXPECT_EQ(cell(t, 1, 0).uintValue(), 16u);  // blocks 128/129
    EXPECT_EQ(cell(t, 1, 1).uintValue(), 4u);
}

TEST(Query, AggregatesOverCountersMatchHandValues)
{
    const EventStore s = fixtureStore();

    const ResultValue maxes = ask(
        s, "select counter, max(value) from counters "
           "group by counter");
    ASSERT_EQ(rowCount(maxes), 6u);
    EXPECT_EQ(cell(maxes, 0, 0).str(), "accesses");
    EXPECT_EQ(cell(maxes, 0, 1).uintValue(), 5u);
    EXPECT_EQ(cell(maxes, 1, 0).str(), "misses");
    EXPECT_EQ(cell(maxes, 1, 1).uintValue(), 2u);
    EXPECT_EQ(cell(maxes, 2, 0).str(), "wrong_path_fetches");
    EXPECT_EQ(cell(maxes, 2, 1).uintValue(), 1u);
    EXPECT_EQ(cell(maxes, 5, 0).str(), "prefetch_fills");
    EXPECT_EQ(cell(maxes, 5, 1).uintValue(), 1u);

    const ResultValue sums = ask(
        s, "select sum(value) from counters where "
           "counter == accesses");
    ASSERT_EQ(rowCount(sums), 1u);
    EXPECT_EQ(cell(sums, 0, 0).uintValue(), 7u);  // 2 + 5

    const ResultValue span =
        ask(s, "select min(instr), max(instr) from counters");
    ASSERT_EQ(rowCount(span), 1u);
    EXPECT_EQ(cell(span, 0, 0).uintValue(), 2u);
    EXPECT_EQ(cell(span, 0, 1).uintValue(), 4u);

    const ResultValue avg = ask(
        s, "select avg(value) from counters where counter == misses");
    ASSERT_EQ(rowCount(avg), 1u);
    EXPECT_DOUBLE_EQ(cell(avg, 0, 0).number(), 1.5);  // (1 + 2) / 2
}

TEST(Query, WindowColumnBucketsInstructions)
{
    const ResultValue t = ask(
        fixtureStore(),
        "select window, count() from slices where kind == fetch "
        "group by window window 2");
    // instr/2: 1->0, 2->1, 3->1, 4->2; fetch rows per window.
    ASSERT_EQ(rowCount(t), 3u);
    EXPECT_EQ(cell(t, 0, 0).uintValue(), 0u);
    EXPECT_EQ(cell(t, 0, 1).uintValue(), 1u);
    EXPECT_EQ(cell(t, 1, 0).uintValue(), 1u);
    EXPECT_EQ(cell(t, 1, 1).uintValue(), 3u);
    EXPECT_EQ(cell(t, 2, 0).uintValue(), 2u);
    EXPECT_EQ(cell(t, 2, 1).uintValue(), 1u);
}

TEST(Query, ProjectionPreservesRecordOrderAndTypes)
{
    const ResultValue t = ask(
        fixtureStore(),
        "select instr, block, hit from slices where kind == fetch "
        "and correct == true");
    ASSERT_EQ(rowCount(t), 4u);
    EXPECT_EQ(cell(t, 0, 0).uintValue(), 1u);
    EXPECT_EQ(cell(t, 0, 1).uintValue(), 64u);
    EXPECT_FALSE(cell(t, 0, 2).boolean());
    EXPECT_EQ(cell(t, 1, 1).uintValue(), 65u);
    EXPECT_TRUE(cell(t, 1, 2).boolean());
    EXPECT_EQ(cell(t, 3, 0).uintValue(), 4u);
    EXPECT_EQ(cell(t, 3, 1).uintValue(), 128u);

    // The table is a canonical {title, columns, rows} document, so
    // the CSV renderer applies unchanged.
    const std::string csv = toCsv(t);
    EXPECT_NE(csv.find("instr,block,hit"), std::string::npos) << csv;
    EXPECT_NE(csv.find("1,64,false"), std::string::npos) << csv;
}

// ---------------------------------------------------------- empty store

TEST(Query, EmptyStoreYieldsEmptyTables)
{
    const EventStore s;
    const ResultValue proj = ask(s, "select instr from slices");
    EXPECT_EQ(rowCount(proj), 0u);
    // Aggregation over zero rows yields zero groups (not one zero
    // row): there is no group key to report.
    const ResultValue agg = ask(s, "select count() from slices");
    EXPECT_EQ(rowCount(agg), 0u);
    const ResultValue streams = missStreamLengthTable(s);
    EXPECT_EQ(rowCount(streams), 0u);
}

TEST(EventStore, SkewInjectionPerturbsExactlyOneSample)
{
    EventStore a = fixtureStore();
    const EventStore b = fixtureStore();
    const auto at =
        a.injectCounterSkew(EventCounter::Accesses, 1, 7);
    ASSERT_TRUE(at.has_value());
    EXPECT_EQ(*at, 4u);  // sample B, the second accesses row

    std::size_t diffs = 0;
    for (std::size_t i = 0; i < a.counterCount(); ++i)
        diffs += a.counterValue()[i] != b.counterValue()[i];
    EXPECT_EQ(diffs, 1u);
    EXPECT_EQ(a.sliceCount(), b.sliceCount());

    // Ordinals past the end clamp to the last sample; a counter with
    // no samples reports failure.
    EXPECT_EQ(a.injectCounterSkew(EventCounter::Misses, 99, 1), 4u);
    EventStore empty;
    EXPECT_FALSE(empty.injectCounterSkew(EventCounter::Misses, 0, 1)
                     .has_value());
}

// ----------------------------------------------------- engine recording

TEST(Query, EngineRecordingIsDeterministicAndQueryable)
{
    const SystemConfig cfg{};
    const Program prog = buildWorkloadProgram(ServerWorkload::OltpDb2);
    EventStoreOptions opts;
    opts.counterWindow = 1'024;

    const auto record = [&]() {
        EventStore store(opts);
        TraceEngine engine(
            cfg, prog, executorConfigFor(ServerWorkload::OltpDb2),
            makePrefetcher(PrefetcherKind::Pif, cfg));
        ObserverConfig obs;
        obs.events = &store;
        engine.attachObservers(obs);
        engine.run(2'000, 10'000);
        return store;
    };
    const EventStore a = record();
    const EventStore b = record();
    EXPECT_EQ(toJson(toResult(a), 0), toJson(toResult(b), 0));
    EXPECT_GT(a.sliceCount(), 0u);
    EXPECT_EQ(a.retired(0), 12'000u);
    // 12000 retires at stride 1024 = 11 boundaries, 6 counters each.
    EXPECT_EQ(a.counterCount(), 11u * numEventCounters);

    // The recorded fetch count matches a whole-store query, and the
    // sampled access counter is cumulative (last sample <= total).
    const ResultValue fetches = ask(
        a, "select count() from slices where kind == fetch");
    ASSERT_EQ(rowCount(fetches), 1u);
    EXPECT_GT(cell(fetches, 0, 0).uintValue(), 0u);
    const ResultValue last = ask(
        a, "select max(value) from counters where "
           "counter == accesses");
    const ResultValue total = ask(
        a, "select count() from slices where kind == fetch and "
           "correct == true");
    EXPECT_LE(cell(last, 0, 0).uintValue(),
              cell(total, 0, 0).uintValue());
}

} // namespace
} // namespace pifetch
