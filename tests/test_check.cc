/**
 * @file
 * Validation-subsystem tests: scenario fuzzing/serialization, the
 * invariant evaluators, the shrinker and the check runner.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "check/checker.hh"
#include "common/digest.hh"
#include "common/rng.hh"
#include "query/event_store.hh"

namespace pifetch {
namespace {

// ------------------------------------------------------------ digests

TEST(StreamDigest, OrderAndContentSensitive)
{
    StreamDigest ab;
    ab.add(1);
    ab.add(2);
    StreamDigest ba;
    ba.add(2);
    ba.add(1);
    EXPECT_NE(ab.value(), ba.value());

    StreamDigest ab2;
    ab2.add(1);
    ab2.add(2);
    EXPECT_EQ(ab.value(), ab2.value());

    ab2.reset();
    EXPECT_EQ(ab2.value(), StreamDigest().value());

    // Every one of these edits of a seeded six-word stream must move
    // the digest.
    const auto digestOf = [](const std::vector<std::uint64_t> &words) {
        StreamDigest d;
        for (const std::uint64_t w : words)
            d.add(w);
        return d.value();
    };
    Rng rng(24);
    std::vector<std::uint64_t> words(6);
    for (std::uint64_t &w : words)
        w = rng.next();
    const std::uint64_t base = digestOf(words);

    for (std::size_t i = 0; i < words.size(); ++i) {
        for (unsigned bit = 0; bit < 64; ++bit) {
            std::vector<std::uint64_t> v = words;
            v[i] ^= std::uint64_t{1} << bit;
            EXPECT_NE(digestOf(v), base) << "word " << i << " bit " << bit;
        }
    }
    for (std::size_t i = 0; i + 1 < words.size(); ++i) {
        std::vector<std::uint64_t> v = words;
        std::swap(v[i], v[i + 1]);
        EXPECT_NE(digestOf(v), base) << "swap " << i;
    }
    // A difference confined to the top bit survives a bare multiply
    // unchanged, so two such flips would cancel.
    constexpr std::uint64_t top = std::uint64_t{1} << 63;
    for (std::size_t i = 0; i < words.size(); ++i) {
        for (std::size_t j = i + 1; j < words.size(); ++j) {
            std::vector<std::uint64_t> v = words;
            v[i] ^= top;
            v[j] ^= top;
            EXPECT_NE(digestOf(v), base) << "top bits " << i << ", " << j;
        }
    }
    std::vector<std::uint64_t> longer = words;
    longer.push_back(0);
    EXPECT_NE(digestOf(longer), base);
}

// ----------------------------------------------------------- scenarios

TEST(Scenario, FromSeedIsDeterministic)
{
    const std::string a = toJson(toResult(scenarioFromSeed(7)), 0);
    EXPECT_EQ(a, toJson(toResult(scenarioFromSeed(7)), 0));
    EXPECT_NE(a, toJson(toResult(scenarioFromSeed(8)), 0));
}

TEST(Scenario, FuzzedPointsAreAlwaysValid)
{
    for (std::uint64_t seed = 1; seed <= 500; ++seed) {
        const Scenario sc = scenarioFromSeed(seed);
        const auto err = validateScenario(sc);
        EXPECT_FALSE(err.has_value())
            << "seed " << seed << ": " << err.value_or("");
    }
}

TEST(Scenario, JsonRoundTripIsExact)
{
    for (const std::uint64_t seed : {1ull, 17ull, 42ull}) {
        const Scenario sc = scenarioFromSeed(seed);
        const std::string json = toJson(toResult(sc), 2);
        std::string err;
        const auto doc = parseJson(json, &err);
        ASSERT_TRUE(doc.has_value()) << err;
        const auto parsed = scenarioFromResult(*doc, &err);
        ASSERT_TRUE(parsed.has_value()) << err;
        EXPECT_EQ(toJson(toResult(*parsed), 2), json);
    }
}

TEST(Scenario, EveryConfigKeySurvivesTheRoundTrip)
{
    // Each table key at a value other than its default, all valid
    // together: every one must come back from the file.
    const std::vector<std::pair<std::string, std::string>> changed = {
        {"seed", "7"},
        {"l1i.sizeBytes", "32768"},
        {"l1i.assoc", "4"},
        {"l1i.mshrs", "8"},
        {"memory.memLatency", "300"},
        {"memory.l2HitLatency", "40"},
        {"core.robEntries", "24"},
        {"core.dispatchWidth", "2"},
        {"core.retireWidth", "2"},
        {"pif.blocksBefore", "1"},
        {"pif.blocksAfter", "3"},
        {"pif.temporalEntries", "2"},
        {"pif.historyRegions", "1024"},
        {"pif.indexEntries", "1024"},
        {"pif.indexAssoc", "2"},
        {"pif.numSabs", "2"},
        {"pif.sabWindowRegions", "3"},
        {"pif.separateTrapLevels", "false"},
        {"tifs.historyEntries", "1024"},
        {"tifs.numSabs", "2"},
        {"tifs.sabWindowBlocks", "6"},
        {"nextLine.degree", "2"},
    };
    ASSERT_EQ(changed.size(), configKeys().size());
    Scenario sc = scenarioFromSeed(1);
    sc.cfg = SystemConfig{};
    const ResultValue defaults = configToResult(sc.cfg);
    for (const auto &[key, value] : changed)
        ASSERT_TRUE(applyConfigOverride(sc.cfg, key, value)) << key;
    ASSERT_FALSE(validateScenario(sc).has_value());

    std::string err;
    const auto doc = parseJson(toJson(toResult(sc), 2), &err);
    ASSERT_TRUE(doc.has_value()) << err;
    const auto back = scenarioFromResult(*doc, &err);
    ASSERT_TRUE(back.has_value()) << err;
    EXPECT_TRUE(back->cfg == sc.cfg);
    const ResultValue written = configToResult(back->cfg);
    for (const std::string &key : configKeys()) {
        ASSERT_NE(written.find(key), nullptr) << key;
        EXPECT_NE(*written.find(key), *defaults.find(key)) << key;
    }
}

TEST(Scenario, ParserRefusesUnknownKeysByName)
{
    // A misspelt key would otherwise replay its field at the default,
    // and an extra one would be ignored: both replay another scenario
    // than the file claims to hold.
    const struct
    {
        const char *member, *key, *why;
    } cases[] = {
        {"config", "l1i.sizeBites",
         "scenario.config: unknown key 'l1i.sizeBites'"},
        {"config", "bogus", "scenario.config: unknown key 'bogus'"},
        {"config", "pif.numSab", "scenario.config: unknown key 'pif.numSab'"},
        {"params", "typo", "scenario.params: unknown key 'typo'"},
        {nullptr, "shrunkk", "scenario: unknown key 'shrunkk'"},
    };
    for (const auto &c : cases) {
        ResultValue doc = toResult(scenarioFromSeed(1));
        (c.member ? *doc.find(c.member) : doc).set(c.key, 1);
        std::string err;
        EXPECT_FALSE(scenarioFromResult(doc, &err).has_value()) << c.key;
        EXPECT_EQ(err, c.why);
    }
}

TEST(Scenario, ParserUnwrapsFailureDocuments)
{
    const Scenario sc = scenarioFromSeed(3);
    ResultValue wrapped = ResultValue::object();
    wrapped.set("scenario", toResult(sc));
    auto parsed = scenarioFromResult(wrapped);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(toJson(toResult(*parsed), 0), toJson(toResult(sc), 0));

    // "shrunk" wins over "scenario" when both are present.
    Scenario small = sc;
    small.measure = 5'000;
    wrapped.set("shrunk", toResult(small));
    parsed = scenarioFromResult(wrapped);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->measure, 5'000u);
}

TEST(Scenario, ParserRejectsMalformedDocuments)
{
    std::string err;
    EXPECT_FALSE(scenarioFromResult(ResultValue("text"), &err)
                     .has_value());
    EXPECT_FALSE(err.empty());

    ResultValue bad_kind = toResult(scenarioFromSeed(1));
    bad_kind.set("kind", "warp-drive");
    EXPECT_FALSE(scenarioFromResult(bad_kind, &err).has_value());

    ResultValue bad_member = toResult(scenarioFromSeed(1));
    bad_member.set("measure", "not-a-number");
    EXPECT_FALSE(scenarioFromResult(bad_member, &err).has_value());

    // A value wider than its field must fail the parse, not wrap to
    // an unrelated scenario (appFunctions is 32-bit: 2^32 + 40 would
    // otherwise truncate to 40 and "replay" something else entirely).
    ResultValue out_of_range = toResult(scenarioFromSeed(1));
    out_of_range.find("params")->set(
        "appFunctions", std::uint64_t{1} << 32 | 40u);
    EXPECT_FALSE(scenarioFromResult(out_of_range, &err).has_value());
    EXPECT_FALSE(err.empty());
}

TEST(Scenario, SpecSeedsEmitValidSpecScenarios)
{
    // A fifth of the seed space fuzzes the declarative spec layer;
    // the other four fifths must stay plain-params scenarios (their
    // draws predate the spec layer and are replay-locked).
    unsigned spec_count = 0;
    for (std::uint64_t seed = 1; seed <= 50; ++seed) {
        const Scenario sc = scenarioFromSeed(seed);
        if (seed % 5 == 3) {
            ASSERT_NE(sc.spec, nullptr) << "seed " << seed;
            const auto err = validateWorkloadSpec(*sc.spec);
            EXPECT_FALSE(err.has_value())
                << "seed " << seed << ": " << err.value_or("");
            EXPECT_GE(sc.spec->programs.size(), 1u);
            EXPECT_LE(sc.spec->programs.size(), 2u);
            EXPECT_GE(sc.spec->phases.size(), 1u);
            EXPECT_LE(sc.spec->phases.size(), 3u);
            for (const WorkloadSpecPhase &ph : sc.spec->phases) {
                EXPECT_GE(ph.instructions, 2'000u);
                EXPECT_LE(ph.instructions, 200'000u);
            }
            ++spec_count;
        } else {
            EXPECT_EQ(sc.spec, nullptr) << "seed " << seed;
        }
    }
    EXPECT_EQ(spec_count, 10u);
}

TEST(Scenario, SpecScenarioJsonRoundTripIsExact)
{
    for (const std::uint64_t seed : {3ull, 8ull, 23ull}) {
        const Scenario sc = scenarioFromSeed(seed);
        ASSERT_NE(sc.spec, nullptr);
        const std::string json = toJson(toResult(sc), 2);
        std::string err;
        const auto doc = parseJson(json, &err);
        ASSERT_TRUE(doc.has_value()) << err;
        const auto parsed = scenarioFromResult(*doc, &err);
        ASSERT_TRUE(parsed.has_value()) << err;
        ASSERT_NE(parsed->spec, nullptr);
        EXPECT_EQ(toJson(toResult(*parsed), 2), json);
    }
}

TEST(Scenario, ParserRejectsCorruptSpecMember)
{
    // Spec decoding is strict: a corrupted spec must refuse to
    // replay, not silently fall back to the params workload.
    std::string err;
    ResultValue bad = toResult(scenarioFromSeed(3));
    bad.find("workload_spec")->set("programs", "gone");
    EXPECT_FALSE(scenarioFromResult(bad, &err).has_value());
    EXPECT_FALSE(err.empty());

    bad = toResult(scenarioFromSeed(3));
    bad.find("workload_spec")->set("surprise", 1);
    EXPECT_FALSE(scenarioFromResult(bad, &err).has_value());
    EXPECT_NE(err.find("unknown key"), std::string::npos) << err;
}

TEST(Scenario, PrefetcherKeysRoundTrip)
{
    for (const PrefetcherKind k :
         {PrefetcherKind::None, PrefetcherKind::NextLine,
          PrefetcherKind::Tifs, PrefetcherKind::Discontinuity,
          PrefetcherKind::Pif, PrefetcherKind::Perfect}) {
        const auto parsed = prefetcherFromKey(prefetcherKey(k));
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(*parsed, k);
    }
    EXPECT_FALSE(prefetcherFromKey("pifx").has_value());
    EXPECT_FALSE(prefetcherFromKey("PIF").has_value());
    EXPECT_FALSE(prefetcherFromKey("").has_value());
}

TEST(Scenario, ValidateRejectsOutOfRangePoints)
{
    const Scenario good = scenarioFromSeed(1);
    EXPECT_FALSE(validateScenario(good).has_value());

    Scenario sc = good;
    sc.params.condDensity = 1.5;
    EXPECT_TRUE(validateScenario(sc).has_value());

    sc = good;
    sc.params.appFunctions = sc.params.transactions;
    EXPECT_TRUE(validateScenario(sc).has_value());

    sc = good;
    sc.cfg.l1i.sizeBytes = 1000;  // not a whole number of sets
    EXPECT_TRUE(validateScenario(sc).has_value());

    sc = good;
    sc.cfg.pif.blocksAfter = 0;
    EXPECT_TRUE(validateScenario(sc).has_value());

    // A crafted repro must fail validation, not SIGFPE in the TIFS
    // modulo or OOM in the generator.
    sc = good;
    sc.cfg.tifs.historyEntries = 0;
    EXPECT_TRUE(validateScenario(sc).has_value());

    sc = good;
    sc.params.appFunctions = 3'000'000'000u;
    EXPECT_TRUE(validateScenario(sc).has_value());

    sc = good;
    sc.cfg.pif.historyRegions = std::uint64_t{1} << 62;
    EXPECT_TRUE(validateScenario(sc).has_value());

    sc = good;
    sc.cfg.l1i.sizeBytes = std::uint64_t{1} << 60;
    sc.cfg.l1i.assoc = 1;
    EXPECT_TRUE(validateScenario(sc).has_value());

    // Budget overflow: a warmup near UINT64_MAX must not wrap the
    // warmup + measure sum under the 50M cap and hang the replay.
    sc = good;
    sc.warmup = ~std::uint64_t{0};
    sc.measure = 30'000;
    EXPECT_TRUE(validateScenario(sc).has_value());

    sc = good;
    sc.measure = 10;
    EXPECT_TRUE(validateScenario(sc).has_value());

    sc = good;
    sc.cores = 0;
    EXPECT_TRUE(validateScenario(sc).has_value());
}

// ------------------------------------------------ invariant evaluators

/** A self-consistent functional result for perturbation tests. */
TraceRunResult
cleanTrace()
{
    TraceRunResult r;
    r.instrs = 10'000;
    r.accesses = 2'000;
    r.misses = 300;
    r.wrongPathFetches = 150;
    r.mispredicts = 40;
    r.interrupts = 2;
    r.prefetchIssued = 500;
    r.prefetchFills = 400;
    r.usefulPrefetches = 350;
    r.pifCoverage = 0.8;
    r.pifCoverageTl0 = 0.85;
    r.pifCoverageTl1 = 0.4;
    r.retireDigest = 0x1234;
    r.accessDigest = 0x5678;
    return r;
}

/** The timed-engine mirror of cleanTrace(). */
CycleRunResult
cleanCycle()
{
    CycleRunResult r;
    r.cycles = 40'000;
    r.instrs = 10'000;
    r.userInstrs = 9'900;
    r.uipc = static_cast<double>(r.userInstrs) /
             static_cast<double>(r.cycles);
    r.demandMisses = 300;
    r.accesses = 2'000;
    r.misses = 300;
    r.wrongPathFetches = 150;
    r.mispredicts = 40;
    r.interrupts = 2;
    r.retireDigest = 0x1234;
    r.accessDigest = 0x5678;
    return r;
}

std::set<std::string>
invariantIds(const std::vector<CheckFailure> &failures)
{
    std::set<std::string> ids;
    for (const CheckFailure &f : failures)
        ids.insert(f.invariant);
    return ids;
}

TEST(Invariants, CleanResultsPassEveryEvaluator)
{
    std::vector<CheckFailure> out;
    checkTraceSanity(cleanTrace(), "clean", 1024, out);
    checkCycleSanity(cleanCycle(), false, out);
    checkCrossEngine(cleanTrace(), cleanCycle(), true, out);
    checkTraceIdentical(cleanTrace(), cleanTrace(), "id", out);
    checkAccessInvariance(cleanTrace(), cleanTrace(), out);
    checkCoverageMonotone(0.6, 0.7, 512, 2048, out);
    TraceRunResult twice = cleanTrace();
    twice.instrs *= 2;
    twice.accesses *= 2;
    twice.misses += 10;
    checkLengthScaling(cleanTrace(), twice, out);
    checkDegreeMonotone(500, 900, 2, 4, out);
    TraceRunResult off;
    off.instrs = 10'000;
    off.accesses = 2'000;
    off.misses = 900;
    checkPrefetchOff(off, out);
    for (const CheckFailure &f : out)
        ADD_FAILURE() << f.invariant << ": " << f.detail;
}

TEST(Invariants, TraceSanityCatchesMissOverrun)
{
    TraceRunResult r = cleanTrace();
    r.misses = r.accesses + 1;
    std::vector<CheckFailure> out;
    checkTraceSanity(r, "t", 1024, out);
    EXPECT_EQ(invariantIds(out),
              std::set<std::string>{"trace-stat-sanity"});
}

TEST(Invariants, TraceSanityHonoursWindowBoundarySlack)
{
    // Useful touches may exceed window fills by the lines resident at
    // the boundary (<= cache capacity), but not by more.
    TraceRunResult r = cleanTrace();
    r.usefulPrefetches = r.prefetchFills + 64;
    std::vector<CheckFailure> out;
    checkTraceSanity(r, "t", 64, out);
    EXPECT_TRUE(out.empty());
    r.usefulPrefetches = r.prefetchFills + 65;
    checkTraceSanity(r, "t", 64, out);
    EXPECT_EQ(invariantIds(out),
              std::set<std::string>{"trace-stat-sanity"});

    out.clear();
    r = cleanTrace();
    r.pifCoverage = 1.25;
    checkTraceSanity(r, "t", 1024, out);
    EXPECT_EQ(invariantIds(out),
              std::set<std::string>{"trace-stat-sanity"});
}

TEST(Invariants, CycleSanityCatchesInconsistentUipc)
{
    CycleRunResult r = cleanCycle();
    r.uipc *= 1.5;
    std::vector<CheckFailure> out;
    checkCycleSanity(r, false, out);
    EXPECT_EQ(invariantIds(out),
              std::set<std::string>{"cycle-stat-sanity"});

    out.clear();
    r = cleanCycle();
    r.demandMisses = r.misses + 5;
    checkCycleSanity(r, false, out);
    EXPECT_EQ(invariantIds(out),
              std::set<std::string>{"cycle-stat-sanity"});

    // The same result as a Perfect run must report zero demand misses.
    out.clear();
    checkCycleSanity(cleanCycle(), true, out);
    EXPECT_EQ(invariantIds(out),
              std::set<std::string>{"cycle-stat-sanity"});
}

TEST(Invariants, CrossEngineCatchesEveryCounterDivergence)
{
    std::vector<CheckFailure> out;

    CycleRunResult c = cleanCycle();
    c.retireDigest ^= 1;
    checkCrossEngine(cleanTrace(), c, true, out);
    EXPECT_EQ(invariantIds(out),
              std::set<std::string>{"cross-engine-retire-digest"});

    out.clear();
    c = cleanCycle();
    c.accessDigest ^= 1;
    c.mispredicts += 1;
    checkCrossEngine(cleanTrace(), c, true, out);
    EXPECT_EQ(invariantIds(out),
              (std::set<std::string>{"cross-engine-access-digest",
                                     "cross-engine-mispredicts"}));
}

TEST(Invariants, CrossEngineMissCheckRequiresInstantFills)
{
    CycleRunResult c = cleanCycle();
    c.misses += 7;
    c.demandMisses += 7;
    std::vector<CheckFailure> out;
    // With a prefetcher attached, fill timing may move misses.
    checkCrossEngine(cleanTrace(), c, false, out);
    EXPECT_TRUE(out.empty());
    // Without one, the miss streams must coincide.
    checkCrossEngine(cleanTrace(), c, true, out);
    EXPECT_EQ(invariantIds(out),
              std::set<std::string>{"cross-engine-misses"});
}

TEST(Invariants, IdenticalCatchesAnyDrift)
{
    TraceRunResult b = cleanTrace();
    b.usefulPrefetches += 1;
    b.pifCoverageTl1 += 1e-12;
    std::vector<CheckFailure> out;
    checkTraceIdentical(cleanTrace(), b, "thread-invariance", out);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(invariantIds(out),
              std::set<std::string>{"thread-invariance"});
}

TEST(Invariants, PrefetchOffCatchesActivity)
{
    TraceRunResult r;
    r.prefetchIssued = 1;
    std::vector<CheckFailure> out;
    checkPrefetchOff(r, out);
    EXPECT_EQ(invariantIds(out), std::set<std::string>{"prefetch-off"});
}

TEST(Invariants, CoverageMonotoneToleratesOnlySmallDips)
{
    std::vector<CheckFailure> out;
    checkCoverageMonotone(0.70, 0.68, 512, 2048, out);
    EXPECT_TRUE(out.empty());  // within tolerance
    checkCoverageMonotone(0.70, 0.50, 512, 2048, out);
    EXPECT_EQ(invariantIds(out),
              std::set<std::string>{"coverage-monotone-history"});
}

TEST(Invariants, LengthScalingCatchesNonMonotoneCounters)
{
    TraceRunResult once = cleanTrace();
    TraceRunResult twice = cleanTrace();
    twice.instrs *= 2;
    twice.accesses = once.accesses - 1;  // counters must not shrink
    std::vector<CheckFailure> out;
    checkLengthScaling(once, twice, out);
    EXPECT_EQ(invariantIds(out),
              std::set<std::string>{"length-scaling"});

    out.clear();
    twice = cleanTrace();
    twice.instrs *= 2;
    twice.accesses = once.accesses * 4;  // far from ~2x
    twice.misses = once.misses;
    checkLengthScaling(once, twice, out);
    EXPECT_EQ(invariantIds(out),
              std::set<std::string>{"length-scaling"});
}

TEST(Invariants, DegreeMonotoneCatchesMiscount)
{
    std::vector<CheckFailure> out;
    checkDegreeMonotone(1'000, 980, 2, 4, out);
    EXPECT_TRUE(out.empty());  // inside the back-pressure slack
    checkDegreeMonotone(1'000, 500, 2, 4, out);
    EXPECT_EQ(invariantIds(out),
              std::set<std::string>{"nextline-degree-monotone"});
}

/**
 * A four-instruction event store for the windowed evaluators: hits on
 * block 64 except one miss on @p miss_block at every index in
 * @p miss_at, with counter samples every two retires.
 */
EventStore
miniStore(Addr miss_block, const std::vector<int> &miss_at = {2})
{
    EventStoreOptions opts;
    opts.counterWindow = 2;
    EventStore s(opts);
    std::uint64_t misses = 0;
    for (int i = 0; i < 4; ++i) {
        RetiredInstr ri;
        ri.pc = 0x1000 + 4u * static_cast<unsigned>(i);
        s.recordRetire(0, ri);
        const bool miss = std::count(miss_at.begin(), miss_at.end(), i);
        misses += miss;
        FetchAccess fa;
        fa.block = miss ? miss_block : 64;
        fa.hit = !miss;
        s.recordAccess(0, fa, ri.pc);
        if (s.counterSampleDue(0)) {
            CounterSnapshot snap;
            snap.accesses = static_cast<std::uint64_t>(i) + 1;
            snap.misses = misses;
            s.sampleCounters(0, snap);
        }
    }
    return s;
}

TEST(Invariants, WindowedCountersCatchSkewAndReportFirstOnly)
{
    std::vector<CheckFailure> out;
    checkWindowedCounters(miniStore(64), miniStore(64), true, out);
    checkWindowedCounters(miniStore(64), miniStore(64), false, out);
    EXPECT_TRUE(out.empty());

    EventStore skewed = miniStore(64);
    skewed.injectCounterSkew(EventCounter::Accesses, 0, 3);
    skewed.injectCounterSkew(EventCounter::Mispredicts, 1, 1);
    checkWindowedCounters(miniStore(64), skewed, true, out);
    // Two samples disagree, but only the FIRST divergence is reported
    // — that is what localizes a bug in simulated time.
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].invariant, "windowed-counter-equality");
    EXPECT_NE(out[0].detail.find("accesses diverges at instr 2"),
              std::string::npos)
        << out[0].detail;
    EXPECT_NE(out[0].detail.find("cycle=5"), std::string::npos)
        << out[0].detail;
}

TEST(Invariants, WindowedCountersHonourFillTimingExclusion)
{
    EventStore skewed = miniStore(64);
    skewed.injectCounterSkew(EventCounter::Misses, 0, 1);
    std::vector<CheckFailure> out;
    // Misses (and prefetch fills) are fill-timing dependent: they only
    // count with instant fills, mirroring the whole-run oracle.
    checkWindowedCounters(miniStore(64), skewed, false, out);
    EXPECT_TRUE(out.empty());
    checkWindowedCounters(miniStore(64), skewed, true, out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_NE(out[0].detail.find("misses diverges"),
              std::string::npos)
        << out[0].detail;
}

TEST(Invariants, WindowedCountersCatchScheduleDrift)
{
    // A store sampled at a different stride diverges at row 0.
    EventStoreOptions coarse;
    coarse.counterWindow = 4;
    EventStore other(coarse);
    for (int i = 0; i < 4; ++i) {
        RetiredInstr ri;
        ri.pc = 0x1000 + 4u * static_cast<unsigned>(i);
        other.recordRetire(0, ri);
        if (other.counterSampleDue(0))
            other.sampleCounters(0, CounterSnapshot{});
    }
    std::vector<CheckFailure> out;
    checkWindowedCounters(miniStore(64), other, true, out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_NE(out[0].detail.find("schedules diverge"),
              std::string::npos)
        << out[0].detail;

    // A matching prefix with missing trailing samples is a count
    // mismatch, not a silent pass.
    out.clear();
    EventStore shorter(EventStoreOptions{});
    checkWindowedCounters(miniStore(64), shorter, true, out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_NE(out[0].detail.find("counter-sample counts differ"),
              std::string::npos)
        << out[0].detail;
}

TEST(Invariants, RegionMissProfileLocalizesTheFirstBadRegion)
{
    std::vector<CheckFailure> out;
    checkRegionMissProfile(miniStore(64), miniStore(64), out);
    EXPECT_TRUE(out.empty());

    // Blocks 64 and 128 are 8-block regions 8 and 16: a miss moved
    // across regions names the region seen by only one engine.
    checkRegionMissProfile(miniStore(64), miniStore(128), out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].invariant, "region-miss-profile");
    EXPECT_NE(
        out[0].detail.find("region 8 misses only in the trace engine"),
        std::string::npos)
        << out[0].detail;

    out.clear();
    checkRegionMissProfile(miniStore(64), miniStore(64, {2, 3}), out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_NE(out[0].detail.find(
                  "region 8 miss counts diverge: trace=1 cycle=2"),
              std::string::npos)
        << out[0].detail;
}

// ------------------------------------------------------------ shrinker

TEST(Shrinker, PlantedViolationShrinksToCanonicalMinimum)
{
    // Start from a fuzzed point with the budget already trimmed so
    // every probe is cheap; the planted degree mis-count fails every
    // scenario, so the shrinker must drive each dimension to its
    // floor.
    Scenario sc = scenarioFromSeed(1);
    sc.warmup = 2'000;
    sc.measure = 8'000;

    const auto still = [](const Scenario &cand) {
        for (const CheckFailure &f :
             runScenario(cand, FaultInjection::DegreeMiscount)) {
            if (f.invariant == "nextline-degree-monotone")
                return true;
        }
        return false;
    };

    unsigned steps = 0;
    const Scenario min1 = shrinkScenario(sc, still, &steps);
    EXPECT_GT(steps, 0u);
    EXPECT_EQ(min1.measure, 4'000u);
    EXPECT_EQ(min1.warmup, 0u);
    EXPECT_EQ(min1.threads, 1u);
    EXPECT_EQ(min1.cores, 1u);
    EXPECT_EQ(min1.kind, PrefetcherKind::None);
    EXPECT_EQ(min1.params.appFunctions, 40u);
    EXPECT_EQ(min1.params.libFunctions, 8u);
    EXPECT_EQ(min1.params.handlers, 4u);
    EXPECT_EQ(min1.params.transactions, 2u);
    EXPECT_EQ(min1.params.interruptRate, 0.0);
    EXPECT_EQ(min1.params.loopsPerFunction, 0.0);
    EXPECT_EQ(min1.params.callLayers, 2u);
    EXPECT_EQ(min1.cfg.pif.historyRegions, 512u);
    EXPECT_EQ(min1.cfg.pif.numSabs, 1u);
    EXPECT_EQ(min1.cfg.nextLine.degree, 1u);
    EXPECT_EQ(min1.cfg.l1i.sizeBytes, 16u * 1024);
    EXPECT_EQ(min1.cfg.l1i.assoc, 1u);
    // The minimal scenario still fails and still replays.
    EXPECT_TRUE(still(min1));
    EXPECT_FALSE(validateScenario(min1).has_value());

    // Deterministic: shrinking the same failure twice converges to
    // the identical scenario.
    const Scenario min2 = shrinkScenario(sc, still, nullptr);
    EXPECT_EQ(toJson(toResult(min1), 0), toJson(toResult(min2), 0));
}

TEST(Shrinker, WindowMiscountShrinksToCanonicalFloor)
{
    // The windowed-counter oracle must survive shrinking: the skew
    // lands on the second 1024-instruction sample, which exists in
    // every probe down to the 4000-instruction measure floor, so the
    // shrinker reaches the same canonical point as the other faults
    // and the floor scenario still names instruction window 2048.
    Scenario sc = scenarioFromSeed(1);
    sc.warmup = 2'000;
    sc.measure = 8'000;

    const auto still = [](const Scenario &cand) {
        for (const CheckFailure &f :
             runScenario(cand, FaultInjection::WindowMiscount)) {
            if (f.invariant == "windowed-counter-equality")
                return true;
        }
        return false;
    };

    unsigned steps = 0;
    const Scenario min1 = shrinkScenario(sc, still, &steps);
    EXPECT_GT(steps, 0u);
    EXPECT_EQ(min1.measure, 4'000u);
    EXPECT_EQ(min1.warmup, 0u);
    EXPECT_EQ(min1.threads, 1u);
    EXPECT_EQ(min1.cores, 1u);
    EXPECT_EQ(min1.kind, PrefetcherKind::None);
    EXPECT_TRUE(still(min1));
    EXPECT_FALSE(validateScenario(min1).has_value());

    bool named_window = false;
    for (const CheckFailure &f :
         runScenario(min1, FaultInjection::WindowMiscount)) {
        if (f.detail.find("instr 2048") != std::string::npos)
            named_window = true;
    }
    EXPECT_TRUE(named_window);

    const Scenario min2 = shrinkScenario(sc, still, nullptr);
    EXPECT_EQ(toJson(toResult(min1), 0), toJson(toResult(min2), 0));
}

TEST(Shrinker, SpecScenarioShrinksToCanonicalMinimalSpec)
{
    // The spec-mode twin of PlantedViolationShrinksToCanonicalMinimum:
    // a fault that fails everywhere must drive the shrink into spec
    // coordinates — schedule dropped, one program left, its params at
    // the same floors as the plain shrink.
    Scenario sc = scenarioFromSeed(3);
    ASSERT_NE(sc.spec, nullptr);
    sc.warmup = 2'000;
    sc.measure = 8'000;

    const auto still = [](const Scenario &cand) {
        for (const CheckFailure &f :
             runScenario(cand, FaultInjection::DegreeMiscount)) {
            if (f.invariant == "nextline-degree-monotone")
                return true;
        }
        return false;
    };

    unsigned steps = 0;
    const Scenario min1 = shrinkScenario(sc, still, &steps);
    EXPECT_GT(steps, 0u);
    ASSERT_NE(min1.spec, nullptr);  // never shrinks out of spec space
    EXPECT_TRUE(min1.spec->phases.empty());
    ASSERT_EQ(min1.spec->programs.size(), 1u);
    const WorkloadParams &p = min1.spec->programs[0].params;
    EXPECT_EQ(p.appFunctions, 40u);
    EXPECT_EQ(p.libFunctions, 8u);
    EXPECT_EQ(p.handlers, 4u);
    EXPECT_EQ(p.transactions, 2u);
    EXPECT_EQ(p.interruptRate, 0.0);
    EXPECT_EQ(p.loopsPerFunction, 0.0);
    EXPECT_EQ(p.callLayers, 2u);
    EXPECT_EQ(p.maxCallDepth, 6u);
    EXPECT_EQ(min1.measure, 4'000u);
    EXPECT_EQ(min1.warmup, 0u);
    EXPECT_EQ(min1.threads, 1u);
    EXPECT_EQ(min1.cores, 1u);
    EXPECT_EQ(min1.kind, PrefetcherKind::None);
    EXPECT_TRUE(still(min1));
    EXPECT_FALSE(validateScenario(min1).has_value());

    // Deterministic, and the canonical point replays through JSON.
    const Scenario min2 = shrinkScenario(sc, still, nullptr);
    EXPECT_EQ(toJson(toResult(min1), 0), toJson(toResult(min2), 0));
    std::string err;
    const auto replayed = scenarioFromResult(toResult(min1), &err);
    ASSERT_TRUE(replayed.has_value()) << err;
    EXPECT_EQ(toJson(toResult(*replayed), 0), toJson(toResult(min1), 0));
}

TEST(Shrinker, AcceptsOnlyMovesThatKeepTheFailure)
{
    // A predicate keyed on a property of the scenario itself (not the
    // simulator): fails iff measure > 6000. The shrinker may reduce
    // measure only down to the smallest still-failing value.
    Scenario sc = scenarioFromSeed(2);
    sc.warmup = 1'000;
    sc.measure = 48'000;
    const auto still = [](const Scenario &cand) {
        return cand.measure > 6'000;
    };
    const Scenario min = shrinkScenario(sc, still, nullptr);
    EXPECT_GT(min.measure, 6'000u);
    EXPECT_LE(min.measure, 12'000u);  // one halving above the limit
}

// --------------------------------------------------------- check runner

TEST(Checker, FaultKeysRoundTrip)
{
    const std::vector<FaultInjection> all = allFaultInjections();
    EXPECT_EQ(all.size(), 4u);
    for (const FaultInjection f : all) {
        const auto parsed = faultFromKey(faultKey(f));
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(*parsed, f);
    }
    EXPECT_EQ(faultKey(FaultInjection::WindowMiscount),
              "window-miscount");
    EXPECT_FALSE(faultFromKey("degree").has_value());
}

TEST(Checker, CleanSeedsPass)
{
    CheckOptions opts;
    opts.seeds = 3;
    opts.threads = 2;
    const CheckReport report = runCheck(opts);
    EXPECT_EQ(report.seedsRun, 3u);
    for (const ScenarioReport &r : report.failures) {
        for (const CheckFailure &f : r.failures)
            ADD_FAILURE() << "seed " << r.scenario.seed << ": "
                          << f.invariant << ": " << f.detail;
    }
    EXPECT_TRUE(report.passed());

    const ResultValue doc = toResult(report);
    ASSERT_NE(doc.find("passed"), nullptr);
    EXPECT_TRUE(doc.find("passed")->boolean());
    EXPECT_EQ(doc.find("seeds")->uintValue(), 3u);
    EXPECT_EQ(doc.find("failed")->uintValue(), 0u);
}

TEST(Checker, InjectedFaultsAreCaughtOnEverySeed)
{
    CheckOptions opts;
    opts.seeds = 2;
    opts.threads = 2;
    opts.shrink = false;  // keep the suite fast; shrink has its own test
    opts.inject = FaultInjection::DegreeMiscount;
    const CheckReport report = runCheck(opts);
    ASSERT_EQ(report.failures.size(), 2u);
    for (const ScenarioReport &r : report.failures) {
        EXPECT_EQ(invariantIds(r.failures),
                  std::set<std::string>{"nextline-degree-monotone"});
        EXPECT_FALSE(r.shrunkValid);
    }

    const ResultValue doc = toResult(report);
    EXPECT_FALSE(doc.find("passed")->boolean());
    EXPECT_EQ(doc.find("failures")->size(), 2u);
    // Each failure entry embeds a replayable scenario.
    const ResultValue &entry = doc.find("failures")->at(0);
    std::string err;
    EXPECT_TRUE(scenarioFromResult(entry, &err).has_value()) << err;
}

TEST(Checker, CoverageDropInjectionTripsTheFig9Oracle)
{
    CheckOptions opts;
    opts.seeds = 1;
    opts.threads = 1;
    opts.shrink = false;
    opts.inject = FaultInjection::CoverageDrop;
    const CheckReport report = runCheck(opts);
    ASSERT_EQ(report.failures.size(), 1u);
    EXPECT_EQ(invariantIds(report.failures[0].failures),
              std::set<std::string>{"coverage-monotone-history"});
}

} // namespace
} // namespace pifetch
