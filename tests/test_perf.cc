/**
 * @file
 * Perf-subsystem tests: timer monotonicity, the warm-up/repeat
 * protocol's invocation and op-count contracts, and the BENCH_*.json
 * schema that scripts/perf_compare.py and the CI perf gate consume.
 *
 * Timings themselves are never asserted on (they are host noise); the
 * contracts under test are the deterministic parts — call counts, op
 * counts, key sets and the JSON round trip.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "common/results.hh"
#include "perf/harness.hh"
#include "perf/kernels.hh"
#include "perf/timer.hh"

namespace pifetch {
namespace {

TEST(PerfTimer, MonotonicSecondsNeverDecreases)
{
    double prev = monotonicSeconds();
    for (int i = 0; i < 1000; ++i) {
        const double now = monotonicSeconds();
        ASSERT_LE(prev, now);
        prev = now;
    }
}

TEST(PerfTimer, StopWatchElapsedIsNonNegativeAndMonotonic)
{
    StopWatch watch;
    double prev = watch.elapsedSeconds();
    EXPECT_GE(prev, 0.0);
    for (int i = 0; i < 1000; ++i) {
        const double now = watch.elapsedSeconds();
        ASSERT_LE(prev, now);
        prev = now;
    }
    watch.restart();
    EXPECT_GE(watch.elapsedSeconds(), 0.0);
}

TEST(PerfHarness, ProtocolRunsWarmupPlusTimedReps)
{
    PerfProtocol protocol;
    protocol.warmupReps = 2;
    protocol.reps = 5;
    unsigned calls = 0;
    const KernelTiming t = measureKernel("counted", protocol, 123, 456,
                                         [&] { ++calls; });
    EXPECT_EQ(calls, 7u);
    EXPECT_EQ(t.name, "counted");
    EXPECT_EQ(t.opsPerRep, 123u);
    EXPECT_EQ(t.bytesPerRep, 456u);
    EXPECT_EQ(t.repSeconds.size(), 5u);
    for (double s : t.repSeconds)
        EXPECT_GE(s, 0.0);
}

TEST(PerfHarness, MedianIsRobustToOneOutlier)
{
    KernelTiming t;
    t.opsPerRep = 1000;
    t.repSeconds = {0.010, 0.010, 5.0};  // one scheduling hiccup
    EXPECT_DOUBLE_EQ(t.medianSeconds(), 0.010);
    EXPECT_DOUBLE_EQ(t.opsPerSec(), 100000.0);

    // Even rep count: mean of the middle pair.
    t.repSeconds = {0.010, 0.020, 0.030, 5.0};
    EXPECT_DOUBLE_EQ(t.medianSeconds(), 0.025);

    // No measurements: defined zeros, not division by zero.
    t.repSeconds.clear();
    EXPECT_DOUBLE_EQ(t.medianSeconds(), 0.0);
    EXPECT_DOUBLE_EQ(t.opsPerSec(), 0.0);
}

/** Tiny-budget options so the whole suite runs in test time. */
PerfOptions
tinyOptions()
{
    PerfOptions opts;
    opts.scale = 0.01;
    opts.protocol.warmupReps = 0;
    opts.protocol.reps = 1;
    return opts;
}

TEST(PerfSuite, OpCountsAreDeterministicAcrossRuns)
{
    // Timings vary run to run; the op counts (the denominator of every
    // reported throughput) must not.
    const PerfOptions opts = tinyOptions();
    const ResultValue a = runPerfSuite(opts);
    const ResultValue b = runPerfSuite(opts);

    const ResultValue *ka = a.find("kernels");
    const ResultValue *kb = b.find("kernels");
    ASSERT_NE(ka, nullptr);
    ASSERT_NE(kb, nullptr);
    ASSERT_EQ(ka->size(), kb->size());
    ASSERT_GE(ka->size(), 4u);
    for (std::size_t i = 0; i < ka->size(); ++i) {
        SCOPED_TRACE(ka->at(i).find("name")->str());
        EXPECT_EQ(*ka->at(i).find("name"), *kb->at(i).find("name"));
        EXPECT_EQ(*ka->at(i).find("ops"), *kb->at(i).find("ops"));
        EXPECT_EQ(*ka->at(i).find("bytes"), *kb->at(i).find("bytes"));
    }
}

TEST(PerfSuite, BenchJsonRoundTripsWithExpectedKeys)
{
    PerfOptions opts = tinyOptions();
    // Two cheap kernels keep this fast while still exercising the
    // selection path.
    opts.kernels = {"cache-lookup", "trace-decode-soa"};
    const ResultValue doc = runPerfSuite(opts);

    // The CLI writes exactly toJson(doc); the gate parses it back.
    std::string err;
    const auto parsed = parseJson(toJson(doc, 2), &err);
    ASSERT_TRUE(parsed.has_value()) << err;
    EXPECT_EQ(*parsed, doc);

    ASSERT_NE(parsed->find("experiment"), nullptr);
    EXPECT_EQ(parsed->find("experiment")->str(), "perf");
    const ResultValue *meta = parsed->find("meta");
    ASSERT_NE(meta, nullptr);
    for (const char *key : {"git", "reps", "warmup_reps", "scale",
                            "workload", "seed"})
        EXPECT_NE(meta->find(key), nullptr) << key;

    const ResultValue *kernels = parsed->find("kernels");
    ASSERT_NE(kernels, nullptr);
    ASSERT_EQ(kernels->size(), 2u);
    EXPECT_EQ(kernels->at(0).find("name")->str(), "cache-lookup");
    EXPECT_EQ(kernels->at(1).find("name")->str(), "trace-decode-soa");
    for (std::size_t i = 0; i < kernels->size(); ++i) {
        const ResultValue &k = kernels->at(i);
        for (const char *key : {"name", "ops", "reps", "warmup_reps",
                                "median_sec", "ops_per_sec",
                                "bytes_per_sec", "rep_seconds"}) {
            ASSERT_NE(k.find(key), nullptr) << key;
        }
        EXPECT_TRUE(k.find("ops")->isNumber());
        EXPECT_TRUE(k.find("ops_per_sec")->isNumber());
        EXPECT_EQ(k.find("rep_seconds")->size(),
                  k.find("reps")->uintValue());
    }

    // The human-readable rendering must exist too (one table).
    const ResultValue *tables = parsed->find("tables");
    ASSERT_NE(tables, nullptr);
    ASSERT_EQ(tables->size(), 1u);
}

TEST(PerfSuite, KernelRegistryIsWellFormed)
{
    std::set<std::string> names;
    for (const PerfKernelSpec &k : perfKernels()) {
        EXPECT_FALSE(k.name.empty());
        EXPECT_FALSE(k.description.empty());
        EXPECT_TRUE(static_cast<bool>(k.run));
        EXPECT_TRUE(names.insert(k.name).second)
            << "duplicate kernel " << k.name;
        EXPECT_EQ(findPerfKernel(k.name), &k);
    }
    // The acceptance bar: at least four distinct kernels.
    EXPECT_GE(names.size(), 4u);
    EXPECT_EQ(findPerfKernel("no-such-kernel"), nullptr);
}

} // namespace
} // namespace pifetch
