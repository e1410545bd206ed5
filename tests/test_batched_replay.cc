/**
 * @file
 * Batched-vs-scalar differential suite for the SoA replay pipeline.
 *
 * The batched replay loop must be a pure reorganization: at any batch
 * length the engines retire the same instruction stream, observe the
 * same fetch accesses, and record byte-identical event-store rows and
 * windowed counter samples. This suite pins that equivalence on the
 * six server presets and two workload-zoo specs by comparing each
 * engine at the default batch length against the scalar-order (length
 * 1) reference, and locks the streaming SoA trace decoder against the
 * records TraceWriter wrote.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <utility>
#include <unistd.h>

#include "check/invariants.hh"
#include "query/event_store.hh"
#include "sim/cycle_engine.hh"
#include "sim/trace_engine.hh"
#include "sim/workloads.hh"
#include "test_util.hh"
#include "trace/trace_io.hh"
#include "trace/workload_spec.hh"

namespace pifetch {
namespace {

constexpr InstCount kWarmup = 20'000;
constexpr InstCount kMeasure = 60'000;

/**
 * Event-store shape for same-engine comparisons: fine counter stride
 * and every slice kind on — unlike the cross-engine oracles, batching
 * must reproduce even the timing-sensitive prefetch rows exactly.
 */
EventStoreOptions
fullRecordingOptions()
{
    EventStoreOptions opts;
    opts.counterWindow = 1'024;
    opts.recordPrefetches = true;
    return opts;
}

/** Every slice and counter column must match byte for byte. */
void
expectStoresIdentical(const EventStore &a, const EventStore &b,
                      const std::string &label)
{
    EXPECT_GT(a.sliceCount(), 0u) << label;
    EXPECT_GT(a.counterCount(), 0u) << label;
    EXPECT_EQ(a.sliceInstr(), b.sliceInstr()) << label;
    EXPECT_EQ(a.slicePc(), b.slicePc()) << label;
    EXPECT_EQ(a.sliceBlock(), b.sliceBlock()) << label;
    EXPECT_EQ(a.sliceKind(), b.sliceKind()) << label;
    EXPECT_EQ(a.sliceCore(), b.sliceCore()) << label;
    EXPECT_EQ(a.sliceTrap(), b.sliceTrap()) << label;
    EXPECT_EQ(a.sliceHit(), b.sliceHit()) << label;
    EXPECT_EQ(a.slicePrefetched(), b.slicePrefetched()) << label;
    EXPECT_EQ(a.sliceCorrect(), b.sliceCorrect()) << label;
    EXPECT_EQ(a.counterInstr(), b.counterInstr()) << label;
    EXPECT_EQ(a.counterCore(), b.counterCore()) << label;
    EXPECT_EQ(a.counterId(), b.counterId()) << label;
    EXPECT_EQ(a.counterValue(), b.counterValue()) << label;
}

/** One observed functional run at the given batch length. */
TraceRunResult
traceRunAt(const Program &prog, const ExecutorConfig &exec,
           PrefetcherKind kind, std::uint32_t batch_len,
           EventStore &events)
{
    const SystemConfig cfg{};
    TraceEngine engine(cfg, prog, exec, makePrefetcher(kind, cfg));
    engine.setBatchLen(batch_len);
    ObserverConfig obs;
    obs.digests = true;
    obs.events = &events;
    engine.attachObservers(obs);
    return engine.run(kWarmup, kMeasure);
}

/** One observed timed run at the given batch length. */
CycleRunResult
cycleRunAt(const Program &prog, const ExecutorConfig &exec,
           PrefetcherKind kind, std::uint32_t batch_len,
           EventStore &events)
{
    const SystemConfig cfg{};
    CycleEngine engine(cfg, prog, exec, kind);
    engine.setBatchLen(batch_len);
    ObserverConfig obs;
    obs.digests = true;
    obs.events = &events;
    engine.attachObservers(obs);
    return engine.run(kWarmup, kMeasure);
}

/** Batched-vs-scalar equivalence of both engines on one workload. */
void
expectBatchLengthInvariant(const Program &prog,
                           const ExecutorConfig &exec,
                           const std::string &label)
{
    for (const PrefetcherKind kind :
         {PrefetcherKind::None, PrefetcherKind::Pif}) {
        const std::string at =
            label + "/" + prefetcherName(kind);

        EventStore batched_events(fullRecordingOptions());
        EventStore scalar_events(fullRecordingOptions());
        const TraceRunResult batched = traceRunAt(
            prog, exec, kind, recordBatchLen, batched_events);
        const TraceRunResult scalar =
            traceRunAt(prog, exec, kind, 1, scalar_events);

        EXPECT_NE(batched.retireDigest, 0u) << at;
        std::vector<CheckFailure> failures;
        checkTraceIdentical(batched, scalar, "batch-length-invariance",
                            failures);
        for (const CheckFailure &f : failures)
            ADD_FAILURE() << at << ": " << f.invariant << ": "
                          << f.detail;
        expectStoresIdentical(batched_events, scalar_events, at);

        EventStore cyc_batched_events(fullRecordingOptions());
        EventStore cyc_scalar_events(fullRecordingOptions());
        const CycleRunResult cb = cycleRunAt(
            prog, exec, kind, recordBatchLen, cyc_batched_events);
        const CycleRunResult cs =
            cycleRunAt(prog, exec, kind, 1, cyc_scalar_events);

        failures.clear();
        checkCountersIdentical(cb, cs, "batch-length-invariance", true,
                               failures);
        for (const CheckFailure &f : failures)
            ADD_FAILURE() << at << " (cycle): " << f.invariant << ": "
                          << f.detail;
        EXPECT_EQ(cb.cycles, cs.cycles) << at;
        EXPECT_EQ(cb.userInstrs, cs.userInstrs) << at;
        EXPECT_EQ(cb.fetchStallCycles, cs.fetchStallCycles) << at;
        EXPECT_EQ(cb.branchPenaltyCycles, cs.branchPenaltyCycles) << at;
        EXPECT_EQ(cb.demandMisses, cs.demandMisses) << at;
        EXPECT_EQ(cb.latePrefetches, cs.latePrefetches) << at;
        EXPECT_EQ(cb.prefetchFills, cs.prefetchFills) << at;
        EXPECT_EQ(cb.l2Hits, cs.l2Hits) << at;
        EXPECT_EQ(cb.l2Misses, cs.l2Misses) << at;
        EXPECT_DOUBLE_EQ(cb.uipc, cs.uipc) << at;
        expectStoresIdentical(cyc_batched_events, cyc_scalar_events,
                              at + " (cycle)");
    }
}

class PresetBatched : public ::testing::TestWithParam<ServerWorkload>
{
};

TEST_P(PresetBatched, BatchedMatchesScalarOrder)
{
    const ServerWorkload w = GetParam();
    const Program prog = buildWorkloadProgram(w);
    expectBatchLengthInvariant(prog, executorConfigFor(w),
                               workloadKey(w));
}

TEST(ZooBatched, BatchedMatchesScalarOrderOnZooSpecs)
{
    const std::vector<WorkloadZooEntry> zoo = workloadZoo();
    ASSERT_GE(zoo.size(), 2u);
    for (std::size_t i = 0; i < 2; ++i) {
        std::string err;
        auto spec = loadWorkloadSpecFile(zoo[i].path, &err);
        ASSERT_TRUE(spec.has_value()) << zoo[i].key << ": " << err;
        const WorkloadRef ref = workloadRefFromSpec(std::move(*spec));
        expectBatchLengthInvariant(ref.buildProgram(),
                                   ref.executorConfig(), zoo[i].key);
    }
}

TEST(UnobservedBatched, BulkFastPathMatchesObservedScalarCounters)
{
    // The bulk no-op-run fast path (and the lean decode it enables)
    // only engages when no observers are attached; the observed run
    // takes the per-instruction path. Observation is read-only, so
    // every simulation counter must agree between the two, and the
    // batch length must not matter for the unobserved run either.
    const ServerWorkload w = ServerWorkload::OltpDb2;
    const Program prog = buildWorkloadProgram(w);
    const SystemConfig cfg{};

    const auto runAt = [&](std::uint32_t batch_len, bool observe) {
        TraceEngine engine(cfg, prog, executorConfigFor(w),
                           makePrefetcher(PrefetcherKind::Pif, cfg));
        engine.setBatchLen(batch_len);
        if (observe) {
            ObserverConfig obs;
            obs.digests = true;
            engine.attachObservers(obs);
        }
        return engine.run(kWarmup, kMeasure);
    };

    const TraceRunResult bulk = runAt(recordBatchLen, false);
    const TraceRunResult bulk1 = runAt(1, false);
    TraceRunResult observed = runAt(recordBatchLen, true);

    std::vector<CheckFailure> failures;
    checkTraceIdentical(bulk, bulk1, "unobserved-batch-invariance",
                        failures);
    // Digest fields are zero on both unobserved runs; mask them off
    // the observed reference so only the simulation counters compare.
    observed.retireDigest = bulk.retireDigest;
    observed.accessDigest = bulk.accessDigest;
    checkTraceIdentical(bulk, observed, "unobserved-vs-observed",
                        failures);
    for (const CheckFailure &f : failures)
        ADD_FAILURE() << f.invariant << ": " << f.detail;
    EXPECT_GT(bulk.instrs, 0u);
}

class BatchReaderTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        path_ = ::testing::TempDir() + "pifetch_batch_reader_test.bin";
    }

    void TearDown() override { std::remove(path_.c_str()); }

    /** A stream long enough to span several disk chunks. */
    static std::vector<RetiredInstr>
    sampleTrace(std::size_t n)
    {
        std::vector<RetiredInstr> recs;
        recs.reserve(n);
        for (std::size_t i = 0; i < n; ++i) {
            RetiredInstr r;
            r.pc = 0x40'0000 + static_cast<Addr>(i) * instrBytes;
            if (i % 7 == 3) {
                r.kind = InstrKind::CondBranch;
                r.target = 0x41'0000 + static_cast<Addr>(i % 97) * 64;
                r.taken = i % 2 == 0;
            }
            r.trapLevel = i % 13 == 0 ? 1 : 0;
            recs.push_back(r);
        }
        return recs;
    }

    std::string path_;
};

TEST_F(BatchReaderTest, DecodesExactlyWhatWasWritten)
{
    const std::vector<RetiredInstr> original = sampleTrace(100'000);
    ASSERT_TRUE(testutil::writeRecords(path_, original));

    TraceBatchReader reader;
    ASSERT_TRUE(reader.open(path_));
    EXPECT_EQ(reader.count(), original.size());

    RecordBatch batch;
    std::size_t seen = 0;
    while (reader.next(batch)) {
        for (std::uint32_t i = 0; i < batch.size; ++i, ++seen) {
            ASSERT_LT(seen, original.size());
            const RetiredInstr got = batch.get(i);
            const RetiredInstr &want = original[seen];
            ASSERT_EQ(got.pc, want.pc) << "record " << seen;
            ASSERT_EQ(got.target, want.target) << "record " << seen;
            ASSERT_EQ(got.kind, want.kind) << "record " << seen;
            ASSERT_EQ(got.trapLevel, want.trapLevel)
                << "record " << seen;
            ASSERT_EQ(got.taken, want.taken) << "record " << seen;
            ASSERT_EQ(batch.block[i], blockAddr(want.pc))
                << "record " << seen;
        }
    }
    EXPECT_FALSE(reader.failed());
    EXPECT_EQ(seen, original.size());
    EXPECT_EQ(reader.decoded(), original.size());
}

TEST_F(BatchReaderTest, HonorsSmallBatchCaps)
{
    ASSERT_TRUE(testutil::writeRecords(path_, sampleTrace(1'000)));
    TraceBatchReader reader;
    ASSERT_TRUE(reader.open(path_));
    RecordBatch batch;
    std::size_t seen = 0;
    while (reader.next(batch, 7)) {
        EXPECT_LE(batch.size, 7u);
        seen += batch.size;
    }
    EXPECT_EQ(seen, 1'000u);
    EXPECT_FALSE(reader.failed());
}

TEST_F(BatchReaderTest, RejectsBadMagic)
{
    ASSERT_TRUE(testutil::writeRecords(path_, sampleTrace(64)));
    std::FILE *f = std::fopen(path_.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    const std::uint32_t junk = 0xdeadbeef;
    ASSERT_EQ(std::fwrite(&junk, sizeof(junk), 1, f), 1u);
    ASSERT_EQ(std::fclose(f), 0);

    TraceBatchReader reader;
    EXPECT_FALSE(reader.open(path_));
}

TEST_F(BatchReaderTest, RejectsTruncatedPayload)
{
    ASSERT_TRUE(testutil::writeRecords(path_, sampleTrace(64)));
    std::FILE *f = std::fopen(path_.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, 0, SEEK_END), 0);
    const long size = std::ftell(f);
    ASSERT_EQ(std::fclose(f), 0);
    ASSERT_EQ(0, truncate(path_.c_str(), size - 10));

    // The count-vs-payload validation fires at open, before any
    // record is decoded.
    TraceBatchReader reader;
    EXPECT_FALSE(reader.open(path_));
}

TEST_F(BatchReaderTest, MissingFileFailsOpen)
{
    TraceBatchReader reader;
    EXPECT_FALSE(reader.open(path_ + ".nope"));
}

TEST_F(BatchReaderTest, ReplayBatchFeedsTheBatchedPipeline)
{
    // End-to-end: decode a captured trace with the SoA reader and push
    // it through TraceEngine::replayBatch; the cache must observe the
    // stream (nonzero accesses) deterministically across two replays.
    ASSERT_TRUE(testutil::writeRecords(path_, sampleTrace(50'000)));

    const auto replay = [&]() {
        const SystemConfig cfg{};
        const Program prog =
            buildWorkloadProgram(ServerWorkload::WebApache);
        TraceEngine engine(
            cfg, prog, executorConfigFor(ServerWorkload::WebApache),
            makePrefetcher(PrefetcherKind::Pif, cfg));
        ObserverConfig obs;
        obs.digests = true;
        engine.attachObservers(obs);
        TraceBatchReader reader;
        EXPECT_TRUE(reader.open(path_));
        RecordBatch batch;
        while (reader.next(batch))
            engine.replayBatch(batch);
        EXPECT_FALSE(reader.failed());
        return std::make_pair(engine.retireDigest(),
                              engine.accessDigest());
    };
    const auto a = replay();
    const auto b = replay();
    EXPECT_NE(a.first, 0u);
    EXPECT_NE(a.second, 0u);
    EXPECT_EQ(a, b);
}

INSTANTIATE_TEST_SUITE_P(
    AllSix, PresetBatched, ::testing::ValuesIn(allServerWorkloads()),
    [](const ::testing::TestParamInfo<ServerWorkload> &info) {
        std::string n =
            workloadGroup(info.param) + workloadName(info.param);
        n.erase(std::remove(n.begin(), n.end(), ' '), n.end());
        return n;
    });

} // namespace
} // namespace pifetch
