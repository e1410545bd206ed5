/**
 * @file
 * Cross-module property sweeps: invariants that must hold for any
 * seed and any workload shape, exercised over a parameter grid.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_set>

#include "common/histogram.hh"
#include "pif/pif_prefetcher.hh"
#include "sim/trace_engine.hh"
#include "sim/workloads.hh"
#include "trace/generator.hh"

namespace pifetch {
namespace {

WorkloadParams
gridParams(std::uint64_t seed, unsigned layers, double app_calls)
{
    WorkloadParams p;
    p.name = "grid";
    p.seed = seed;
    p.appFunctions = 300;
    p.libFunctions = 60;
    p.handlers = 4;
    p.callLayers = layers;
    p.meanAppCalls = app_calls;
    p.transactions = 4;
    p.interruptRate = 5e-5;
    return p;
}

/** (seed, callLayers, meanAppCalls) grid. */
class WorkloadGrid
    : public ::testing::TestWithParam<
          std::tuple<std::uint64_t, unsigned, double>>
{
  protected:
    WorkloadParams
    params() const
    {
        const auto [seed, layers, calls] = GetParam();
        return gridParams(seed, layers, calls);
    }
};

TEST_P(WorkloadGrid, ProgramValidatesAndExecutes)
{
    const Program prog = WorkloadGenerator::build(params());
    ExecutorConfig ec;
    ec.seed = std::get<0>(GetParam()) ^ 0xabc;
    ec.interruptRate = params().interruptRate;
    Executor exec(prog, ec);

    RetiredInstr prev = exec.next();
    for (int i = 0; i < 60'000; ++i) {
        const RetiredInstr cur = exec.next();
        if (cur.trapLevel == prev.trapLevel) {
            ASSERT_EQ(cur.pc, prev.nextPc()) << "at " << i;
        }
        ASSERT_LE(cur.trapLevel, 1);
        ASSERT_LT(cur.pc, prog.codeEnd);
        prev = cur;
    }
}

TEST_P(WorkloadGrid, PifNeverIncreasesMisses)
{
    const Program prog = WorkloadGenerator::build(params());
    ExecutorConfig ec;
    ec.seed = std::get<0>(GetParam()) ^ 0xdef;
    ec.interruptRate = params().interruptRate;

    SystemConfig cfg;
    cfg.l1i.sizeBytes = 16 * 1024;  // small: force pressure

    TraceEngine base(cfg, prog, ec, std::make_unique<NullPrefetcher>());
    const TraceRunResult rb = base.run(100'000, 200'000);

    TraceEngine pif(cfg, prog, ec,
                    std::make_unique<PifPrefetcher>(cfg.pif));
    const TraceRunResult rp = pif.run(100'000, 200'000);

    // The access stream is identical; PIF may only convert misses to
    // hits (pollution can steal a few back, hence the 10% slack).
    EXPECT_EQ(rb.accesses, rp.accesses);
    EXPECT_LT(rp.misses, rb.misses + rb.misses / 10 + 50);
}

TEST_P(WorkloadGrid, CompactionNeverLosesBlocks)
{
    // Every block that retires must be covered by the union of the
    // regions PIF records (trigger or set neighbour bit), so replay
    // can in principle prefetch everything.
    const Program prog = WorkloadGenerator::build(params());
    ExecutorConfig ec;
    ec.seed = std::get<0>(GetParam());
    ec.interruptRate = 0.0;
    Executor exec(prog, ec);

    SpatialCompactor compactor(2, 5);
    std::vector<SpatialRegion> recs;
    std::vector<Addr> blocks;
    Addr last = invalidAddr;
    for (int i = 0; i < 50'000; ++i) {
        const RetiredInstr r = exec.next();
        const Addr b = blockAddr(r.pc);
        if (b != last) {
            last = b;
            blocks.push_back(b);
        }
        if (auto rec = compactor.observe(r.pc, true, r.trapLevel))
            recs.push_back(*rec);
    }
    if (auto rec = compactor.flush())
        recs.push_back(*rec);

    std::unordered_set<Addr> covered;
    for (const SpatialRegion &rec : recs) {
        const Addr t = rec.triggerBlock();
        covered.insert(t);
        for (unsigned i = 0; i < 32; ++i) {
            if (rec.bits & (std::uint32_t{1} << i))
                covered.insert(t + SpatialRegion::offsetOf(i, 2));
        }
    }
    for (Addr b : blocks)
        ASSERT_TRUE(covered.count(b)) << "block " << b << " lost";
}

INSTANTIATE_TEST_SUITE_P(
    Grid, WorkloadGrid,
    ::testing::Combine(::testing::Values(1u, 42u, 1337u),
                       ::testing::Values(4u, 8u, 12u),
                       ::testing::Values(1.5, 2.0)));

// ---------------------------------------------------------------------
// Histogram boundary properties: zero, bucket-edge and overflow
// samples must land in well-defined buckets for any geometry.

/** Bucket-count grid for the log2 histogram. */
class Log2Boundary : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(Log2Boundary, ZeroEdgeAndOverflowBucketing)
{
    const unsigned max_log2 = GetParam();
    Log2Histogram h(max_log2);
    ASSERT_EQ(h.buckets(), max_log2 + 1);

    // Zero and one both land in bucket 0.
    h.add(0);
    h.add(1);
    EXPECT_DOUBLE_EQ(h.weightAt(0), 2.0);

    // Exact powers of two land in their own bucket; one below lands
    // one bucket lower (except 2^1 - 1 == 1, which is bucket 0).
    for (unsigned k = 1; k <= max_log2; ++k) {
        Log2Histogram p(max_log2);
        p.add(std::uint64_t{1} << k);
        EXPECT_DOUBLE_EQ(p.weightAt(k), 1.0) << "2^" << k;
        p.add((std::uint64_t{1} << k) - 1);
        EXPECT_DOUBLE_EQ(p.weightAt(k == 1 ? 0 : k - 1), 1.0)
            << "2^" << k << " - 1";
        EXPECT_EQ(p.highestBucket(), k);
    }

    // Values past the top bucket clamp into it instead of dropping.
    Log2Histogram o(max_log2);
    o.add(std::uint64_t{1} << 63);
    o.add(~std::uint64_t{0});
    EXPECT_DOUBLE_EQ(o.weightAt(max_log2), 2.0);
    EXPECT_DOUBLE_EQ(o.totalWeight(), 2.0);
    EXPECT_DOUBLE_EQ(o.cumulativeAt(max_log2), 1.0);
}

INSTANTIATE_TEST_SUITE_P(Geometries, Log2Boundary,
                         ::testing::Values(1u, 4u, 10u, 40u));

/** Upper-bound grids for the range histogram. */
class RangeBoundary
    : public ::testing::TestWithParam<std::vector<std::uint64_t>>
{
};

TEST_P(RangeBoundary, EdgesClampAndLabelsMatch)
{
    const std::vector<std::uint64_t> bounds = GetParam();
    RangeHistogram h(bounds);
    ASSERT_EQ(h.ranges(), bounds.size());

    // Zero (below every range) lands in the first range.
    h.add(0);
    EXPECT_DOUBLE_EQ(h.weightAt(0), 1.0);

    // Each inclusive upper bound lands in its own range; one above
    // moves to the next (or clamps at the top).
    for (unsigned r = 0; r < bounds.size(); ++r) {
        RangeHistogram p(bounds);
        p.add(bounds[r]);
        EXPECT_DOUBLE_EQ(p.weightAt(r), 1.0) << "bound " << bounds[r];
        p.add(bounds[r] + 1);
        const unsigned expect =
            r + 1 < bounds.size() ? r + 1 : r;
        EXPECT_DOUBLE_EQ(p.weightAt(expect) +
                             (expect == r ? -1.0 : 0.0),
                         1.0)
            << "bound+1 " << bounds[r] + 1;
    }

    // Far overflow clamps into the last range, keeping the total.
    RangeHistogram o(bounds);
    o.add(~std::uint64_t{0});
    EXPECT_DOUBLE_EQ(o.weightAt(o.ranges() - 1), 1.0);
    EXPECT_DOUBLE_EQ(o.totalWeight(), 1.0);

    // Fractions sum to 1.
    double sum = 0.0;
    for (unsigned r = 0; r < o.ranges(); ++r)
        sum += o.fractionAt(r);
    EXPECT_NEAR(sum, 1.0, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, RangeBoundary,
    ::testing::Values(std::vector<std::uint64_t>{1},
                      std::vector<std::uint64_t>{1, 2, 4, 8, 16, 32},
                      std::vector<std::uint64_t>{5, 100, 1000}));

/** (lo, hi) grid for the linear histogram. */
class LinearBoundary
    : public ::testing::TestWithParam<std::pair<int, int>>
{
};

TEST_P(LinearBoundary, EndpointsCountAndOutOfRangeDrops)
{
    const auto [lo, hi] = GetParam();
    LinearHistogram h(lo, hi);

    // Both inclusive endpoints are in range...
    h.add(lo);
    h.add(hi);
    EXPECT_DOUBLE_EQ(h.weightAt(lo), lo == hi ? 2.0 : 1.0);
    EXPECT_DOUBLE_EQ(h.weightAt(hi), lo == hi ? 2.0 : 1.0);
    EXPECT_DOUBLE_EQ(h.totalWeight(), 2.0);
    EXPECT_DOUBLE_EQ(h.dropped(), 0.0);

    // ...and one past either endpoint is dropped but accounted.
    h.add(lo - 1, 0.5);
    h.add(hi + 1, 0.25);
    EXPECT_DOUBLE_EQ(h.totalWeight(), 2.0);
    EXPECT_DOUBLE_EQ(h.dropped(), 0.75);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, LinearBoundary,
    ::testing::Values(std::pair<int, int>{-4, 12},
                      std::pair<int, int>{0, 0},
                      std::pair<int, int>{-8, -2},
                      std::pair<int, int>{3, 7}));

} // namespace
} // namespace pifetch
