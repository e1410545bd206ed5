/**
 * @file
 * Experiment driver tests (cheap versions of every figure).
 */

#include <gtest/gtest.h>

#include "sim/experiment.hh"

namespace pifetch {
namespace {

ExperimentBudget
smallBudget()
{
    ExperimentBudget b;
    b.warmup = 300'000;
    b.measure = 700'000;
    return b;
}

const WorkloadRef db2 = ServerWorkload::OltpDb2;

TEST(Fig2, CoverageOrderingMatchesPaper)
{
    // The paper's Figure 2 story: retire-order streams beat access
    // streams beat miss streams, and trap-level separation adds a
    // little more.
    const Fig2Result r = runFig2(ServerWorkload::OltpDb2, smallBudget());
    EXPECT_GT(r.correctPathMisses, 1000u);
    EXPECT_GT(r.retireSepCoverage, r.missCoverage);
    EXPECT_GE(r.retireSepCoverage, r.retireCoverage - 0.002);
    EXPECT_GT(r.retireCoverage, r.accessCoverage - 0.005);
    for (double c : {r.missCoverage, r.accessCoverage, r.retireCoverage,
                     r.retireSepCoverage}) {
        EXPECT_GE(c, 0.0);
        EXPECT_LE(c, 1.0);
    }
}

TEST(Fig3, FractionsFormDistribution)
{
    const Fig3Result r = runFig3(ServerWorkload::OltpDb2, 500'000);
    EXPECT_GT(r.regions, 1000u);
    double sum = 0.0;
    for (unsigned i = 0; i < r.density.ranges(); ++i)
        sum += r.density.fractionAt(i);
    EXPECT_NEAR(sum, 1.0, 1e-9);

    // Section 3.1: more than half of the regions reference more than
    // one block.
    EXPECT_LT(r.density.fractionAt(0), 0.5);

    // Most regions are a single contiguous group; some discontinuous.
    EXPECT_GT(r.groups.fractionAt(0), 0.5);
    EXPECT_GT(1.0 - r.groups.fractionAt(0), 0.02);
}

TEST(Fig7, JumpDistancesSpreadAcrossScales)
{
    const Log2Histogram h = runFig7(ServerWorkload::OltpDb2, 500'000);
    EXPECT_GT(h.totalWeight(), 0.0);
    // Jumps must not all be short: the paper's deep-history argument.
    EXPECT_GT(h.highestBucket(), 10u);
    EXPECT_LT(h.cumulativeAt(8), 0.9);
}

TEST(Fig8Left, NeighbourAccessesSkewForward)
{
    const LinearHistogram h =
        runFig8Left(ServerWorkload::OltpDb2, 500'000);
    EXPECT_GT(h.totalWeight(), 0.0);
    // Succeeding blocks dominate preceding ones (Section 5.2)...
    double before = 0.0;
    double after = 0.0;
    for (int off = -4; off <= -1; ++off)
        before += h.fractionAt(off);
    for (int off = 1; off <= 12; ++off)
        after += h.fractionAt(off);
    EXPECT_GT(after, before);
    // ...but backward accesses occur with significant frequency.
    EXPECT_GT(before, 0.02);
    // Frequency decays with forward distance.
    EXPECT_GT(h.fractionAt(1), h.fractionAt(8));
}

TEST(Fig8Right, CoverageGrowsWithRegionSize)
{
    const Program prog = db2.buildProgram();
    std::vector<Fig8RightPoint> points;
    for (const RegionGeometry &g : fig8Geometries)
        points.push_back(runFig8Right(db2, prog, smallBudget(), g));
    ASSERT_EQ(points.size(), 5u);
    EXPECT_EQ(points.front().regionBlocks, 1u);
    EXPECT_EQ(points.back().regionBlocks, 8u);
    // 8-block regions beat single-block regions at TL0.
    EXPECT_GT(points.back().tl0Coverage,
              points.front().tl0Coverage);
    for (const auto &p : points) {
        EXPECT_GE(p.tl0Coverage, 0.0);
        EXPECT_LE(p.tl0Coverage, 1.0);
        EXPECT_GE(p.tl1Coverage, 0.0);
        EXPECT_LE(p.tl1Coverage, 1.0);
    }
}

TEST(Fig9Left, LongStreamsContribute)
{
    const Log2Histogram h = runFig9Left(ServerWorkload::OltpDb2,
                                        500'000);
    EXPECT_GT(h.totalWeight(), 0.0);
    // Streams longer than 32 regions contribute meaningfully
    // (Section 5.3's medium/long stream argument).
    EXPECT_LT(h.cumulativeAt(5), 0.98);
}

TEST(Fig9Right, CoverageGrowsWithHistorySize)
{
    const Program prog = db2.buildProgram();
    std::vector<double> coverage;
    for (std::uint64_t regions : {2048, 32768, 524288})
        coverage.push_back(runFig9Right(db2, prog, smallBudget(), regions));
    // Monotone within tolerance (Section 5.4).
    EXPECT_GE(coverage[1], coverage[0] - 0.01);
    EXPECT_GE(coverage[2], coverage[1] - 0.01);
    EXPECT_GT(coverage[2], 0.7);
}

TEST(Fig10Coverage, PifWinsAndIsNearPerfect)
{
    const Program prog = db2.buildProgram();
    const auto misses = [&](PrefetcherKind k) {
        return runFig10Coverage(db2, prog, smallBudget(), k);
    };
    const std::uint64_t base = misses(PrefetcherKind::None);
    const double nl = missCoverage(base, misses(PrefetcherKind::NextLine));
    const double tifs = missCoverage(base, misses(PrefetcherKind::Tifs));
    const double pif = missCoverage(base, misses(PrefetcherKind::Pif));
    EXPECT_GT(pif, tifs);
    EXPECT_GT(pif, nl);
    EXPECT_GT(pif, 0.85);       // "nearly perfect coverage"
    EXPECT_GT(tifs, 0.4);       // TIFS well above zero...
    EXPECT_LT(tifs, pif - 0.03);  // ...but clearly below PIF
}

TEST(Fig10Speedup, OrderingAndPerfectBound)
{
    const Program prog = db2.buildProgram();
    const auto uipc = [&](PrefetcherKind k) {
        return runFig10Speedup(db2, prog, smallBudget(), k);
    };
    const double base = uipc(PrefetcherKind::None);
    const double none = base / base;
    const double pif = uipc(PrefetcherKind::Pif) / base;
    const double perfect = uipc(PrefetcherKind::Perfect) / base;
    EXPECT_DOUBLE_EQ(none, 1.0);
    EXPECT_GT(pif, 1.05);
    EXPECT_GE(perfect, pif - 0.05);
}

} // namespace
} // namespace pifetch
