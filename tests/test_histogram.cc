/**
 * @file
 * Histogram unit tests.
 */

#include <gtest/gtest.h>

#include "common/histogram.hh"

namespace pifetch {
namespace {

TEST(Log2Histogram, EmptyHasZeroFractions)
{
    Log2Histogram h(10);
    EXPECT_DOUBLE_EQ(h.totalWeight(), 0.0);
    EXPECT_DOUBLE_EQ(h.fractionAt(0), 0.0);
    EXPECT_DOUBLE_EQ(h.cumulativeAt(10), 0.0);
    EXPECT_EQ(h.highestBucket(), 0u);
}

TEST(Log2Histogram, ZeroAndOneShareBucketZero)
{
    Log2Histogram h(10);
    h.add(0);
    h.add(1);
    EXPECT_DOUBLE_EQ(h.weightAt(0), 2.0);
    EXPECT_DOUBLE_EQ(h.fractionAt(0), 1.0);
}

TEST(Log2Histogram, PowerOfTwoBoundaries)
{
    Log2Histogram h(10);
    h.add(2);   // bucket 1
    h.add(3);   // bucket 1
    h.add(4);   // bucket 2
    h.add(7);   // bucket 2
    h.add(8);   // bucket 3
    EXPECT_DOUBLE_EQ(h.weightAt(1), 2.0);
    EXPECT_DOUBLE_EQ(h.weightAt(2), 2.0);
    EXPECT_DOUBLE_EQ(h.weightAt(3), 1.0);
    EXPECT_EQ(h.highestBucket(), 3u);
}

TEST(Log2Histogram, WeightsAccumulate)
{
    Log2Histogram h(10);
    h.add(16, 2.5);
    h.add(17, 1.5);
    EXPECT_DOUBLE_EQ(h.weightAt(4), 4.0);
    EXPECT_DOUBLE_EQ(h.totalWeight(), 4.0);
}

TEST(Log2Histogram, ValuesAboveRangeClampToLastBucket)
{
    Log2Histogram h(3);
    h.add(1ull << 20);
    EXPECT_DOUBLE_EQ(h.weightAt(3), 1.0);
}

TEST(Log2Histogram, CumulativeIsMonotone)
{
    Log2Histogram h(8);
    for (std::uint64_t v = 1; v < 200; ++v)
        h.add(v);
    double prev = 0.0;
    for (unsigned b = 0; b <= 8; ++b) {
        const double c = h.cumulativeAt(b);
        EXPECT_GE(c, prev);
        prev = c;
    }
    EXPECT_NEAR(h.cumulativeAt(8), 1.0, 1e-12);
}

TEST(RangeHistogram, PaperFig3Buckets)
{
    // The Figure 3 bucketing: 1, 2, 3-4, 5-8, 9-16, 17-32.
    RangeHistogram h({1, 2, 4, 8, 16, 32});
    EXPECT_EQ(h.labelAt(0), "1");
    EXPECT_EQ(h.labelAt(1), "2");
    EXPECT_EQ(h.labelAt(2), "3-4");
    EXPECT_EQ(h.labelAt(3), "5-8");
    EXPECT_EQ(h.labelAt(4), "9-16");
    EXPECT_EQ(h.labelAt(5), "17-32");
}

TEST(RangeHistogram, ValuesLandInCorrectRanges)
{
    RangeHistogram h({1, 2, 4, 8});
    h.add(1);
    h.add(2);
    h.add(3);
    h.add(4);
    h.add(5);
    h.add(8);
    EXPECT_DOUBLE_EQ(h.weightAt(0), 1.0);
    EXPECT_DOUBLE_EQ(h.weightAt(1), 1.0);
    EXPECT_DOUBLE_EQ(h.weightAt(2), 2.0);
    EXPECT_DOUBLE_EQ(h.weightAt(3), 2.0);
}

TEST(RangeHistogram, OverflowClampsToLastRange)
{
    RangeHistogram h({1, 2});
    h.add(100);
    EXPECT_DOUBLE_EQ(h.weightAt(1), 1.0);
}

TEST(RangeHistogram, FractionsSumToOne)
{
    RangeHistogram h({1, 2, 4, 8, 16, 32});
    for (std::uint64_t v = 1; v <= 40; ++v)
        h.add(v);
    double sum = 0.0;
    for (unsigned r = 0; r < h.ranges(); ++r)
        sum += h.fractionAt(r);
    EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(RangeHistogramDeath, RejectsNonIncreasingBounds)
{
    EXPECT_DEATH(RangeHistogram({2, 2}), "strictly increasing");
}

TEST(LinearHistogram, SignedDomain)
{
    LinearHistogram h(-4, 12);
    h.add(-4);
    h.add(0);
    h.add(12);
    EXPECT_DOUBLE_EQ(h.weightAt(-4), 1.0);
    EXPECT_DOUBLE_EQ(h.weightAt(0), 1.0);
    EXPECT_DOUBLE_EQ(h.weightAt(12), 1.0);
    EXPECT_DOUBLE_EQ(h.totalWeight(), 3.0);
}

TEST(LinearHistogram, OutOfRangeCountsAsDropped)
{
    LinearHistogram h(-2, 2);
    h.add(-3);
    h.add(3, 2.0);
    EXPECT_DOUBLE_EQ(h.dropped(), 3.0);
    EXPECT_DOUBLE_EQ(h.totalWeight(), 0.0);
}

TEST(LinearHistogram, FractionsNormalizeToInRangeWeight)
{
    LinearHistogram h(0, 1);
    h.add(0, 1.0);
    h.add(1, 3.0);
    EXPECT_DOUBLE_EQ(h.fractionAt(0), 0.25);
    EXPECT_DOUBLE_EQ(h.fractionAt(1), 0.75);
}

/** Property sweep: weights are conserved for any mix of values. */
class Log2HistogramProperty : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(Log2HistogramProperty, TotalEqualsSumOfBuckets)
{
    const unsigned seed = GetParam();
    Log2Histogram h(20);
    std::uint64_t x = seed * 2654435761ull + 1;
    double expected = 0.0;
    for (int i = 0; i < 1000; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        h.add(x >> 40, 1.0);
        expected += 1.0;
    }
    double sum = 0.0;
    for (unsigned b = 0; b < h.buckets(); ++b)
        sum += h.weightAt(b);
    EXPECT_NEAR(sum, expected, 1e-9);
    EXPECT_NEAR(h.totalWeight(), expected, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Log2HistogramProperty,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u));

} // namespace
} // namespace pifetch
