/**
 * @file
 * Spatial compactor tests, including the paper's Figure 5 example.
 */

#include <gtest/gtest.h>

#include "pif/spatial_compactor.hh"

namespace pifetch {
namespace {

/** PC of instruction @p i inside block @p b. */
Addr
pcOf(Addr b, unsigned i = 0)
{
    return blockBase(b) + i * instrBytes;
}

TEST(SpatialRegion, BitIndexRoundTrips)
{
    for (int off = -2; off <= 5; ++off) {
        if (off == 0)
            continue;
        const unsigned i = SpatialRegion::bitIndex(off, 2);
        EXPECT_EQ(SpatialRegion::offsetOf(i, 2), off);
    }
}

TEST(SpatialRegion, CoversRequiresSubsetAndSameTrigger)
{
    SpatialRegion a;
    a.triggerPc = 0x1000;
    a.bits = 0b101;
    SpatialRegion b = a;
    b.bits = 0b001;
    EXPECT_TRUE(a.covers(b));
    EXPECT_FALSE(b.covers(a));
    b.triggerPc = 0x1004;
    EXPECT_FALSE(a.covers(b));
}

TEST(SpatialCompactor, CollapsesSameBlockPcs)
{
    SpatialCompactor c(2, 5);
    EXPECT_FALSE(c.observe(pcOf(10, 0), true, 0).has_value());
    EXPECT_FALSE(c.observe(pcOf(10, 1), true, 0).has_value());
    EXPECT_FALSE(c.observe(pcOf(10, 2), true, 0).has_value());
    const auto rec = c.flush();
    ASSERT_TRUE(rec.has_value());
    EXPECT_EQ(rec->triggerPc, pcOf(10, 0));
    EXPECT_TRUE(rec->isTriggerOnly());
}

TEST(SpatialCompactor, AccumulatesNeighboursIntoBitVector)
{
    SpatialCompactor c(2, 5);
    c.observe(pcOf(100), true, 0);       // trigger
    c.observe(pcOf(101), true, 0);       // +1
    c.observe(pcOf(99), true, 0);        // -1
    c.observe(pcOf(105), true, 0);       // +5
    const auto rec = c.observe(pcOf(200), true, 0);  // out of region
    ASSERT_TRUE(rec.has_value());
    EXPECT_EQ(rec->triggerBlock(), 100u);
    EXPECT_TRUE(rec->testOffset(1, 2));
    EXPECT_TRUE(rec->testOffset(-1, 2));
    EXPECT_TRUE(rec->testOffset(5, 2));
    EXPECT_FALSE(rec->testOffset(2, 2));
    EXPECT_EQ(rec->popCount(), 3u);
}

TEST(SpatialCompactor, PaperFigure5Sequence)
{
    // Figure 5: region = 1 block preceding + 2 succeeding the trigger.
    // Retired: PCA, PCA+2 (trigger+2), PCB (outside), PCA-1?, ...
    // We replay the figure's left column: PCA, PCA+2, PCB.
    SpatialCompactor c(1, 2);
    const Addr block_a = 1000;
    const Addr block_b = 2000;

    // Step 1-3: PCA opens the region, PCA+2 sets the second succeeding
    // bit -> vector (succ) "01" with trigger A.
    EXPECT_FALSE(c.observe(pcOf(block_a), true, 0).has_value());
    EXPECT_FALSE(c.observe(pcOf(block_a + 2), true, 0).has_value());

    // Step 4: PCB retires outside the region: PCA's record (bits 101
    // reading prec|succ as in the figure: prec=0? here -1 unset,
    // +2 set) is emitted.
    const auto rec_a = c.observe(pcOf(block_b), true, 0);
    ASSERT_TRUE(rec_a.has_value());
    EXPECT_EQ(rec_a->triggerBlock(), block_a);
    EXPECT_FALSE(rec_a->testOffset(-1, 1));
    EXPECT_FALSE(rec_a->testOffset(1, 1));
    EXPECT_TRUE(rec_a->testOffset(2, 1));

    // Step 5-6: PCA recurs: PCB's (empty) record is emitted.
    const auto rec_b = c.observe(pcOf(block_a), true, 0);
    ASSERT_TRUE(rec_b.has_value());
    EXPECT_EQ(rec_b->triggerBlock(), block_b);
    EXPECT_TRUE(rec_b->isTriggerOnly());

    // The preceding block A-1 now lands in the open region.
    EXPECT_FALSE(c.observe(pcOf(block_a - 1), true, 0).has_value());
    const auto rec_a2 = c.flush();
    ASSERT_TRUE(rec_a2.has_value());
    EXPECT_TRUE(rec_a2->testOffset(-1, 1));
}

TEST(SpatialCompactor, TriggerCarriesTagAndTrapLevel)
{
    SpatialCompactor c(2, 5);
    c.observe(pcOf(50), false, 1);
    c.observe(pcOf(51), true, 1);  // neighbour tag is irrelevant
    const auto rec = c.flush();
    ASSERT_TRUE(rec.has_value());
    EXPECT_FALSE(rec->triggerTagged);
    EXPECT_EQ(rec->trapLevel, 1);
}

TEST(SpatialCompactor, BackwardJumpOutsideRegionClosesIt)
{
    SpatialCompactor c(2, 5);
    c.observe(pcOf(100), true, 0);
    const auto rec = c.observe(pcOf(97), true, 0);  // -3: outside
    ASSERT_TRUE(rec.has_value());
    EXPECT_EQ(rec->triggerBlock(), 100u);
}

TEST(SpatialCompactor, RevisitingTriggerBlockSetsNoBits)
{
    SpatialCompactor c(2, 5);
    c.observe(pcOf(100), true, 0);
    c.observe(pcOf(101), true, 0);
    c.observe(pcOf(100, 3), true, 0);  // back to the trigger block
    const auto rec = c.flush();
    ASSERT_TRUE(rec.has_value());
    EXPECT_EQ(rec->popCount(), 1u);  // only +1
}

TEST(SpatialCompactor, FlushOnEmptyIsEmpty)
{
    SpatialCompactor c(2, 5);
    EXPECT_FALSE(c.flush().has_value());
}

TEST(SpatialCompactorDeath, RejectsOversizedRegion)
{
    EXPECT_EXIT(SpatialCompactor(16, 16),
                ::testing::ExitedWithCode(1), "too large");
}

/** Property sweep over geometries: every emitted bit is in range. */
class CompactorGeometry
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>>
{
};

TEST_P(CompactorGeometry, EmittedBitsRespectGeometry)
{
    const auto [before, after] = GetParam();
    SpatialCompactor c(before, after);
    std::uint64_t x = 123456789;
    std::vector<SpatialRegion> recs;
    for (int i = 0; i < 5000; ++i) {
        x = x * 6364136223846793005ull + 1;
        const Addr block = 1000 + (x >> 55);  // blocks in [1000, 1512)
        if (auto r = c.observe(pcOf(block), true, 0))
            recs.push_back(*r);
    }
    ASSERT_FALSE(recs.empty());
    const unsigned width = before + after;
    for (const SpatialRegion &r : recs) {
        if (width < 32) {
            EXPECT_EQ(r.bits >> width, 0u);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CompactorGeometry,
    ::testing::Combine(::testing::Values(0u, 1u, 2u, 4u),
                       ::testing::Values(0u, 1u, 2u, 5u, 12u)));

} // namespace
} // namespace pifetch
