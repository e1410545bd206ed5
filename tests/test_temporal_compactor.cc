/**
 * @file
 * Temporal compactor tests (loop-redundancy filtering).
 */

#include <gtest/gtest.h>

#include "pif/temporal_compactor.hh"

namespace pifetch {
namespace {

SpatialRegion
rec(Addr trigger_pc, std::uint32_t bits)
{
    SpatialRegion r;
    r.triggerPc = trigger_pc;
    r.bits = bits;
    return r;
}

TEST(TemporalCompactor, FirstRecordAdmitted)
{
    TemporalCompactor tc(4);
    EXPECT_TRUE(tc.admit(rec(0x100, 0b11)));
    EXPECT_EQ(tc.presented(), 1u);
    EXPECT_EQ(tc.filtered(), 0u);
}

TEST(TemporalCompactor, ExactRepeatFiltered)
{
    TemporalCompactor tc(4);
    tc.admit(rec(0x100, 0b11));
    EXPECT_FALSE(tc.admit(rec(0x100, 0b11)));
    EXPECT_EQ(tc.filtered(), 1u);
}

TEST(TemporalCompactor, SubsetFiltered)
{
    TemporalCompactor tc(4);
    tc.admit(rec(0x100, 0b111));
    EXPECT_FALSE(tc.admit(rec(0x100, 0b010)));
    EXPECT_FALSE(tc.admit(rec(0x100, 0)));
}

TEST(TemporalCompactor, SupersetAdmitted)
{
    // New blocks appear: the record is NOT a subset, so it records.
    TemporalCompactor tc(4);
    tc.admit(rec(0x100, 0b001));
    EXPECT_TRUE(tc.admit(rec(0x100, 0b011)));
}

TEST(TemporalCompactor, DifferentTriggerAdmitted)
{
    TemporalCompactor tc(4);
    tc.admit(rec(0x100, 0b1));
    EXPECT_TRUE(tc.admit(rec(0x200, 0b1)));
}

TEST(TemporalCompactor, LruEvictionForgetsOldRecords)
{
    TemporalCompactor tc(2);
    tc.admit(rec(0x100, 1));
    tc.admit(rec(0x200, 1));
    tc.admit(rec(0x300, 1));  // evicts 0x100
    EXPECT_EQ(tc.size(), 2u);
    EXPECT_TRUE(tc.admit(rec(0x100, 1)));  // re-admitted: was evicted
}

TEST(TemporalCompactor, MatchPromotesToMru)
{
    TemporalCompactor tc(2);
    tc.admit(rec(0x100, 1));
    tc.admit(rec(0x200, 1));
    // Touch 0x100 so 0x200 becomes LRU.
    EXPECT_FALSE(tc.admit(rec(0x100, 1)));
    tc.admit(rec(0x300, 1));  // evicts 0x200
    EXPECT_FALSE(tc.admit(rec(0x100, 1)));  // still resident
    EXPECT_TRUE(tc.admit(rec(0x200, 1)));   // was evicted
}

TEST(TemporalCompactor, TightLoopScenario)
{
    // A loop spanning two regions: only the first iteration records.
    TemporalCompactor tc(4);
    unsigned recorded = 0;
    for (int iter = 0; iter < 100; ++iter) {
        recorded += tc.admit(rec(0x100, 0b011)) ? 1 : 0;
        recorded += tc.admit(rec(0x500, 0b001)) ? 1 : 0;
    }
    EXPECT_EQ(recorded, 2u);
}

TEST(TemporalCompactorDeath, RejectsZeroEntries)
{
    EXPECT_EXIT(TemporalCompactor(0), ::testing::ExitedWithCode(1),
                "at least one");
}

} // namespace
} // namespace pifetch
