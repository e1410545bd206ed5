/**
 * @file
 * History buffer tests.
 */

#include <gtest/gtest.h>

#include "pif/history_buffer.hh"

namespace pifetch {
namespace {

SpatialRegion
rec(Addr trigger_pc)
{
    SpatialRegion r;
    r.triggerPc = trigger_pc;
    return r;
}

TEST(HistoryBuffer, SequenceNumbersAreMonotone)
{
    HistoryBuffer h(8);
    EXPECT_EQ(h.append(rec(1)), 0u);
    EXPECT_EQ(h.append(rec(2)), 1u);
    EXPECT_EQ(h.tail(), 2u);
}

TEST(HistoryBuffer, ReadBackWhileValid)
{
    HistoryBuffer h(4);
    const auto s0 = h.append(rec(0x100));
    const auto s1 = h.append(rec(0x200));
    EXPECT_EQ(h.at(s0).triggerPc, 0x100u);
    EXPECT_EQ(h.at(s1).triggerPc, 0x200u);
}

TEST(HistoryBuffer, OldRecordsInvalidatedByWrap)
{
    HistoryBuffer h(4);
    for (Addr i = 0; i < 6; ++i)
        h.append(rec(i));
    EXPECT_FALSE(h.valid(0));
    EXPECT_FALSE(h.valid(1));
    EXPECT_TRUE(h.valid(2));
    EXPECT_TRUE(h.valid(5));
    EXPECT_EQ(h.at(2).triggerPc, 2u);
}

TEST(HistoryBuffer, FutureSequencesInvalid)
{
    HistoryBuffer h(4);
    h.append(rec(1));
    EXPECT_FALSE(h.valid(1));
    EXPECT_FALSE(h.valid(100));
}

TEST(HistoryBuffer, UnboundedRetainsEverything)
{
    HistoryBuffer h(0);
    for (Addr i = 0; i < 1000; ++i)
        h.append(rec(i));
    EXPECT_TRUE(h.valid(0));
    EXPECT_EQ(h.at(0).triggerPc, 0u);
    EXPECT_EQ(h.at(999).triggerPc, 999u);
}

TEST(HistoryBufferDeath, ReadingInvalidPanics)
{
    HistoryBuffer h(2);
    h.append(rec(1));
    h.append(rec(2));
    h.append(rec(3));
    EXPECT_DEATH(h.at(0), "overwritten");
}

/** Property: with capacity C, exactly the last min(n, C) are valid. */
class HistoryCapacity : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(HistoryCapacity, ExactlyLastCRecordsValid)
{
    const std::uint64_t cap = GetParam();
    HistoryBuffer h(cap);
    const std::uint64_t n = cap * 3 + 1;
    for (std::uint64_t i = 0; i < n; ++i)
        h.append(rec(i));
    std::uint64_t valid = 0;
    for (std::uint64_t s = 0; s < n; ++s) {
        if (h.valid(s)) {
            ++valid;
            EXPECT_EQ(h.at(s).triggerPc, s);
        }
    }
    EXPECT_EQ(valid, cap);
}

INSTANTIATE_TEST_SUITE_P(Capacities, HistoryCapacity,
                         ::testing::Values(1u, 2u, 7u, 64u, 1024u));

} // namespace
} // namespace pifetch
