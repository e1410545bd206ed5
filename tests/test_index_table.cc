/**
 * @file
 * Index table tests.
 */

#include <gtest/gtest.h>

#include "pif/index_table.hh"

namespace pifetch {
namespace {

TEST(IndexTable, InsertThenLookup)
{
    IndexTable t(64, 4);
    t.insert(0x1000, 42);
    const auto seq = t.lookup(0x1000);
    ASSERT_TRUE(seq.has_value());
    EXPECT_EQ(*seq, 42u);
}

TEST(IndexTable, MissingKeyReturnsNullopt)
{
    IndexTable t(64, 4);
    EXPECT_FALSE(t.lookup(0x2000).has_value());
    EXPECT_EQ(t.lookups(), 1u);
    EXPECT_EQ(t.hits(), 0u);
}

TEST(IndexTable, InsertUpdatesExistingKey)
{
    IndexTable t(64, 4);
    t.insert(0x1000, 1);
    t.insert(0x1000, 9);
    EXPECT_EQ(*t.lookup(0x1000), 9u);
}

TEST(IndexTable, LruEvictionWithinSet)
{
    // 4 entries, 2-way -> 2 sets; PCs 0x0, 0x8, 0xc hash to set 0
    // under the multiplicative set hash.
    IndexTable t(4, 2);
    t.insert(0x0, 1);
    t.insert(0x8, 2);
    t.lookup(0x0);       // refresh 0x0
    t.insert(0xc, 3);    // evicts 0x8
    EXPECT_TRUE(t.lookup(0x0).has_value());
    EXPECT_FALSE(t.lookup(0x8).has_value());
    EXPECT_TRUE(t.lookup(0xc).has_value());
}

TEST(IndexTable, UnboundedNeverEvicts)
{
    IndexTable t(0, 0);
    for (Addr pc = 0; pc < 10000; ++pc)
        t.insert(pc, pc * 2);
    for (Addr pc = 0; pc < 10000; ++pc)
        EXPECT_EQ(*t.lookup(pc), pc * 2);
}

TEST(IndexTableDeath, RejectsBadGeometry)
{
    EXPECT_EXIT(IndexTable(10, 4), ::testing::ExitedWithCode(1),
                "multiple");
}

} // namespace
} // namespace pifetch
