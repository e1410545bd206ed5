/**
 * @file
 * Line buffer tests.
 */

#include <gtest/gtest.h>

#include "cache/line_buffer.hh"

namespace pifetch {
namespace {

TEST(LineBuffer, InsertThenContains)
{
    LineBuffer lb(2);
    lb.insert(7);
    EXPECT_TRUE(lb.contains(7));
    EXPECT_FALSE(lb.contains(8));
}

TEST(LineBuffer, FifoDisplacement)
{
    LineBuffer lb(2);
    lb.insert(1);
    lb.insert(2);
    lb.insert(3);  // displaces 1
    EXPECT_FALSE(lb.contains(1));
    EXPECT_TRUE(lb.contains(2));
    EXPECT_TRUE(lb.contains(3));
}

TEST(LineBuffer, DuplicateInsertIsNoOp)
{
    LineBuffer lb(2);
    lb.insert(1);
    lb.insert(1);
    lb.insert(2);
    // Block 1 must still be resident: the duplicate didn't consume a slot.
    EXPECT_TRUE(lb.contains(1));
    EXPECT_TRUE(lb.contains(2));
}

} // namespace
} // namespace pifetch
