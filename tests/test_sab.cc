/**
 * @file
 * Stream address buffer tests.
 */

#include <gtest/gtest.h>

#include "pif/sab.hh"

namespace pifetch {
namespace {

SpatialRegion
rec(Addr trigger_block, std::initializer_list<int> offsets,
    unsigned before = 2)
{
    SpatialRegion r;
    r.triggerPc = blockBase(trigger_block);
    for (int off : offsets)
        r.setOffset(off, before);
    return r;
}

TEST(Sab, AllocateEmitsWindowBlocksInBitVectorOrder)
{
    HistoryBuffer hist(0);
    hist.append(rec(100, {-1, 1, 2}));
    hist.append(rec(200, {}));

    StreamAddressBuffer sab(7, 2);
    std::vector<Addr> out;
    sab.allocate(&hist, 0, out);
    // Region 100: preceding (-1), trigger, succeeding (+1, +2);
    // then region 200's trigger.
    ASSERT_EQ(out.size(), 5u);
    EXPECT_EQ(out[0], 99u);
    EXPECT_EQ(out[1], 100u);
    EXPECT_EQ(out[2], 101u);
    EXPECT_EQ(out[3], 102u);
    EXPECT_EQ(out[4], 200u);
    EXPECT_TRUE(sab.active());
}

TEST(Sab, WindowLimitsInitialLoad)
{
    HistoryBuffer hist(0);
    for (Addr b = 0; b < 20; ++b)
        hist.append(rec(100 + b * 10, {}));

    StreamAddressBuffer sab(7, 2);
    std::vector<Addr> out;
    sab.allocate(&hist, 0, out);
    EXPECT_EQ(out.size(), 7u);  // window regions only
}

TEST(Sab, AccessAdvancesWindowAndEmitsMore)
{
    HistoryBuffer hist(0);
    for (Addr b = 0; b < 20; ++b)
        hist.append(rec(100 + b * 10, {}));

    StreamAddressBuffer sab(7, 2);
    std::vector<Addr> out;
    sab.allocate(&hist, 0, out);
    out.clear();

    // Fetch of the 3rd window region (trigger 120) retires regions
    // 100 and 110 and loads two more records (170, 180).
    EXPECT_TRUE(sab.onAccess(120, out));
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0], 170u);
    EXPECT_EQ(out[1], 180u);
}

TEST(Sab, AccessToUnrelatedBlockDoesNotMatch)
{
    HistoryBuffer hist(0);
    hist.append(rec(100, {}));
    StreamAddressBuffer sab(7, 2);
    std::vector<Addr> out;
    sab.allocate(&hist, 0, out);
    out.clear();
    EXPECT_FALSE(sab.onAccess(500, out));
    EXPECT_TRUE(out.empty());
}

TEST(Sab, NeighbourBlockMatchesViaBitVector)
{
    HistoryBuffer hist(0);
    hist.append(rec(100, {2}));
    StreamAddressBuffer sab(7, 2);
    std::vector<Addr> out;
    sab.allocate(&hist, 0, out);
    EXPECT_TRUE(sab.windowCovers(102));
    EXPECT_FALSE(sab.windowCovers(101));
    out.clear();
    EXPECT_TRUE(sab.onAccess(102, out));
}

TEST(Sab, FrontMatchDoesNotAdvance)
{
    HistoryBuffer hist(0);
    for (Addr b = 0; b < 10; ++b)
        hist.append(rec(100 + b * 10, {}));
    StreamAddressBuffer sab(4, 2);
    std::vector<Addr> out;
    sab.allocate(&hist, 0, out);
    out.clear();
    EXPECT_TRUE(sab.onAccess(100, out));  // front region
    EXPECT_TRUE(out.empty());             // nothing new loaded
}

TEST(Sab, AllocateAtInvalidHistoryDeactivates)
{
    HistoryBuffer hist(2);
    hist.append(rec(1, {}));
    hist.append(rec(2, {}));
    hist.append(rec(3, {}));  // seq 0 now overwritten

    StreamAddressBuffer sab(4, 2);
    std::vector<Addr> out;
    sab.allocate(&hist, 0, out);
    EXPECT_FALSE(sab.active());
    EXPECT_TRUE(out.empty());
}

TEST(Sab, AdvancedCountsRetiredRegions)
{
    HistoryBuffer hist(0);
    for (Addr b = 0; b < 10; ++b)
        hist.append(rec(100 + b * 10, {}));
    StreamAddressBuffer sab(4, 2);
    std::vector<Addr> out;
    sab.allocate(&hist, 0, out);
    sab.onAccess(130, out);  // match 4th region: retires 3
    EXPECT_EQ(sab.advanced(), 3u);
}

TEST(Sab, StreamEndStopsRefill)
{
    HistoryBuffer hist(0);
    hist.append(rec(100, {}));
    hist.append(rec(200, {}));
    StreamAddressBuffer sab(7, 2);
    std::vector<Addr> out;
    sab.allocate(&hist, 0, out);
    out.clear();
    // Advancing to the last region leaves a live but short window.
    EXPECT_TRUE(sab.onAccess(200, out));
    EXPECT_TRUE(out.empty());
    EXPECT_TRUE(sab.active());
}

} // namespace
} // namespace pifetch
