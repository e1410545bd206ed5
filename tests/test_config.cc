/**
 * @file
 * Configuration tests (Table I defaults).
 */

#include <gtest/gtest.h>

#include "common/config.hh"

namespace pifetch {
namespace {

TEST(CacheConfig, TableIGeometry)
{
    const SystemConfig cfg;
    // 64KB, 2-way, 64B blocks -> 512 sets.
    EXPECT_EQ(cfg.l1i.sets(), 512u);
    EXPECT_EQ(cfg.l1i.assoc, 2u);
}

TEST(PifConfig, PaperDefaults)
{
    const PifConfig pif;
    EXPECT_EQ(pif.blocksBefore, 2u);
    EXPECT_EQ(pif.blocksAfter, 5u);
    EXPECT_EQ(pif.regionBlocks(), 8u);
    EXPECT_EQ(pif.temporalEntries, 4u);
    EXPECT_EQ(pif.historyRegions, 32u * 1024);
    EXPECT_EQ(pif.numSabs, 4u);
    EXPECT_EQ(pif.sabWindowRegions, 7u);
    EXPECT_TRUE(pif.separateTrapLevels);
}

TEST(CoreConfig, TableIWidths)
{
    const CoreConfig core;
    EXPECT_EQ(core.dispatchWidth, 3u);
    EXPECT_EQ(core.retireWidth, 3u);
    EXPECT_EQ(core.robEntries, 96u);
}

TEST(MemoryConfig, TableILatencies)
{
    const MemoryConfig mem;
    EXPECT_EQ(mem.l2HitLatency, 15u);
    EXPECT_EQ(mem.memLatency, 90u);  // 45 ns at 2 GHz
}

TEST(BranchConfig, TableIHybridSizing)
{
    const BranchConfig br;
    EXPECT_EQ(br.gshareEntries, 16u * 1024);
    EXPECT_EQ(br.bimodalEntries, 16u * 1024);
}

TEST(Types, BlockArithmetic)
{
    EXPECT_EQ(blockAddr(0), 0u);
    EXPECT_EQ(blockAddr(63), 0u);
    EXPECT_EQ(blockAddr(64), 1u);
    EXPECT_EQ(blockBase(3), 192u);
    EXPECT_TRUE(sameBlock(0, 63));
    EXPECT_FALSE(sameBlock(63, 64));
    EXPECT_EQ(instrsPerBlock, 16u);
}

} // namespace
} // namespace pifetch
