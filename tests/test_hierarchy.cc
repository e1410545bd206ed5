/**
 * @file
 * Memory hierarchy (L2 + memory) tests.
 */

#include <gtest/gtest.h>

#include "cache/hierarchy.hh"

namespace pifetch {
namespace {

MemoryConfig
smallMemory()
{
    MemoryConfig cfg;
    cfg.l2SizeBytes = 8 * 1024;  // tiny L2: evictions happen
    cfg.l2Assoc = 4;
    cfg.l2HitLatency = 15;
    cfg.memLatency = 90;
    cfg.interconnectLatency = 10;
    return cfg;
}

TEST(Hierarchy, ColdRequestPaysMemoryLatency)
{
    MemoryHierarchy h(smallMemory());
    EXPECT_EQ(h.request(100), 100u);  // 90 + 10 interconnect
    EXPECT_EQ(h.l2Misses(), 1u);
}

TEST(Hierarchy, SecondRequestHitsL2)
{
    MemoryHierarchy h(smallMemory());
    h.request(100);
    EXPECT_EQ(h.request(100), 25u);  // 15 + 10 interconnect
    EXPECT_EQ(h.l2Hits(), 1u);
}

TEST(Hierarchy, InL2ProbeIsPure)
{
    MemoryHierarchy h(smallMemory());
    EXPECT_FALSE(h.inL2(7));
    h.request(7);
    EXPECT_TRUE(h.inL2(7));
    EXPECT_EQ(h.l2Hits(), 0u);  // probe did not count as an access
}

TEST(Hierarchy, CapacityEvictionsReMiss)
{
    MemoryHierarchy h(smallMemory());
    const std::uint64_t blocks = smallMemory().l2SizeBytes / 64;
    // Stream 4x the capacity through, then revisit the first block.
    for (Addr b = 0; b < 4 * blocks; ++b)
        h.request(b);
    EXPECT_EQ(h.request(0), 100u);  // long evicted
}

TEST(Hierarchy, InstructionFootprintBecomesL2Resident)
{
    // The paper's setup: multi-MB code fits in the 8MB L2, so steady-
    // state instruction misses are L2 hits (15+10 cycles), not memory.
    MemoryConfig cfg;  // default 8MB
    MemoryHierarchy h(cfg);
    const Addr footprint_blocks = 20000;  // ~1.25 MB of code
    for (Addr b = 0; b < footprint_blocks; ++b)
        h.request(b);
    std::uint64_t hits = 0;
    for (Addr b = 0; b < footprint_blocks; ++b)
        hits += h.request(b) == cfg.l2HitLatency +
                                cfg.interconnectLatency ? 1 : 0;
    EXPECT_EQ(hits, footprint_blocks);
}

} // namespace
} // namespace pifetch
