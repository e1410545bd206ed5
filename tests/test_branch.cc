/**
 * @file
 * Branch predictor component tests.
 */

#include <gtest/gtest.h>

#include "branch/bimodal.hh"
#include "branch/btb.hh"
#include "branch/gshare.hh"
#include "branch/hybrid.hh"
#include "branch/ras.hh"

namespace pifetch {
namespace {

TEST(SatCounter2, SaturatesBothEnds)
{
    SatCounter2 c(0);
    c.update(false);
    EXPECT_EQ(c.raw(), 0u);
    for (int i = 0; i < 5; ++i)
        c.update(true);
    EXPECT_EQ(c.raw(), 3u);
    EXPECT_TRUE(c.taken());
}

TEST(SatCounter2, HysteresisNeedsTwoFlips)
{
    SatCounter2 c(3);
    c.update(false);
    EXPECT_TRUE(c.taken());   // weakly taken after one not-taken
    c.update(false);
    EXPECT_FALSE(c.taken());
}

TEST(Bimodal, LearnsBiasedBranch)
{
    BimodalPredictor p(1024);
    const Addr pc = 0x4000;
    EXPECT_TRUE(p.predict(pc));  // power-on state is weakly taken
    for (int i = 0; i < 4; ++i)
        p.update(pc, false);
    EXPECT_FALSE(p.predict(pc));
    for (int i = 0; i < 4; ++i)
        p.update(pc, true);
    EXPECT_TRUE(p.predict(pc));
}

TEST(Gshare, HistoryShiftsWithOutcomes)
{
    GsharePredictor p(1024, 8);
    p.update(0x40, true);
    p.update(0x40, false);
    p.update(0x40, true);
    EXPECT_EQ(p.history(), 0b101u);
}

TEST(Gshare, LearnsAlternatingPatternBimodalCannot)
{
    GsharePredictor g(4096, 10);
    BimodalPredictor b(4096);
    const Addr pc = 0x1000;
    int g_correct = 0;
    int b_correct = 0;
    bool outcome = false;
    for (int i = 0; i < 2000; ++i) {
        outcome = !outcome;  // strict alternation
        g_correct += g.predict(pc) == outcome ? 1 : 0;
        b_correct += b.predict(pc) == outcome ? 1 : 0;
        g.update(pc, outcome);
        b.update(pc, outcome);
    }
    EXPECT_GT(g_correct, 1800);
    EXPECT_LT(b_correct, 1200);
}

TEST(Hybrid, ChooserPicksBetterComponent)
{
    BranchConfig cfg;
    cfg.gshareEntries = 4096;
    cfg.bimodalEntries = 4096;
    cfg.chooserEntries = 4096;
    cfg.historyBits = 10;
    HybridPredictor h(cfg);

    const Addr pc = 0x2000;
    bool outcome = false;
    int correct = 0;
    for (int i = 0; i < 2000; ++i) {
        outcome = !outcome;
        correct += h.predictAndUpdate(pc, outcome) == outcome ? 1 : 0;
    }
    // The hybrid should converge on gshare for the alternating branch.
    EXPECT_GT(correct, 1700);
    EXPECT_EQ(h.predictions(), 2000u);
    EXPECT_EQ(h.mispredicts(), 2000u - static_cast<unsigned>(correct));
}

TEST(Btb, MissThenHitAfterUpdate)
{
    Btb btb(64, 4);
    EXPECT_EQ(btb.lookup(0x40), invalidAddr);
    btb.update(0x40, 0x999);
    EXPECT_EQ(btb.lookup(0x40), 0x999u);
    EXPECT_EQ(btb.hits(), 1u);
    EXPECT_EQ(btb.lookups(), 2u);
}

TEST(Btb, UpdateOverwritesTarget)
{
    Btb btb(64, 4);
    btb.update(0x40, 0x100);
    btb.update(0x40, 0x200);
    EXPECT_EQ(btb.lookup(0x40), 0x200u);
}

TEST(Btb, LruEvictionWithinSet)
{
    // 4 entries, 2-way -> 2 sets. PCs 0x0, 0x8, 0x10 all map to set 0
    // (pc >> 2 & 1): 0x0 -> 0, 0x8 -> set 0, 0x10 -> set 0.
    Btb btb(4, 2);
    btb.update(0x0, 0xa);
    btb.update(0x8, 0xb);
    btb.lookup(0x0);          // refresh
    btb.update(0x10, 0xc);    // evicts 0x8
    EXPECT_EQ(btb.lookup(0x8), invalidAddr);
    EXPECT_EQ(btb.lookup(0x0), 0xau);
    EXPECT_EQ(btb.lookup(0x10), 0xcu);
}

TEST(Ras, PushPopLifo)
{
    ReturnAddressStack ras(8);
    ras.push(0x100);
    ras.push(0x200);
    EXPECT_EQ(ras.pop(), 0x200u);
    EXPECT_EQ(ras.pop(), 0x100u);
}

TEST(Ras, UnderflowReturnsInvalid)
{
    ReturnAddressStack ras(4);
    EXPECT_EQ(ras.pop(), invalidAddr);
    EXPECT_EQ(ras.top(), invalidAddr);
}

TEST(Ras, OverflowWrapsOverwritingOldest)
{
    ReturnAddressStack ras(2);
    ras.push(1);
    ras.push(2);
    ras.push(3);  // overwrites 1
    EXPECT_EQ(ras.pop(), 3u);
    EXPECT_EQ(ras.pop(), 2u);
    EXPECT_EQ(ras.pop(), invalidAddr);
}

TEST(Ras, DepthSaturatesAtCapacity)
{
    ReturnAddressStack ras(2);
    ras.push(1);
    ras.push(2);
    ras.push(3);
    EXPECT_EQ(ras.depth(), 2u);
}

/** Property: prediction accuracy on random-but-biased branch sets. */
class HybridAccuracy : public ::testing::TestWithParam<double>
{
};

TEST_P(HybridAccuracy, BeatsBiasOnStaticBranches)
{
    const double bias = GetParam();
    HybridPredictor h(BranchConfig{});
    std::uint64_t x = 88172645463325252ull;
    auto rnd = [&]() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return static_cast<double>(x >> 11) * 0x1.0p-53;
    };
    int correct = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const Addr pc = 0x1000 + (i % 64) * 4;
        const bool outcome = rnd() < bias;
        correct += h.predictAndUpdate(pc, outcome) == outcome ? 1 : 0;
    }
    // A learned static prediction must do at least as well as always
    // guessing the majority direction (minus training noise).
    const double majority = bias > 0.5 ? bias : 1.0 - bias;
    EXPECT_GT(static_cast<double>(correct) / n, majority - 0.10);
}

INSTANTIATE_TEST_SUITE_P(Biases, HybridAccuracy,
                         ::testing::Values(0.95, 0.85, 0.7, 0.3, 0.05));

} // namespace
} // namespace pifetch
