/**
 * @file
 * Front-end model tests: access derivation, wrong-path injection,
 * tagging, trap redirects.
 */

#include <gtest/gtest.h>

#include "core/frontend.hh"
#include "test_util.hh"
#include "trace/executor.hh"

namespace pifetch {
namespace {

SystemConfig
testConfig()
{
    SystemConfig cfg;
    cfg.l1i.sizeBytes = 8 * 1024;  // small cache: misses happen
    return cfg;
}

RetiredInstr
plainAt(Addr pc, TrapLevel tl = 0)
{
    RetiredInstr r;
    r.pc = pc;
    r.kind = InstrKind::Plain;
    r.trapLevel = tl;
    return r;
}

TEST(Frontend, CollapsesSameBlockFetches)
{
    SystemConfig cfg = testConfig();
    Cache l1i(cfg.l1i);
    Frontend fe(cfg, l1i, 1);
    std::vector<FetchAccess> ev;

    fe.step(plainAt(0x1000), ev);
    fe.step(plainAt(0x1004), ev);
    fe.step(plainAt(0x1008), ev);
    ASSERT_EQ(ev.size(), 1u);
    EXPECT_EQ(ev[0].block, blockAddr(0x1000));
    EXPECT_TRUE(ev[0].correctPath);
    EXPECT_FALSE(ev[0].hit);  // cold cache
}

TEST(Frontend, BlockTransitionEmitsAccess)
{
    SystemConfig cfg = testConfig();
    Cache l1i(cfg.l1i);
    Frontend fe(cfg, l1i, 1);
    std::vector<FetchAccess> ev;

    fe.step(plainAt(0x1000), ev);
    fe.step(plainAt(0x1040), ev);
    ASSERT_EQ(ev.size(), 2u);
    EXPECT_EQ(ev[1].block, blockAddr(0x1040));
}

TEST(Frontend, SecondVisitHitsAfterFill)
{
    SystemConfig cfg = testConfig();
    Cache l1i(cfg.l1i);
    Frontend fe(cfg, l1i, 1);
    std::vector<FetchAccess> ev;

    fe.step(plainAt(0x1000), ev);    // miss + functional fill
    fe.step(plainAt(0x2000), ev);    // different block
    fe.step(plainAt(0x1000), ev);    // back: must hit now
    ASSERT_EQ(ev.size(), 3u);
    EXPECT_TRUE(ev[2].hit);
}

TEST(Frontend, TaggedUnlessDeliveredFromPrefetchedLine)
{
    SystemConfig cfg = testConfig();
    Cache l1i(cfg.l1i);
    Frontend fe(cfg, l1i, 1);
    std::vector<FetchAccess> ev;

    // Demand-missed block: tagged.
    EXPECT_TRUE(fe.step(plainAt(0x1000), ev));

    // Prefetched block: first demand delivery is untagged...
    l1i.fill(blockAddr(0x3000), true);
    EXPECT_FALSE(fe.step(plainAt(0x3000), ev));
    // ...and the tag is sticky for the rest of the block.
    EXPECT_FALSE(fe.step(plainAt(0x3004), ev));

    // Re-entering the same block later: the prefetch bit was consumed,
    // so the fetch is tagged again.
    fe.step(plainAt(0x4000), ev);
    EXPECT_TRUE(fe.step(plainAt(0x3000), ev));
}

TEST(Frontend, CorrectlyPredictedBranchInjectsNoWrongPath)
{
    SystemConfig cfg = testConfig();
    Cache l1i(cfg.l1i);
    Frontend fe(cfg, l1i, 1);
    std::vector<FetchAccess> ev;

    // A never-taken branch is predicted not-taken from power-on
    // (weakly-taken counters still resolve via BTB-miss fallthrough).
    RetiredInstr br;
    br.pc = 0x1000;
    br.kind = InstrKind::CondBranch;
    br.target = 0x9000;
    br.taken = false;

    // Train.
    for (int i = 0; i < 8; ++i) {
        ev.clear();
        fe.step(br, ev);
    }
    const std::uint64_t wrong_before = fe.wrongPathFetches();
    ev.clear();
    fe.step(br, ev);
    EXPECT_EQ(fe.wrongPathFetches(), wrong_before);
    for (const FetchAccess &a : ev)
        EXPECT_TRUE(a.correctPath);
}

TEST(Frontend, MispredictedBranchInjectsSequentialWrongPath)
{
    SystemConfig cfg = testConfig();
    Cache l1i(cfg.l1i);
    Frontend fe(cfg, l1i, 1);
    std::vector<FetchAccess> ev;

    RetiredInstr br;
    br.pc = 0x1000;
    br.kind = InstrKind::CondBranch;
    br.target = 0x9000;
    br.taken = false;

    // Train the predictor to taken...
    RetiredInstr taken_br = br;
    taken_br.taken = true;
    for (int i = 0; i < 8; ++i) {
        ev.clear();
        fe.step(taken_br, ev);
    }
    // ...then retire it not-taken: predicted taken -> wrong path at
    // the branch target.
    ev.clear();
    const std::uint64_t misp_before = fe.mispredicts();
    fe.step(br, ev);
    EXPECT_EQ(fe.mispredicts(), misp_before + 1);

    bool saw_wrong = false;
    Addr prev_wrong = 0;
    for (const FetchAccess &a : ev) {
        if (!a.correctPath) {
            if (!saw_wrong) {
                EXPECT_EQ(a.block, blockAddr(0x9000));
            } else {
                EXPECT_EQ(a.block, prev_wrong + 1);  // sequential burst
            }
            prev_wrong = a.block;
            saw_wrong = true;
        }
    }
    EXPECT_TRUE(saw_wrong);
    EXPECT_GT(fe.wrongPathFetches(), 0u);
}

TEST(Frontend, ReturnPredictedByRas)
{
    SystemConfig cfg = testConfig();
    Cache l1i(cfg.l1i);
    Frontend fe(cfg, l1i, 1);
    std::vector<FetchAccess> ev;

    RetiredInstr call;
    call.pc = 0x1000;
    call.kind = InstrKind::Call;
    call.target = 0x5000;
    call.taken = true;

    RetiredInstr ret;
    ret.pc = 0x5000;
    ret.kind = InstrKind::Return;
    ret.target = 0x1004;
    ret.taken = true;

    // Train the BTB for the call first (the first call mispredicts on
    // a cold BTB; the return must then be RAS-covered).
    fe.step(call, ev);
    ev.clear();
    const std::uint64_t misp = fe.mispredicts();
    fe.step(ret, ev);
    EXPECT_EQ(fe.mispredicts(), misp) << "RAS should cover the return";
}

TEST(Frontend, TrapLevelChangeForcesRefetchWithoutMispredict)
{
    SystemConfig cfg = testConfig();
    Cache l1i(cfg.l1i);
    Frontend fe(cfg, l1i, 1);
    std::vector<FetchAccess> ev;

    fe.step(plainAt(0x1000), ev);
    const std::uint64_t misp = fe.mispredicts();

    ev.clear();
    fe.step(plainAt(0x8000, 1), ev);  // asynchronous trap entry
    ASSERT_EQ(ev.size(), 1u);
    EXPECT_EQ(ev[0].trapLevel, 1);
    EXPECT_EQ(fe.mispredicts(), misp);

    // Returning to the same block refetches it (pipeline flush).
    ev.clear();
    fe.step(plainAt(0x1004, 0), ev);
    ASSERT_EQ(ev.size(), 1u);
    EXPECT_EQ(ev[0].block, blockAddr(0x1000));
    EXPECT_TRUE(ev[0].hit);  // it was filled on the first access
}

TEST(Frontend, EndToEndStatisticsAreConsistent)
{
    const Program prog = testutil::tinyProgram(0.5);
    SystemConfig cfg = testConfig();
    Cache l1i(cfg.l1i);
    Frontend fe(cfg, l1i, 2);
    ExecutorConfig ec;
    ec.seed = 9;
    ec.interruptRate = 1e-3;
    Executor exec(prog, ec);

    std::vector<FetchAccess> ev;
    std::uint64_t cp = 0;
    std::uint64_t wp = 0;
    std::uint64_t cp_miss = 0;
    for (int i = 0; i < 50000; ++i) {
        ev.clear();
        fe.step(exec.next(), ev);
        for (const FetchAccess &a : ev) {
            if (a.correctPath) {
                ++cp;
                cp_miss += a.hit ? 0 : 1;
            } else {
                ++wp;
            }
        }
    }
    EXPECT_EQ(cp, fe.correctPathFetches());
    EXPECT_EQ(wp, fe.wrongPathFetches());
    EXPECT_EQ(cp_miss, fe.correctPathMisses());
    EXPECT_LE(fe.mispredicts(), fe.predictions());
}

} // namespace
} // namespace pifetch
