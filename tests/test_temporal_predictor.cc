/**
 * @file
 * Generic temporal stream predictor tests (the Figure 2 machinery).
 */

#include <gtest/gtest.h>

#include "streams/temporal_predictor.hh"

namespace pifetch {
namespace {

TemporalPredictorConfig
unboundedCfg(unsigned window = 8)
{
    TemporalPredictorConfig cfg;
    cfg.historyCapacity = 0;
    cfg.indexEntries = 0;
    cfg.numStreams = 2;
    cfg.window = window;
    return cfg;
}

TEST(TemporalPredictor, FirstPassIsUnpredicted)
{
    TemporalStreamPredictor p(unboundedCfg());
    for (Addr a = 0; a < 10; ++a)
        EXPECT_FALSE(p.observe(a).predicted);
    EXPECT_EQ(p.predictedCount(), 0u);
}

TEST(TemporalPredictor, SecondPassIsPredictedAfterTrigger)
{
    TemporalStreamPredictor p(unboundedCfg());
    const std::vector<Addr> seq = {10, 20, 30, 40, 50};
    for (Addr a : seq)
        p.observe(a);

    // The head recurs: it triggers (not predicted itself)...
    const auto head = p.observe(10);
    EXPECT_FALSE(head.predicted);
    EXPECT_TRUE(head.triggered);

    // ...and the rest replays.
    for (std::size_t i = 1; i < seq.size(); ++i) {
        EXPECT_TRUE(p.observe(seq[i]).predicted)
            << "element " << seq[i];
    }
}

TEST(TemporalPredictor, CoveredReflectsActiveWindows)
{
    TemporalStreamPredictor p(unboundedCfg());
    for (Addr a : {10, 20, 30, 40})
        p.observe(a);
    EXPECT_FALSE(p.covered(20));
    p.observe(10);  // trigger
    EXPECT_TRUE(p.covered(20));
    EXPECT_TRUE(p.covered(40));
    EXPECT_FALSE(p.covered(99));
}

TEST(TemporalPredictor, ToleratesNoiseWithinWindow)
{
    TemporalStreamPredictor p(unboundedCfg(8));
    for (Addr a : {10, 20, 30, 40, 50})
        p.observe(a);
    p.observe(10);  // trigger
    // Noise elements (unrecorded) interleave; the stream survives.
    p.observe(1000);
    EXPECT_TRUE(p.observe(20).predicted);
    p.observe(2000);
    EXPECT_TRUE(p.observe(30).predicted);
}

TEST(TemporalPredictor, SkipsMissingElements)
{
    // Recorded: 10 20 30 40 50; replayed visit misses 20 and 30.
    TemporalStreamPredictor p(unboundedCfg(8));
    for (Addr a : {10, 20, 30, 40, 50})
        p.observe(a);
    p.observe(10);
    EXPECT_TRUE(p.observe(40).predicted);  // skip 20, 30 in window
    EXPECT_TRUE(p.observe(50).predicted);
}

TEST(TemporalPredictor, EpisodeReportsJumpDistanceAndLength)
{
    TemporalStreamPredictor p(unboundedCfg());
    std::vector<StreamEpisode> episodes;
    p.onEpisodeEnd([&](const StreamEpisode &e) {
        episodes.push_back(e);
    });

    for (Addr a : {10, 20, 30})
        p.observe(a);
    // 3 unrelated elements, then the head recurs: jump distance 6.
    for (Addr a : {100, 200, 300})
        p.observe(a);
    p.observe(10);
    p.observe(20);
    p.observe(30);
    p.finish();

    ASSERT_EQ(episodes.size(), 1u);
    EXPECT_EQ(episodes[0].jumpDistance, 6u);
    EXPECT_EQ(episodes[0].matched, 2u);
    EXPECT_EQ(episodes[0].length, 2u);
}

TEST(TemporalPredictor, LruStreamReplacement)
{
    TemporalPredictorConfig cfg = unboundedCfg();
    cfg.numStreams = 1;
    TemporalStreamPredictor p(cfg);
    std::vector<StreamEpisode> episodes;
    p.onEpisodeEnd([&](const StreamEpisode &e) {
        episodes.push_back(e);
    });

    for (Addr a : {10, 20, 30})
        p.observe(a);
    for (Addr a = 100; a < 112; ++a)
        p.observe(a);  // filler pushes B out of A's window
    for (Addr a : {500, 600})
        p.observe(a);

    p.observe(10);  // stream A allocated
    EXPECT_TRUE(p.observe(20).predicted);
    p.observe(500);  // stream B replaces A (only one slot)
    EXPECT_TRUE(p.observe(600).predicted);
    EXPECT_FALSE(p.covered(30));  // A is gone
    ASSERT_EQ(episodes.size(), 1u);  // A's episode closed
    EXPECT_EQ(episodes[0].matched, 1u);
}

TEST(TemporalPredictor, BoundedHistoryInvalidatesOldStreams)
{
    TemporalPredictorConfig cfg = unboundedCfg();
    cfg.historyCapacity = 8;
    cfg.indexEntries = 64;
    cfg.indexAssoc = 4;
    TemporalStreamPredictor p(cfg);

    p.observe(999);
    for (Addr a = 0; a < 32; ++a)
        p.observe(a);
    // 999's record was overwritten: recurrence cannot trigger.
    const auto out = p.observe(999);
    EXPECT_FALSE(out.triggered);
}

TEST(TemporalPredictor, ObservationCountsAreConsistent)
{
    TemporalStreamPredictor p(unboundedCfg());
    for (int pass = 0; pass < 3; ++pass) {
        for (Addr a = 0; a < 50; ++a)
            p.observe(a);
    }
    EXPECT_EQ(p.observations(), 150u);
    EXPECT_EQ(p.recorded(), 150u);
    EXPECT_GT(p.predictedCount(), 80u);  // passes 2 and 3 mostly covered
    EXPECT_LE(p.predictedCount(), 150u);
}

/** Property: periodic sequences converge to near-full coverage. */
class PeriodicCoverage : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(PeriodicCoverage, RepeatingSequenceIsLearned)
{
    const unsigned period = GetParam();
    TemporalStreamPredictor p(unboundedCfg(16));
    std::uint64_t predicted = 0;
    std::uint64_t total = 0;
    for (int rep = 0; rep < 20; ++rep) {
        for (unsigned i = 0; i < period; ++i) {
            const bool hit = p.observe(1000 + i * 7).predicted;
            if (rep >= 2) {
                ++total;
                predicted += hit ? 1 : 0;
            }
        }
    }
    // After warmup, only the per-period trigger is unpredicted.
    EXPECT_GT(static_cast<double>(predicted) / static_cast<double>(total),
              1.0 - 2.0 / period);
}

INSTANTIATE_TEST_SUITE_P(Periods, PeriodicCoverage,
                         ::testing::Values(8u, 16u, 64u, 256u));

} // namespace
} // namespace pifetch
