/**
 * @file
 * Stream address buffer tests.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hh"
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

/**
 * The SAB as a plain window of SpatialRegions: an access matches the
 * first region whose trigger or neighbour bit covers the block, and a
 * loaded region issues its blocks left to right.
 */
class ModelSab
{
  public:
    ModelSab(unsigned window, unsigned before)
        : window_(window), before_(before)
    {}

    void
    allocate(const HistoryBuffer *hist, std::uint64_t seq,
             std::vector<Addr> &out)
    {
        hist_ = hist;
        ptr_ = seq;
        regions_.clear();
        advanced_ = 0;
        refill(out);
    }

    bool
    onAccess(Addr block, std::vector<Addr> &out)
    {
        for (std::size_t i = 0; i < regions_.size(); ++i) {
            if (!covers(regions_[i], block))
                continue;
            advanced_ += i;
            regions_.erase(regions_.begin(),
                           regions_.begin() +
                               static_cast<std::ptrdiff_t>(i));
            refill(out);
            return true;
        }
        return false;
    }

    bool
    windowCovers(Addr block) const
    {
        for (const SpatialRegion &r : regions_) {
            if (covers(r, block))
                return true;
        }
        return false;
    }

    bool active() const { return !regions_.empty(); }
    std::uint64_t advanced() const { return advanced_; }
    const std::vector<SpatialRegion> &regions() const { return regions_; }

    /** (region, block) pairs the window covers. */
    std::uint32_t
    coveredBlocks() const
    {
        std::uint32_t n = 0;
        for (const SpatialRegion &r : regions_)
            n += 1 + r.popCount();
        return n;
    }

  private:
    bool
    covers(const SpatialRegion &r, Addr block) const
    {
        const auto off = static_cast<std::int64_t>(block - r.triggerBlock());
        if (off == 0)
            return true;
        const auto before = static_cast<std::int64_t>(before_);
        if (off < -before || off > 31 - before)
            return false;
        return r.testOffset(static_cast<int>(off), before_);
    }

    void
    refill(std::vector<Addr> &out)
    {
        while (regions_.size() < window_ && hist_->valid(ptr_)) {
            const SpatialRegion &r = hist_->at(ptr_++);
            regions_.push_back(r);
            const Addr t = r.triggerBlock();
            for (unsigned i = 0; i < before_; ++i) {
                if (r.bits >> i & 1)
                    out.push_back(t + SpatialRegion::offsetOf(i, before_));
            }
            out.push_back(t);
            for (unsigned i = before_; i < 32; ++i) {
                if (r.bits >> i & 1)
                    out.push_back(t + SpatialRegion::offsetOf(i, before_));
            }
        }
    }

    unsigned window_;
    unsigned before_;
    const HistoryBuffer *hist_ = nullptr;
    std::uint64_t ptr_ = 0;
    std::uint64_t advanced_ = 0;
    std::vector<SpatialRegion> regions_;
};

TEST(Sab, MatchesTheRegionWindowModel)
{
    // Triggers fall in four 24-block clusters, two of them overlapping,
    // so windows cover one block several times over; the cluster at
    // block 0 puts region bases below zero.
    const Addr clusters[] = {0, 300, 316, 90000};
    for (unsigned before = 0; before <= 5; ++before) {
        for (const unsigned after : {5u, 31u - before}) {
            for (const unsigned window : {1u, 2u, 7u, 15u, 70u}) {
                Rng rng(before * 1000 + after * 10 + window);
                HistoryBuffer hist(0);
                const std::uint32_t bitsMask =
                    (std::uint32_t{1} << (before + after)) - 1;
                const unsigned regions = 600;
                for (unsigned r = 0; r < regions; ++r) {
                    SpatialRegion rec;
                    rec.triggerPc =
                        blockBase(clusters[rng.below(4)] + rng.below(24));
                    // Sparse neighbour bits, as compactors record.
                    rec.bits = static_cast<std::uint32_t>(rng.next() &
                                                          rng.next()) &
                               bitsMask;
                    hist.append(rec);
                }

                StreamAddressBuffer sab(window, before);
                ModelSab model(window, before);
                std::vector<Addr> got, want;
                for (int step = 0; step < 3000; ++step) {
                    SCOPED_TRACE("before " + std::to_string(before) +
                                 " after " + std::to_string(after) +
                                 " window " + std::to_string(window) +
                                 " step " + std::to_string(step));
                    got.clear();
                    want.clear();
                    Addr block = rng.below(100000);
                    const std::uint64_t pick = rng.below(100);
                    if (step % 400 == 0 || pick < 2) {
                        // Some positions lie past the history's tail.
                        const std::uint64_t seq = rng.below(regions + 4);
                        sab.allocate(&hist, seq, got);
                        model.allocate(&hist, seq, want);
                    } else {
                        const auto &win = model.regions();
                        if (pick < 70 && !win.empty()) {
                            // A block of a window region: covered when
                            // its offset's bit is set, else adjacent.
                            const SpatialRegion &r =
                                win[rng.below(win.size())];
                            block = r.triggerBlock() +
                                    rng.below(36) - before - 2;
                        } else if (pick < 85) {
                            block = hist.at(rng.below(regions))
                                        .triggerBlock() +
                                    rng.below(5) - 2;
                        }
                        ASSERT_EQ(sab.onAccess(block, got),
                                  model.onAccess(block, want));
                    }
                    ASSERT_EQ(got, want);
                    ASSERT_EQ(sab.active(), model.active());
                    ASSERT_EQ(sab.advanced(), model.advanced());
                    ASSERT_EQ(sab.filterCount(), model.coveredBlocks());
                    for (Addr probe :
                         {block - 1, block, block + 1, block + 31,
                          clusters[rng.below(4)] + rng.below(40) - 8}) {
                        ASSERT_EQ(sab.windowCovers(probe),
                                  model.windowCovers(probe))
                            << "probe " << probe;
                    }
                }
            }
        }
    }
}

} // namespace
} // namespace pifetch
