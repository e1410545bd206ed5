/**
 * @file
 * Spatial-region characterization studies (Figure 3 and Figure 8 left).
 *
 * Forms trigger-anchored spatial regions over the retire-order block
 * stream and collects:
 *  - region density: unique blocks accessed per region visit
 *    (Figure 3 left);
 *  - discontinuity: number of contiguous groups of accessed blocks
 *    within a region (Figure 3 right);
 *  - trigger-offset distribution: access frequency by signed block
 *    distance from the trigger (Figure 8 left).
 */

#pragma once

#include <cstdint>
#include <optional>

#include "common/histogram.hh"
#include "pif/spatial_compactor.hh"

namespace pifetch {

/**
 * Region-statistics collector.
 *
 * Regions form exactly as PIF's spatial compactor forms them (it holds
 * one). Unlike the production geometry (2+5), the studies use a wide
 * window so the distributions themselves reveal the right geometry
 * (the paper's Figure 8 argument); the window must fit the
 * compactor's 32-bit vector.
 */
class RegionAnalyzer
{
  public:
    /**
     * @param blocks_before Window blocks preceding the trigger.
     * @param blocks_after Window blocks succeeding the trigger.
     */
    RegionAnalyzer(unsigned blocks_before, unsigned blocks_after);

    /** Observe a retired instruction PC (any trap level mix). */
    void observe(Addr pc);

    /** Close the in-progress region (end of trace). */
    void finish();

    /** Unique blocks accessed per region: {1, 2, 3-4, ..., 17-32}. */
    const RangeHistogram &density() const { return density_; }

    /** Contiguous accessed-block groups per region: {1, 2, ... 9-16}. */
    const RangeHistogram &groups() const { return groups_; }

    /** Per-offset access frequency (unique per region visit). */
    const LinearHistogram &offsets() const { return offsets_; }

    /** Regions observed. */
    std::uint64_t regions() const { return regions_; }

  private:
    /** Account a completed region into the histograms. */
    void account(const std::optional<SpatialRegion> &region);

    SpatialCompactor compactor_;

    RangeHistogram density_;
    RangeHistogram groups_;
    LinearHistogram offsets_;
    std::uint64_t regions_ = 0;
};

} // namespace pifetch
