/**
 * @file
 * Region analyzer implementation.
 */

#include "pif/region_analyzer.hh"

#include "common/bitops.hh"

namespace pifetch {

RegionAnalyzer::RegionAnalyzer(unsigned blocks_before,
                               unsigned blocks_after)
    : compactor_(blocks_before, blocks_after),
      density_({1, 2, 4, 8, 16, 32}),
      groups_({1, 2, 4, 8, 16}),
      offsets_(-static_cast<int>(blocks_before),
               static_cast<int>(blocks_after))
{
}

void
RegionAnalyzer::account(const std::optional<SpatialRegion> &region)
{
    if (!region)
        return;
    ++regions_;
    const unsigned before = compactor_.blocksBefore();

    // Density: unique accessed blocks, the trigger included.
    density_.add(region->popCount() + 1);

    // Groups: runs of set bits across the window once the trigger bit
    // is put back between the blocks before and after it.
    const std::uint64_t low = (std::uint64_t{1} << before) - 1;
    const std::uint64_t window = (region->bits & low) |
                                 (std::uint64_t{1} << before) |
                                 ((region->bits & ~low) << 1);
    groups_.add(static_cast<unsigned>(
        bits::popcount(window & ~(window << 1))));

    // Offsets: one sample per neighbour block (Figure 8 left plots
    // the neighbours, not the trigger).
    for (std::uint32_t b = region->bits; b != 0; b &= b - 1) {
        offsets_.add(SpatialRegion::offsetOf(
            static_cast<unsigned>(bits::countrZero(b)), before));
    }
}

void
RegionAnalyzer::observe(Addr pc)
{
    // Only the block stream matters: no tag, one trap level.
    account(compactor_.observe(pc, true, 0));
}

void
RegionAnalyzer::finish()
{
    account(compactor_.flush());
}

} // namespace pifetch
