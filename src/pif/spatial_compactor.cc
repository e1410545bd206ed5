/**
 * @file
 * Spatial compactor implementation.
 */

#include "pif/spatial_compactor.hh"

namespace pifetch {

SpatialCompactor::SpatialCompactor(unsigned blocks_before,
                                   unsigned blocks_after)
    : blocksBefore_(blocks_before), blocksAfter_(blocks_after)
{
    if (blocksBefore_ + blocksAfter_ >= 32)
        fatalError("spatial region too large for the 32-bit vector");
}

std::optional<SpatialRegion>
SpatialCompactor::flush()
{
    if (!active_)
        return std::nullopt;
    active_ = false;
    lastBlock_ = invalidAddr;
    return current_;
}

} // namespace pifetch
