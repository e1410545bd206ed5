/**
 * @file
 * Bimodal predictor implementation.
 */

#include "branch/bimodal.hh"

namespace pifetch {

BimodalPredictor::BimodalPredictor(unsigned entries)
    : mask_(entries - 1), table_(entries)
{
    if (entries == 0 || (entries & (entries - 1)) != 0)
        fatalError("bimodal predictor entries must be a power of two");
}

bool
BimodalPredictor::predict(Addr pc)
{
    return table_[indexOf(pc)].taken();
}

void
BimodalPredictor::update(Addr pc, bool taken)
{
    table_[indexOf(pc)].update(taken);
}

} // namespace pifetch
