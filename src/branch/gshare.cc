/**
 * @file
 * Gshare implementation.
 */

#include "branch/gshare.hh"

namespace pifetch {

GsharePredictor::GsharePredictor(unsigned entries, unsigned history_bits)
    : mask_(entries - 1),
      historyMask_((std::uint64_t{1} << history_bits) - 1),
      table_(entries)
{
    if (entries == 0 || (entries & (entries - 1)) != 0)
        fatalError("gshare predictor entries must be a power of two");
    if (history_bits == 0 || history_bits > 62)
        fatalError("gshare history bits out of range");
}

bool
GsharePredictor::predict(Addr pc)
{
    return table_[indexOf(pc)].taken();
}

void
GsharePredictor::update(Addr pc, bool taken)
{
    table_[indexOf(pc)].update(taken);
    history_ = ((history_ << 1) | (taken ? 1 : 0)) & historyMask_;
}

} // namespace pifetch
