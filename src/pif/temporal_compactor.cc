/**
 * @file
 * Temporal compactor implementation.
 */

#include "pif/temporal_compactor.hh"

#include "common/types.hh"

namespace pifetch {

TemporalCompactor::TemporalCompactor(unsigned entries)
    : entries_(entries)
{
    if (entries_ == 0)
        fatalError("temporal compactor needs at least one entry");
}

bool
TemporalCompactor::admit(const SpatialRegion &rec)
{
    ++presented_;

    for (auto it = mru_.begin(); it != mru_.end(); ++it) {
        if (it->covers(rec)) {
            // Redundant (loop iteration): promote and discard.
            mru_.splice(mru_.begin(), mru_, it);
            ++filtered_;
            return false;
        }
    }

    mru_.push_front(rec);
    if (mru_.size() > entries_)
        mru_.pop_back();
    return true;
}

} // namespace pifetch
