/**
 * @file
 * Temporal compactor (Section 4.1, Figure 5 right).
 *
 * A small LRU list of the most recently observed spatial region
 * records. Records produced by loop iterations match an existing entry
 * (same trigger PC, bit vector a subset) and are discarded — only the
 * first iteration of a tight loop reaches the history buffer,
 * regardless of the data-dependent trip count (Section 3.2).
 */

#pragma once

#include <cstdint>
#include <list>

#include "pif/region.hh"

namespace pifetch {

/**
 * MRU filter over spatial region records.
 */
class TemporalCompactor
{
  public:
    /** @param entries Number of records tracked (paper uses 4). */
    explicit TemporalCompactor(unsigned entries);

    /**
     * Present an incoming record.
     *
     * On a match (an existing record covers the incoming one), the
     * matching entry is promoted to MRU and the incoming record is
     * discarded. Otherwise the incoming record is stored (evicting the
     * LRU entry) and should be forwarded to the history buffer.
     *
     * @return true if the record is new and must be recorded;
     *         false if it was filtered as loop-iteration redundancy.
     */
    bool admit(const SpatialRegion &rec);

    /** Records presented. */
    std::uint64_t presented() const { return presented_; }
    /** Records filtered (discarded as redundant). */
    std::uint64_t filtered() const { return filtered_; }

    /** Current occupancy (tests). */
    std::size_t size() const { return mru_.size(); }

  private:
    unsigned entries_;
    std::list<SpatialRegion> mru_;  //!< front = MRU

    std::uint64_t presented_ = 0;
    std::uint64_t filtered_ = 0;
};

} // namespace pifetch
