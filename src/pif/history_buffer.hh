/**
 * @file
 * History buffer (Section 4.2).
 *
 * A circular FIFO of spatial region records in retirement order. Each
 * record is addressed by a monotonically increasing sequence number so
 * that index-table pointers and SAB read pointers can detect when the
 * record they reference has been overwritten by newer history.
 *
 * The ring is a single flat arena sized once at construction; append
 * (one per compacted region, on the replay hot path) is a store
 * through a rolling write cursor, and random access by sequence uses
 * a mask when the capacity is a power of two (the paper's 32K and the
 * TL1 split both are) with a modulo fallback for odd capacities (the
 * 7/8-scaled TL0 split).
 */

#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "pif/region.hh"

namespace pifetch {

/**
 * Circular buffer of SpatialRegion records with stable sequence
 * numbers. Capacity 0 means unbounded (used for the no-storage-limit
 * study of Figure 10 left).
 */
class HistoryBuffer
{
  public:
    /** @param capacity Records retained; 0 = unbounded. */
    explicit HistoryBuffer(std::uint64_t capacity);

    /**
     * Append a record.
     * @return the sequence number assigned to it.
     */
    std::uint64_t
    append(const SpatialRegion &rec)
    {
        const std::uint64_t seq = next_++;
        if (capacity_ == 0) {
            ring_.push_back(rec);
        } else {
            ring_[writeIdx_] = rec;
            if (++writeIdx_ == capacity_)
                writeIdx_ = 0;
        }
        return seq;
    }

    /** True if the record at @p seq is still retained. */
    bool
    valid(std::uint64_t seq) const
    {
        if (seq >= next_)
            return false;
        return capacity_ == 0 || next_ - seq <= capacity_;
    }

    /** Read the record at sequence @p seq (must be valid()). */
    const SpatialRegion &
    at(std::uint64_t seq) const
    {
        if (!valid(seq))
            panic("history buffer read of overwritten or unwritten "
                  "record");
        return ring_[slotOf(seq)];
    }

    /** Sequence number the next append will receive (the tail). */
    std::uint64_t tail() const { return next_; }

    /** Records appended over all time. */
    std::uint64_t appended() const { return next_; }

    /** Configured capacity (0 = unbounded). */
    std::uint64_t capacity() const { return capacity_; }

  private:
    /** Arena slot holding sequence @p seq. */
    std::uint64_t
    slotOf(std::uint64_t seq) const
    {
        if (capacity_ == 0)
            return seq;
        return mask_ ? (seq & mask_) : (seq % capacity_);
    }

    std::uint64_t capacity_;
    /** capacity_ - 1 when the capacity is a power of two, else 0. */
    std::uint64_t mask_ = 0;
    std::uint64_t next_ = 0;
    /** Next arena slot to write (bounded mode). */
    std::uint64_t writeIdx_ = 0;
    std::vector<SpatialRegion> ring_;
};

} // namespace pifetch
