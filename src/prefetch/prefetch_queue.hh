/**
 * @file
 * Fixed-capacity prefetch candidate queue.
 *
 * A hardware prefetch queue is a fixed ring of block addresses with
 * duplicate suppression. Every queueing prefetcher (next-line, TIFS,
 * discontinuity, PIF) uses this one type, so pushes and drains never
 * allocate: the ring is a power-of-two array indexed with a mask, and
 * a flat set answers "already queued?" with one probe.
 */

#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/flat_hash.hh"
#include "common/types.hh"

namespace pifetch {

/** FIFO block-address queue with dedup; drops when full. */
class PrefetchQueue
{
  public:
    /** Ring slots: the largest capacity a queue may have. */
    static constexpr std::size_t maxCapacity = 256;
    static_assert((maxCapacity & (maxCapacity - 1)) == 0,
                  "prefetch queue ring requires a power-of-two size");

    /** A queue holding at most @p capacity (1..maxCapacity) blocks. */
    explicit PrefetchQueue(std::size_t capacity) : capacity_(capacity)
    {
        if (capacity == 0 || capacity > maxCapacity)
            panic("PrefetchQueue: capacity outside 1..256");
    }

    /** True if @p block is currently queued (coverage accounting). */
    bool contains(Addr block) const { return queued_.contains(block); }

    /**
     * Enqueue @p block unless the queue is full or the block is
     * already queued. @return true if the block was accepted.
     */
    bool
    push(Addr block)
    {
        if (count_ == capacity_ || !queued_.insert(block))
            return false;
        ring_[(head_ + count_) & (maxCapacity - 1)] = block;
        ++count_;
        return true;
    }

    /**
     * Pop up to @p max oldest entries into @p out.
     * @return the number of entries popped.
     */
    unsigned
    drain(std::vector<Addr> &out, unsigned max)
    {
        unsigned n = 0;
        while (n < max && count_ > 0) {
            const Addr b = ring_[head_];
            head_ = (head_ + 1) & (maxCapacity - 1);
            --count_;
            queued_.erase(b);
            out.push_back(b);
            ++n;
        }
        return n;
    }

  private:
    std::array<Addr, maxCapacity> ring_;
    std::size_t capacity_;
    std::size_t head_ = 0;   //!< index of the oldest entry
    std::size_t count_ = 0;  //!< live entries
    AddrSet queued_;
};

} // namespace pifetch
