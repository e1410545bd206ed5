/**
 * @file
 * Fixed-capacity prefetch candidate queue.
 *
 * A hardware prefetch queue is a fixed ring of block addresses with
 * duplicate suppression; both PIF variants used to model it with a
 * std::deque plus a side set, paying deque segment allocation on the
 * hottest enqueue path (visible in replay profiles). This type is the
 * ring itself: a power-of-two array indexed with a mask, so pushes and
 * drains never allocate. FIFO order, capacity-drop and dedup semantics
 * are exactly those of the deque it replaces.
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
    /** Queue depth bound (hardware queue size; power of two). */
    static constexpr std::size_t capacity = 256;
    static_assert((capacity & (capacity - 1)) == 0,
                  "prefetch queue ring requires a power-of-two capacity");

    /** True if @p block is currently queued (coverage accounting). */
    bool contains(Addr block) const { return queued_.count(block) != 0; }

    /**
     * Enqueue @p block unless it is already queued or the queue is
     * full. @return true if the block was accepted.
     */
    bool
    push(Addr block)
    {
        if (queued_.count(block) || count_ >= capacity)
            return false;
        ring_[(head_ + count_) & (capacity - 1)] = block;
        ++count_;
        queued_.insert(block);
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
            head_ = (head_ + 1) & (capacity - 1);
            --count_;
            queued_.erase(b);
            out.push_back(b);
            ++n;
        }
        return n;
    }

  private:
    std::array<Addr, capacity> ring_;
    std::size_t head_ = 0;   //!< index of the oldest entry
    std::size_t count_ = 0;  //!< live entries
    AddrSet queued_;
};

} // namespace pifetch
