/**
 * @file
 * Line buffer between the core and the L1 instruction cache.
 *
 * Section 4.3: "a line buffer between the core and the L1 instruction
 * cache ensures ample bandwidth to the instruction cache tags for both
 * the instruction-fetch and prefetch mechanisms without the need to
 * duplicate the instruction-cache tags." Functionally it also absorbs
 * repeated fetches to the current block, which is how we use it: the
 * front-end consults the line buffer first and only touches the cache
 * on a block transition.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace pifetch {

/**
 * Small fully-associative FIFO of recently delivered block addresses.
 */
class LineBuffer
{
  public:
    explicit LineBuffer(unsigned entries = 2)
        : entries_(entries), slots_(entries, invalidAddr)
    {
    }

    /** True if @p block is currently buffered. */
    bool
    contains(Addr block) const
    {
        for (Addr a : slots_) {
            if (a == block)
                return true;
        }
        return false;
    }

    /** Insert @p block, displacing the oldest entry. */
    void
    insert(Addr block)
    {
        if (contains(block))
            return;
        slots_[head_] = block;
        head_ = (head_ + 1) % entries_;
    }

  private:
    unsigned entries_;
    unsigned head_ = 0;
    std::vector<Addr> slots_;
};

} // namespace pifetch
