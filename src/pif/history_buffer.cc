/**
 * @file
 * History buffer implementation.
 */

#include "pif/history_buffer.hh"

namespace pifetch {

HistoryBuffer::HistoryBuffer(std::uint64_t capacity)
    : capacity_(capacity)
{
    if (capacity_ > 0) {
        if ((capacity_ & (capacity_ - 1)) == 0)
            mask_ = capacity_ - 1;
        ring_.resize(capacity_);
    }
}

} // namespace pifetch
