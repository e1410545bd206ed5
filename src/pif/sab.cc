/**
 * @file
 * Stream address buffer implementation.
 */

#include "pif/sab.hh"

namespace pifetch {

StreamAddressBuffer::StreamAddressBuffer(unsigned window_regions,
                                         unsigned blocks_before)
    : windowRegions_(window_regions), blocksBefore_(blocks_before)
{
    window_.reserve(window_regions);
}

void
StreamAddressBuffer::refill(std::vector<Addr> &out)
{
    // Geometry validation keeps blocksBefore + blocksAfter <= 31, so
    // the shifted succeeding bits and the trigger fit in 32.
    const std::uint32_t beforeMask = (std::uint32_t{1} << blocksBefore_) - 1;
    while (window_.size() < windowRegions_ && hist_->valid(ptr_)) {
        const SpatialRegion &rec = hist_->at(ptr_);
        ++ptr_;
        const Entry e{rec.triggerBlock() - blocksBefore_,
                      (rec.bits & beforeMask) |
                          (std::uint32_t{1} << blocksBefore_) |
                          ((rec.bits & ~beforeMask) << 1)};
        window_.push_back(e);
        // Issue in ascending block order (Section 4.3's left-to-right
        // bit-vector traversal), counting each block into the filter.
        for (std::uint32_t m = e.mask; m != 0; m &= m - 1) {
            const Addr b = e.base + static_cast<Addr>(bits::countrZero(m));
            ++filter_[slot(b)];
            out.push_back(b);
        }
    }
}

void
StreamAddressBuffer::allocate(const HistoryBuffer *hist, std::uint64_t seq,
                              std::vector<Addr> &out)
{
    hist_ = hist;
    ptr_ = seq;
    // Retiring the whole window clears the filter.
    for (const Entry &e : window_)
        uncount(e);
    window_.clear();
    advanced_ = 0;
    refill(out);
}

} // namespace pifetch
