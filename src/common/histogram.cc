/**
 * @file
 * Histogram implementations.
 */

#include "common/histogram.hh"

#include "common/bitops.hh"
#include "common/types.hh"

namespace pifetch {

Log2Histogram::Log2Histogram(unsigned max_log2)
    : w_(max_log2 + 1, 0.0)
{
}

void
Log2Histogram::add(std::uint64_t value, double weight)
{
    unsigned b = 0;
    if (value > 1)
        b = 63 - static_cast<unsigned>(bits::countlZero(value));
    if (b >= w_.size())
        b = static_cast<unsigned>(w_.size()) - 1;
    w_[b] += weight;
    total_ += weight;
}

double
Log2Histogram::fractionAt(unsigned b) const
{
    return total_ > 0.0 ? w_.at(b) / total_ : 0.0;
}

double
Log2Histogram::cumulativeAt(unsigned b) const
{
    if (total_ <= 0.0)
        return 0.0;
    double sum = 0.0;
    for (unsigned i = 0; i <= b && i < w_.size(); ++i)
        sum += w_[i];
    return sum / total_;
}

unsigned
Log2Histogram::highestBucket() const
{
    for (unsigned i = static_cast<unsigned>(w_.size()); i-- > 0;) {
        if (w_[i] > 0.0)
            return i;
    }
    return 0;
}

RangeHistogram::RangeHistogram(std::vector<std::uint64_t> upper_bounds)
    : bounds_(std::move(upper_bounds)), w_(bounds_.size(), 0.0)
{
    if (bounds_.empty())
        panic("RangeHistogram needs at least one range");
    for (size_t i = 1; i < bounds_.size(); ++i) {
        if (bounds_[i] <= bounds_[i - 1])
            panic("RangeHistogram bounds must be strictly increasing");
    }
}

void
RangeHistogram::add(std::uint64_t value, double weight)
{
    unsigned r = static_cast<unsigned>(bounds_.size()) - 1;
    for (unsigned i = 0; i < bounds_.size(); ++i) {
        if (value <= bounds_[i]) {
            r = i;
            break;
        }
    }
    w_[r] += weight;
    total_ += weight;
}

double
RangeHistogram::fractionAt(unsigned r) const
{
    return total_ > 0.0 ? w_.at(r) / total_ : 0.0;
}

std::string
RangeHistogram::labelAt(unsigned r) const
{
    const std::uint64_t hi = bounds_.at(r);
    const std::uint64_t lo = (r == 0) ? 1 : bounds_[r - 1] + 1;
    if (lo == hi)
        return std::to_string(lo);
    return std::to_string(lo) + "-" + std::to_string(hi);
}

LinearHistogram::LinearHistogram(int lo, int hi)
    : lo_(lo), hi_(hi), w_(static_cast<size_t>(hi - lo + 1), 0.0)
{
    if (hi < lo)
        panic("LinearHistogram requires hi >= lo");
}

void
LinearHistogram::add(int value, double weight)
{
    if (value < lo_ || value > hi_) {
        dropped_ += weight;
        return;
    }
    w_[static_cast<size_t>(value - lo_)] += weight;
    total_ += weight;
}

double
LinearHistogram::weightAt(int v) const
{
    return w_.at(static_cast<size_t>(v - lo_));
}

double
LinearHistogram::fractionAt(int v) const
{
    return total_ > 0.0 ? weightAt(v) / total_ : 0.0;
}

} // namespace pifetch
