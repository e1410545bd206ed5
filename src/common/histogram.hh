/**
 * @file
 * Histogram utilities used by the figure-reproduction studies.
 *
 * The paper's figures bucket quantities either linearly (Fig. 8 left:
 * block offset from trigger) or by power-of-two magnitude (Fig. 7 jump
 * distance, Fig. 9 stream length). Both flavours live here.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace pifetch {

/**
 * Histogram with power-of-two buckets.
 *
 * Bucket i counts samples with floor(log2(value)) == i; values of zero
 * land in bucket 0 alongside value 1. Supports weighted samples so that
 * Fig. 7 ("jumps weighted by coverage") and Fig. 9 (left) can be
 * produced directly.
 */
class Log2Histogram
{
  public:
    /** Create a histogram covering log2 values [0, max_log2]. */
    explicit Log2Histogram(unsigned max_log2 = 40);

    /** Add a sample with the given weight. */
    void add(std::uint64_t value, double weight = 1.0);

    /** Number of buckets. */
    unsigned buckets() const { return static_cast<unsigned>(w_.size()); }

    /** Total weight in bucket b. */
    double weightAt(unsigned b) const { return w_.at(b); }

    /** Total weight across all buckets. */
    double totalWeight() const { return total_; }

    /** Fraction of total weight in bucket b (0 if histogram empty). */
    double fractionAt(unsigned b) const;

    /** Cumulative fraction of weight in buckets [0, b]. */
    double cumulativeAt(unsigned b) const;

    /** Index of the highest non-empty bucket (0 if empty). */
    unsigned highestBucket() const;

  private:
    std::vector<double> w_;
    double total_ = 0.0;
};

/**
 * Histogram with caller-defined contiguous integer ranges.
 *
 * Fig. 3 buckets region densities as {1, 2, 3-4, 5-8, 9-16, 17-32}; this
 * class takes the upper bound of each range and reports per-range
 * fractions with printable labels.
 */
class RangeHistogram
{
  public:
    /**
     * @param upper_bounds Inclusive upper bound of each range; the lower
     *        bound of range i is upper_bounds[i-1]+1 (or 1 for i==0).
     *        Values above the last bound are clamped into the last range.
     */
    explicit RangeHistogram(std::vector<std::uint64_t> upper_bounds);

    /** Add a sample with the given weight. */
    void add(std::uint64_t value, double weight = 1.0);

    /** Number of ranges. */
    unsigned ranges() const { return static_cast<unsigned>(w_.size()); }

    /** Total weight in range r. */
    double weightAt(unsigned r) const { return w_.at(r); }

    /** Fraction of total weight in range r (0 if empty). */
    double fractionAt(unsigned r) const;

    /** Printable label for range r, e.g. "3-4" or "2". */
    std::string labelAt(unsigned r) const;

    /** Total weight across all ranges. */
    double totalWeight() const { return total_; }

  private:
    std::vector<std::uint64_t> bounds_;
    std::vector<double> w_;
    double total_ = 0.0;
};

/**
 * Histogram over a signed linear domain [lo, hi].
 *
 * Fig. 8 (left) plots reference frequency versus signed block distance
 * from the trigger access (-4 .. +12); out-of-range samples are dropped
 * but counted, so callers can report truncation.
 */
class LinearHistogram
{
  public:
    LinearHistogram(int lo, int hi);

    /** Add a sample; out-of-range samples increment dropped(). */
    void add(int value, double weight = 1.0);

    int lo() const { return lo_; }
    int hi() const { return hi_; }

    /** Weight at domain value v (must be within [lo, hi]). */
    double weightAt(int v) const;

    /** Fraction of in-range weight at value v. */
    double fractionAt(int v) const;

    /** Total in-range weight. */
    double totalWeight() const { return total_; }

    /** Total weight of dropped (out-of-range) samples. */
    double dropped() const { return dropped_; }

  private:
    int lo_;
    int hi_;
    std::vector<double> w_;
    double total_ = 0.0;
    double dropped_ = 0.0;
};

} // namespace pifetch
