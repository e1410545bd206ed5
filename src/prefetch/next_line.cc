/**
 * @file
 * Next-line prefetcher implementation.
 */

#include "prefetch/next_line.hh"

namespace pifetch {

NextLinePrefetcher::NextLinePrefetcher(const NextLineConfig &cfg)
    : degree_(cfg.degree)
{
}

void
NextLinePrefetcher::onFetchAccess(const FetchInfo &info)
{
    // Re-triggering on every access to the same block adds nothing.
    if (info.block == lastBlock_)
        return;
    lastBlock_ = info.block;

    for (unsigned d = 1; d <= degree_; ++d) {
        if (queue_.push(info.block + d))
            ++issued_;
    }
}

} // namespace pifetch
