/**
 * @file
 * Next-line prefetcher implementation.
 */

#include "prefetch/next_line.hh"

namespace pifetch {

namespace {
constexpr std::size_t queueCap = 64;
} // namespace

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
        const Addr b = info.block + d;
        if (queued_.count(b) || queue_.size() >= queueCap)
            continue;
        queue_.push_back(b);
        queued_.insert(b);
        ++issued_;
    }
}

unsigned
NextLinePrefetcher::drainRequests(std::vector<Addr> &out, unsigned max)
{
    unsigned n = 0;
    while (n < max && !queue_.empty()) {
        const Addr b = queue_.front();
        queue_.pop_front();
        queued_.erase(b);
        out.push_back(b);
        ++n;
    }
    return n;
}

} // namespace pifetch
