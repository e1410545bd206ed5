/**
 * @file
 * Discontinuity prefetcher implementation.
 */

#include "prefetch/discontinuity.hh"

#include "common/types.hh"

namespace pifetch {

DiscontinuityPrefetcher::DiscontinuityPrefetcher(
        const DiscontinuityConfig &cfg)
    : cfg_(cfg)
{
    if (cfg_.tableAssoc == 0 ||
        cfg_.tableEntries % cfg_.tableAssoc != 0) {
        fatalError("discontinuity table entries must be a multiple of "
                   "assoc");
    }
    const std::uint64_t sets = cfg_.tableEntries / cfg_.tableAssoc;
    if ((sets & (sets - 1)) != 0)
        fatalError("discontinuity table sets must be a power of two");
    setMask_ = sets - 1;
    table_.resize(cfg_.tableEntries);
}

void
DiscontinuityPrefetcher::enqueue(Addr block)
{
    if (queue_.push(block))
        ++issued_;
}

void
DiscontinuityPrefetcher::install(Addr src, Addr dst)
{
    const std::uint64_t base = (src & setMask_) * cfg_.tableAssoc;
    Entry *victim = nullptr;
    for (unsigned w = 0; w < cfg_.tableAssoc; ++w) {
        Entry &e = table_[base + w];
        if (e.valid && e.src == src) {
            e.dst = dst;
            e.stamp = ++tick_;
            return;
        }
        if (!e.valid) {
            if (!victim || victim->valid)
                victim = &e;
        } else if (!victim ||
                   (victim->valid && e.stamp < victim->stamp)) {
            victim = &e;
        }
    }
    victim->src = src;
    victim->dst = dst;
    victim->valid = true;
    victim->stamp = ++tick_;
}

Addr
DiscontinuityPrefetcher::lookup(Addr src)
{
    const std::uint64_t base = (src & setMask_) * cfg_.tableAssoc;
    for (unsigned w = 0; w < cfg_.tableAssoc; ++w) {
        Entry &e = table_[base + w];
        if (e.valid && e.src == src) {
            e.stamp = ++tick_;
            return e.dst;
        }
    }
    return invalidAddr;
}

void
DiscontinuityPrefetcher::onFetchAccess(const FetchInfo &info)
{
    if (info.block == lastBlock_)
        return;

    // Learn non-sequential transitions between consecutive fetches.
    if (lastBlock_ != invalidAddr && info.block != lastBlock_ + 1)
        install(lastBlock_, info.block);

    // Predict: the recorded discontinuity out of this block, plus a
    // shallow next-line tail behind both points.
    const Addr dst = lookup(info.block);
    for (unsigned d = 1; d <= cfg_.nextLineDegree; ++d)
        enqueue(info.block + d);
    if (dst != invalidAddr) {
        enqueue(dst);
        for (unsigned d = 1; d <= cfg_.nextLineDegree; ++d)
            enqueue(dst + d);
    }

    lastBlock_ = info.block;
}

} // namespace pifetch
