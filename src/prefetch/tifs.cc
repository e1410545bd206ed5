/**
 * @file
 * TIFS implementation.
 */

#include "prefetch/tifs.hh"

namespace pifetch {

namespace {
constexpr std::size_t queueCap = 256;
} // namespace

TifsPrefetcher::TifsPrefetcher(const TifsConfig &cfg)
    : cfg_(cfg),
      index_(cfg.unbounded ? 0 : cfg.indexEntries, cfg.indexAssoc),
      streams_(cfg.numSabs)
{
    if (!cfg_.unbounded)
        ring_.resize(cfg_.historyEntries);
}

void
TifsPrefetcher::record(Addr block)
{
    const std::uint64_t seq = tail_++;
    if (cfg_.unbounded) {
        ring_.push_back(block);
    } else {
        ring_[seq % cfg_.historyEntries] = block;
    }
    index_.insert(block, seq);
}

bool
TifsPrefetcher::valid(std::uint64_t seq) const
{
    if (seq >= tail_)
        return false;
    return cfg_.unbounded || tail_ - seq <= cfg_.historyEntries;
}

Addr
TifsPrefetcher::at(std::uint64_t seq) const
{
    return cfg_.unbounded ? ring_[seq] : ring_[seq % cfg_.historyEntries];
}

void
TifsPrefetcher::enqueue(Addr block)
{
    if (queued_.count(block) || queue_.size() >= queueCap)
        return;
    queue_.push_back(block);
    queued_.insert(block);
    ++issued_;
}

void
TifsPrefetcher::refill(Stream &s)
{
    while (s.window.size() < cfg_.sabWindowBlocks && valid(s.ptr)) {
        const Addr b = at(s.ptr);
        ++s.ptr;
        s.window.push_back(b);
        enqueue(b);
    }
    if (s.window.empty())
        s.active = false;
}

void
TifsPrefetcher::onFetchAccess(const FetchInfo &info)
{
    // Advance active streams on every front-end fetch.
    bool in_stream = false;
    for (Stream &s : streams_) {
        if (!s.active)
            continue;
        for (std::size_t i = 0; i < s.window.size(); ++i) {
            if (s.window[i] != info.block)
                continue;
            s.window.erase(s.window.begin(),
                           s.window.begin() +
                               static_cast<std::ptrdiff_t>(i + 1));
            refill(s);
            s.lastUse = ++tick_;
            in_stream = true;
            break;
        }
        if (in_stream)
            break;
    }

    if (info.hit)
        return;

    // A miss: record it in the miss history, and if it matches a
    // recorded stream head, start replaying that stream.
    if (!in_stream) {
        if (auto seq = index_.lookup(info.block)) {
            if (valid(*seq)) {
                Stream *victim = &streams_[0];
                for (Stream &s : streams_) {
                    if (!s.active) {
                        victim = &s;
                        break;
                    }
                    if (s.lastUse < victim->lastUse)
                        victim = &s;
                }
                victim->active = true;
                victim->ptr = *seq + 1;
                victim->window.clear();
                victim->lastUse = ++tick_;
                refill(*victim);
            }
        }
    }

    record(info.block);
}

unsigned
TifsPrefetcher::drainRequests(std::vector<Addr> &out, unsigned max)
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
