/**
 * @file
 * Temporal stream predictor implementation.
 */

#include "streams/temporal_predictor.hh"

namespace pifetch {

TemporalStreamPredictor::TemporalStreamPredictor(
        const TemporalPredictorConfig &cfg)
    : cfg_(cfg),
      index_(cfg.indexEntries, cfg.indexAssoc),
      streams_(cfg.numStreams)
{
    if (cfg_.historyCapacity > 0)
        ring_.resize(cfg_.historyCapacity);
}

bool
TemporalStreamPredictor::histValid(std::uint64_t seq) const
{
    if (seq >= tail_)
        return false;
    return cfg_.historyCapacity == 0 ||
           tail_ - seq <= cfg_.historyCapacity;
}

Addr
TemporalStreamPredictor::histAt(std::uint64_t seq) const
{
    return cfg_.historyCapacity == 0
        ? ring_[seq]
        : ring_[seq % cfg_.historyCapacity];
}

void
TemporalStreamPredictor::append(Addr a)
{
    const std::uint64_t seq = tail_++;
    if (cfg_.historyCapacity == 0) {
        ring_.push_back(a);
    } else {
        ring_[seq % cfg_.historyCapacity] = a;
    }
    index_.insert(a, seq);
}

void
TemporalStreamPredictor::refill(Stream &s)
{
    while (s.window.size() < cfg_.window && histValid(s.ptr)) {
        s.window.push_back(histAt(s.ptr));
        ++s.ptr;
    }
    if (s.window.empty())
        s.active = false;
}

void
TemporalStreamPredictor::closeEpisode(Stream &s)
{
    if (!s.active)
        return;
    if (episodeHook_)
        episodeHook_(s.episode);
    s.active = false;
    s.window.clear();
    s.episode = StreamEpisode{};
}

bool
TemporalStreamPredictor::covered(Addr a) const
{
    for (const Stream &s : streams_) {
        if (!s.active)
            continue;
        for (Addr w : s.window) {
            if (w == a)
                return true;
        }
    }
    return false;
}

TemporalStreamPredictor::Outcome
TemporalStreamPredictor::observe(Addr a)
{
    ++observations_;
    Outcome out;

    // 1. Match against active windows; advance the matching stream.
    for (Stream &s : streams_) {
        if (!s.active)
            continue;
        for (std::size_t i = 0; i < s.window.size(); ++i) {
            if (s.window[i] != a)
                continue;
            s.window.erase(s.window.begin(),
                           s.window.begin() +
                               static_cast<std::ptrdiff_t>(i + 1));
            s.episode.length += i + 1;
            s.episode.matched += 1;
            s.lastUse = ++tick_;
            refill(s);
            out.predicted = true;
            break;
        }
        if (out.predicted)
            break;
    }

    if (out.predicted) {
        ++predicted_;
        append(a);
        return out;
    }

    // 2. Trigger a new stream when the element recurs in the index.
    if (auto seq = index_.lookup(a)) {
        if (histValid(*seq + 1)) {
            Stream *victim = &streams_[0];
            for (Stream &s : streams_) {
                if (!s.active) {
                    victim = &s;
                    break;
                }
                if (s.lastUse < victim->lastUse)
                    victim = &s;
            }
            closeEpisode(*victim);
            victim->active = true;
            victim->ptr = *seq + 1;
            victim->window.clear();
            victim->lastUse = ++tick_;
            victim->episode = StreamEpisode{};
            victim->episode.jumpDistance = tail_ - *seq;
            refill(*victim);
            if (victim->active) {
                out.triggered = true;
                ++triggers_;
            }
        }
    }

    append(a);
    return out;
}

void
TemporalStreamPredictor::finish()
{
    for (Stream &s : streams_)
        closeEpisode(s);
}

} // namespace pifetch
