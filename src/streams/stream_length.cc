/**
 * @file
 * Stream-length study implementation.
 */

#include "streams/stream_length.hh"

namespace pifetch {

StreamLengthStudy::StreamLengthStudy(unsigned max_log2)
    : pred_(TemporalPredictorConfig{}), hist_(max_log2)
{
    pred_.onEpisodeEnd([this](const StreamEpisode &ep) {
        if (ep.matched > 0) {
            hist_.add(ep.length, static_cast<double>(ep.matched));
        }
    });
}

void
StreamLengthStudy::observe(Addr element)
{
    pred_.observe(element);
}

void
StreamLengthStudy::finish()
{
    pred_.finish();
}

} // namespace pifetch
