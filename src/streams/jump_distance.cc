/**
 * @file
 * Jump-distance study implementation.
 */

#include "streams/jump_distance.hh"

namespace pifetch {

JumpDistanceStudy::JumpDistanceStudy(unsigned max_log2)
    : pred_(TemporalPredictorConfig{}), hist_(max_log2)
{
    pred_.onEpisodeEnd([this](const StreamEpisode &ep) {
        if (ep.matched > 0) {
            hist_.add(ep.jumpDistance,
                      static_cast<double>(ep.matched));
        }
    });
}

void
JumpDistanceStudy::observe(Addr block)
{
    pred_.observe(block);
}

void
JumpDistanceStudy::finish()
{
    pred_.finish();
}

} // namespace pifetch
