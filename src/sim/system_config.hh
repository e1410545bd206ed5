/**
 * @file
 * Prefetcher selection and construction for the engines.
 */

#pragma once

#include <memory>

#include "common/config.hh"
#include "prefetch/prefetcher.hh"

namespace pifetch {

/** The prefetch configurations compared in Figure 10. */
enum class PrefetcherKind {
    None,           //!< no prefetching (Figure 10 baseline)
    NextLine,       //!< aggressive next-line prefetcher
    Tifs,           //!< temporal instruction fetch streaming
    Discontinuity,  //!< discontinuity prefetcher (extension)
    Pif,            //!< Proactive Instruction Fetch
    Perfect,        //!< perfect-latency L1-I (engine-interpreted)
};

/**
 * Construct a prefetcher of @p kind from @p cfg.
 *
 * Perfect returns a NullPrefetcher: the perfect-latency cache is a
 * property the cycle engine applies, not a prefetch algorithm.
 *
 * @param unbounded Remove storage limits (Figure 10 left's
 *        "no storage limitation" comparison) where supported.
 */
std::unique_ptr<Prefetcher> makePrefetcher(PrefetcherKind kind,
                                           const SystemConfig &cfg,
                                           bool unbounded = false);

} // namespace pifetch
