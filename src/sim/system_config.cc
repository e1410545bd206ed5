/**
 * @file
 * Prefetcher factory.
 */

#include "sim/system_config.hh"

#include "pif/pif_prefetcher.hh"
#include "prefetch/discontinuity.hh"
#include "prefetch/next_line.hh"
#include "prefetch/tifs.hh"

namespace pifetch {

std::unique_ptr<Prefetcher>
makePrefetcher(PrefetcherKind kind, const SystemConfig &cfg,
               bool unbounded)
{
    switch (kind) {
      case PrefetcherKind::None:
      case PrefetcherKind::Perfect:
        return std::make_unique<NullPrefetcher>();
      case PrefetcherKind::NextLine:
        return std::make_unique<NextLinePrefetcher>(cfg.nextLine);
      case PrefetcherKind::Tifs: {
        TifsConfig tc = cfg.tifs;
        tc.unbounded = unbounded;
        return std::make_unique<TifsPrefetcher>(tc);
      }
      case PrefetcherKind::Discontinuity:
        return std::make_unique<DiscontinuityPrefetcher>(
            DiscontinuityConfig{});
      case PrefetcherKind::Pif:
        return std::make_unique<PifPrefetcher>(cfg.pif, unbounded);
    }
    panic("unknown prefetcher kind");
}

} // namespace pifetch
