/**
 * @file
 * Concrete-type dispatch for the engines' monomorphized loops.
 *
 * The engines run their per-instruction loop templated on the
 * concrete prefetcher type so the three per-instruction hooks
 * devirtualize and inline (every shipped Prefetcher subclass is
 * `final`). This helper holds the one type ladder both engines use:
 * add new prefetchers here and every engine picks up the fast path;
 * a type missing from the ladder still works through the generic
 * virtual-dispatch fallback, just without the inlining.
 */

#pragma once

#include "pif/pif_prefetcher.hh"
#include "prefetch/discontinuity.hh"
#include "prefetch/next_line.hh"
#include "prefetch/tifs.hh"
#include "prefetch/prefetcher.hh"

namespace pifetch {

/**
 * Invoke @p fn with @p pf downcast to its concrete type (generic
 * Prefetcher& for types not in the ladder).
 */
template <typename Fn>
void
withConcretePrefetcher(Prefetcher &pf, Fn &&fn)
{
    if (auto *p = dynamic_cast<PifPrefetcher *>(&pf))
        fn(*p);
    else if (auto *p = dynamic_cast<NextLinePrefetcher *>(&pf))
        fn(*p);
    else if (auto *p = dynamic_cast<TifsPrefetcher *>(&pf))
        fn(*p);
    else if (auto *p = dynamic_cast<DiscontinuityPrefetcher *>(&pf))
        fn(*p);
    else if (auto *p = dynamic_cast<NullPrefetcher *>(&pf))
        fn(*p);
    else
        fn(pf);
}

} // namespace pifetch
