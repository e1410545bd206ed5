/**
 * @file
 * Trace engine implementation.
 */

#include "sim/trace_engine.hh"

#include <stdexcept>

#include "pif/pif_prefetcher.hh"
#include "sim/prefetcher_dispatch.hh"

namespace pifetch {

namespace {
/** Prefetch candidates applied per instruction step (functional). */
constexpr unsigned drainPerStep = 16;
} // namespace

TraceEngine::TraceEngine(const SystemConfig &cfg,
                         std::unique_ptr<Prefetcher> prefetcher)
    : cfg_(cfg),
      l1i_(cfg.l1i, ReplacementKind::LRU, cfg.seed),
      frontend_(cfg, l1i_, frontendSeed(cfg)),
      prefetcher_(std::move(prefetcher))
{
    batch_.reserve(batchLen_);
    steps_.reserve(batchLen_);
    events_.reserve(64);
    drain_.reserve(drainPerStep);
}

TraceEngine::TraceEngine(const SystemConfig &cfg, const Program &prog,
                         const ExecutorConfig &exec_cfg,
                         std::unique_ptr<Prefetcher> prefetcher)
    : TraceEngine(cfg, std::move(prefetcher))
{
    exec_.emplace(prog, exec_cfg);
}

TraceEngine::TraceEngine(const SystemConfig &cfg,
                         const FrontRecording &rec,
                         std::unique_ptr<Prefetcher> prefetcher)
    : TraceEngine(cfg, std::move(prefetcher))
{
    if (!rec.replayableWith(cfg))
        throw std::invalid_argument(
            "TraceEngine: recording made under another front-end "
            "configuration");
    replay_.emplace(rec);
}

void
TraceEngine::attachObservers(const ObserverConfig &obs)
{
    if (replay_)
        throw std::logic_error(
            "TraceEngine: observers need the live front end");
    observers_.configure(obs);
}

template <typename P>
void
TraceEngine::drainFills(P &prefetcher, bool observing)
{
    // Apply prefetch candidates: probe the tags first (Section 4.3's
    // line-buffer path); a functional fill models a timely prefetch.
    // This stays per-instruction — the fill changes what the very next
    // instruction's fetch hits.
    drain_.clear();
    prefetcher.drainRequests(drain_, drainPerStep);
    for (Addr b : drain_) {
        if (!l1i_.probe(b)) {
            l1i_.fill(b, true);
            if (observing)
                observers_.observePrefetchFill(b);
        }
    }
}

template <typename P>
void
TraceEngine::backStage(P &prefetcher, const RecordBatch *observed)
{
    const bool observing = observed != nullptr;
    std::uint32_t at = 0;  // batch index of the next observed record

    for (const FrontStep &s : steps_) {
        events_.clear();
        const bool tagged = frontend_.fetchStep(s, events_);
        if (observing)
            observers_.observeStep(observed->get(at++), events_.data(),
                                   events_.size(), *exec_, frontend_,
                                   l1i_);

        for (const FetchAccess &ev : events_) {
            FetchInfo info;
            info.block = ev.block;
            info.pc = ev.correctPath ? s.pc : blockBase(ev.block);
            info.hit = ev.hit;
            info.wasPrefetched = ev.wasPrefetched;
            info.correctPath = ev.correctPath;
            info.trapLevel = ev.trapLevel;
            prefetcher.onFetchAccess(info);
        }

        // The retire hooks read the pc and trap level only.
        RetiredInstr retired;
        retired.pc = s.pc;
        retired.trapLevel = s.trapLevel;
        prefetcher.onRetire(retired, tagged);
        drainFills(prefetcher, observing);

        if (s.sameBlock == 0)
            continue;
        if (observing) {
            // Observers fold every record, so the run stays scalar.
            for (std::uint32_t k = 0; k < s.sameBlock; ++k) {
                observers_.observeStep(observed->get(at++), nullptr, 0,
                                       *exec_, frontend_, l1i_);
                prefetcher.onRetireSameBlockRun(s.trapLevel, 1);
                drainFills(prefetcher, true);
            }
            continue;
        }
        // Bulk same-block run: no front-end work and no fetches, so
        // the prefetcher sees one same-block-run retire (exactly
        // equivalent to the per-instruction calls — every shipped
        // retire hook is either a no-op or the spatial compactor's
        // same-block early-out), and the drain keeps its
        // per-instruction budget. No accesses intervene, so nothing
        // enqueues mid-run: once a drain comes back empty the queue
        // stays empty, and stopping early is state-identical to
        // draining once per instruction.
        prefetcher.onRetireSameBlockRun(s.trapLevel, s.sameBlock);
        for (std::uint32_t k = 0; k < s.sameBlock; ++k) {
            drain_.clear();
            if (prefetcher.drainRequests(drain_, drainPerStep) == 0)
                break;
            for (Addr b : drain_) {
                if (!l1i_.probe(b))
                    l1i_.fill(b, true);
            }
        }
    }
}

template <typename P>
void
TraceEngine::advanceWith(P &prefetcher, InstCount n)
{
    // Unobserved, the front stage never reads the target/taken columns
    // of plain records (FrontStage::step ignores both for Plain), so
    // let the decoder skip those fills. Observers fold whole records
    // and need full batches.
    const bool observing = observers_.active();
    while (n > 0) {
        const std::uint32_t want =
            n < batchLen_ ? static_cast<std::uint32_t>(n) : batchLen_;
        InstCount got = 0;
        if (replay_) {
            got = replay_->next(steps_, want);
        } else {
            exec_->nextBatch(batch_, want, !observing);
            frontend_.front().stepBatch(batch_, steps_);
            got = batch_.size;
        }
        if (got == 0)
            break;
        backStage(prefetcher, observing ? &batch_ : nullptr);
        n -= got;
    }
}

void
TraceEngine::advance(InstCount n)
{
    // Monomorphize the loop on the known prefetcher set (the ladder
    // lives in sim/prefetcher_dispatch.hh).
    withConcretePrefetcher(*prefetcher_,
                           [&](auto &p) { advanceWith(p, n); });
}

void
TraceEngine::replayBatch(const RecordBatch &batch)
{
    frontend_.front().stepBatch(batch, steps_);
    withConcretePrefetcher(*prefetcher_, [&](auto &p) {
        backStage(p, observers_.active() ? &batch : nullptr);
    });
}

RunCounters
TraceEngine::counters() const
{
    return replay_ ? replay_->counters(frontend_)
                   : liveRunCounters(*exec_, frontend_);
}

TraceRunResult
TraceEngine::run(InstCount warmup, InstCount measure)
{
    advance(warmup);

    // Snapshot warmup-end counters so the result reflects only the
    // measurement window. instrs comes from the executor (or the
    // recording's copy of its counter), not echoed from the request,
    // so the length-scaling and cross-engine oracles (src/check/)
    // compare a real counter: a loop that silently ran short would
    // show up here.
    const RunCounters base = counters();
    const std::uint64_t fills0 = l1i_.prefetchFills();
    const std::uint64_t useful0 = l1i_.usefulPrefetches();
    prefetcher_->resetStats();

    advance(measure);

    TraceRunResult res;
    static_cast<RunCounters &>(res) = counters();
    res.subtractBase(base);
    res.prefetchIssued = prefetcher_->issued();
    res.prefetchFills = l1i_.prefetchFills() - fills0;
    res.usefulPrefetches = l1i_.usefulPrefetches() - useful0;

    if (auto *pif = dynamic_cast<PifPrefetcher *>(prefetcher_.get())) {
        res.pifCoverageTl0 = pif->coverage(0);
        res.pifCoverageTl1 = pif->coverage(1);
        res.pifCoverage = pif->coverage();
    }
    res.retireDigest = observers_.retireDigest();
    res.accessDigest = observers_.accessDigest();
    return res;
}

} // namespace pifetch
