/**
 * @file
 * Cycle engine implementation.
 */

#include "sim/cycle_engine.hh"

#include <algorithm>
#include <stdexcept>

#include "sim/prefetcher_dispatch.hh"

namespace pifetch {

namespace {
/** Prefetch candidates considered per instruction step. */
constexpr unsigned drainPerStep = 4;
} // namespace

CycleEngine::CycleEngine(const SystemConfig &cfg, PrefetcherKind kind)
    : cfg_(cfg),
      kind_(kind),
      l1i_(cfg.l1i),
      frontend_(cfg, l1i_, frontendSeed(cfg)),
      hierarchy_(cfg.memory),
      prefetcher_(makePrefetcher(kind, cfg)),
      timing_(cfg.core, cfg.seed ^ 0x7131)
{
    batch_.reserve(batchLen_);
    steps_.reserve(batchLen_);
    events_.reserve(64);
    drain_.reserve(drainPerStep);
    pending_.reserve(cfg.l1i.mshrs * 2);
}

CycleEngine::CycleEngine(const SystemConfig &cfg, const Program &prog,
                         const ExecutorConfig &exec_cfg,
                         PrefetcherKind kind)
    : CycleEngine(cfg, kind)
{
    exec_.emplace(prog, exec_cfg);
}

CycleEngine::CycleEngine(const SystemConfig &cfg, const FrontRecording &rec,
                         PrefetcherKind kind)
    : CycleEngine(cfg, kind)
{
    if (!rec.replayableWith(cfg))
        throw std::invalid_argument(
            "CycleEngine: recording made under another front-end "
            "configuration");
    replay_.emplace(rec);
}

void
CycleEngine::attachObservers(const ObserverConfig &obs)
{
    if (replay_)
        throw std::logic_error(
            "CycleEngine: observers need the live front end");
    observers_.configure(obs);
}

void
CycleEngine::installReadyFills()
{
    const Cycle now = timing_.cycles();
    nextFill_ = noFill;
    // Known hazard: ready fills reach L1I in hash order, which can
    // leak the standard library's bucket layout into LRU recency.
    // The current order is locked byte-for-byte by the golden suite
    // (sorting the drain shifts fig10-speedup), so changing it means
    // a deliberate regold, not a drive-by cleanup. docs/linting.md
    // tracks this as the one outstanding D-unordered-iter waiver.
    // lint:allow(D-unordered-iter): fill order locked by goldens; fix requires a regold
    for (auto it = pending_.begin(); it != pending_.end();) {
        if (it->second <= now) {
            l1i_.fill(it->first, true);
            ++prefetchFills_;
            observers_.observePrefetchFill(it->first);
            it = pending_.erase(it);
        } else {
            nextFill_ = std::min(nextFill_, it->second);
            ++it;
        }
    }
}

template <typename P>
bool
CycleEngine::issuePrefetches(P &prefetcher)
{
    drain_.clear();
    if (prefetcher.drainRequests(drain_, drainPerStep) == 0)
        return false;
    for (Addr b : drain_) {
        if (l1i_.probe(b) || pending_.count(b))
            continue;
        if (pending_.size() >= cfg_.l1i.mshrs)
            break;  // MSHRs full: drop (back-pressure)
        const Cycle done = timing_.cycles() + hierarchy_.request(b);
        pending_.emplace(b, done);
        nextFill_ = std::min(nextFill_, done);
    }
    return true;
}

template <typename P>
void
CycleEngine::backStage(P &prefetcher, bool measuring,
                       const RecordBatch *observed)
{
    const bool perfect = kind_ == PrefetcherKind::Perfect;
    std::uint32_t at = 0;  // batch index of the next observed record

    for (const FrontStep &s : steps_) {
        // Fill timing is per-instruction: a completing prefetch changes
        // what this very fetch hits, so ready fills install before the
        // step's fetches.
        processReadyFills();

        events_.clear();
        const bool tagged = frontend_.fetchStep(s, events_);
        if (observed)
            observers_.observeStep(observed->get(at++), events_.data(),
                                   events_.size(), *exec_, frontend_,
                                   l1i_);

        for (const FetchAccess &ev : events_) {
            if (ev.correctPath && !ev.hit && !perfect) {
                // Demand miss: the fetch stage already performed the
                // functional fill; charge the timing.
                auto it = pending_.find(ev.block);
                Cycle stall;
                if (it != pending_.end()) {
                    // Late prefetch: wait only the residual latency.
                    const Cycle now = timing_.cycles();
                    stall = it->second > now ? it->second - now : 0;
                    pending_.erase(it);
                    if (measuring)
                        ++latePrefetches_;
                } else {
                    stall = hierarchy_.request(ev.block);
                }
                timing_.fetchStall(stall);
                if (measuring)
                    ++demandMisses_;
            }

            FetchInfo info;
            info.block = ev.block;
            info.pc = ev.correctPath ? s.pc : blockBase(ev.block);
            info.hit = ev.hit;
            info.wasPrefetched = ev.wasPrefetched;
            info.correctPath = ev.correctPath;
            info.trapLevel = ev.trapLevel;
            prefetcher.onFetchAccess(info);
        }

        // Branch misprediction penalty: a burst marks the mispredict.
        if (s.wrongBlocks > 0)
            timing_.mispredict();

        // The retire hooks read the pc and trap level only.
        RetiredInstr retired;
        retired.pc = s.pc;
        retired.trapLevel = s.trapLevel;
        prefetcher.onRetire(retired, tagged);
        timing_.instruction(s.trapLevel);
        bool draining = issuePrefetches(prefetcher);

        // The same-block run: no fetches, and no retire hook call
        // (PIF's spatial compactor drops a PC in the block it saw
        // last), but fills, timing and issue stay per instruction.
        // Nothing enqueues mid-run, so once a drain comes back empty
        // the queue stays empty and the run stops draining.
        for (std::uint32_t k = 0; k < s.sameBlock; ++k) {
            processReadyFills();
            if (observed)
                observers_.observeStep(observed->get(at++), nullptr, 0,
                                       *exec_, frontend_, l1i_);
            timing_.instruction(s.trapLevel);
            if (draining)
                draining = issuePrefetches(prefetcher);
        }
    }
}

template <typename P>
void
CycleEngine::advanceWith(P &prefetcher, InstCount n, bool measuring)
{
    const bool observing = observers_.active();
    while (n > 0) {
        const std::uint32_t want =
            n < batchLen_ ? static_cast<std::uint32_t>(n) : batchLen_;
        InstCount got = 0;
        if (replay_) {
            got = replay_->next(steps_, want);
        } else {
            exec_->nextBatch(batch_, want);
            frontend_.front().stepBatch(batch_, steps_);
            got = batch_.size;
        }
        if (got == 0)
            break;
        backStage(prefetcher, measuring, observing ? &batch_ : nullptr);
        n -= got;
    }
}

void
CycleEngine::advance(InstCount n, bool measuring)
{
    withConcretePrefetcher(*prefetcher_, [&](auto &p) {
        advanceWith(p, n, measuring);
    });
}

RunCounters
CycleEngine::counters() const
{
    return replay_ ? replay_->counters(frontend_)
                   : liveRunCounters(*exec_, frontend_);
}

CycleRunResult
CycleEngine::run(InstCount warmup, InstCount measure)
{
    advance(warmup, false);

    // resetStats() rewinds the cycle clock to zero; rebase in-flight
    // fill completion times so stale absolute cycles cannot charge
    // enormous residual stalls in the measurement window.
    const Cycle t0 = timing_.cycles();
    nextFill_ = noFill;
    // lint:allow(D-unordered-iter): per-entry rebase, order-insensitive
    for (auto &entry : pending_) {
        entry.second = entry.second > t0 ? entry.second - t0 : 0;
        nextFill_ = std::min(nextFill_, entry.second);
    }

    timing_.resetStats();
    prefetcher_->resetStats();
    demandMisses_ = 0;
    latePrefetches_ = 0;
    prefetchFills_ = 0;
    const std::uint64_t l2h0 = hierarchy_.l2Hits();
    const std::uint64_t l2m0 = hierarchy_.l2Misses();
    const RunCounters base = counters();

    advance(measure, true);

    CycleRunResult res;
    static_cast<RunCounters &>(res) = counters();
    res.subtractBase(base);
    res.cycles = timing_.cycles();
    res.instrs = timing_.instructions();
    res.userInstrs = timing_.userInstructions();
    res.uipc = timing_.uipc();
    res.fetchStallCycles = timing_.fetchStallCycles();
    res.branchPenaltyCycles = timing_.branchPenaltyCycles();
    res.demandMisses = demandMisses_;
    res.latePrefetches = latePrefetches_;
    res.prefetchFills = prefetchFills_;
    res.l2Hits = hierarchy_.l2Hits() - l2h0;
    res.l2Misses = hierarchy_.l2Misses() - l2m0;
    res.retireDigest = observers_.retireDigest();
    res.accessDigest = observers_.accessDigest();
    return res;
}

} // namespace pifetch
