/**
 * @file
 * Proactive Instruction Fetch prefetcher (Section 4, Figure 4).
 *
 * Assembles the four PIF hardware structures: per-trap-level spatial
 * and temporal compactors feeding per-trap-level history buffers and
 * index tables, plus a shared pool of stream address buffers that
 * monitor front-end fetches and issue prefetch candidates.
 *
 * The history buffers and index tables live in a PifHistoryStore. The
 * paper gives every core "completely independent dedicated predictor
 * hardware" and notes that "storage benefits can be attained by
 * sharing predictor structures among multiple cores". A PifPrefetcher
 * owns its store for the first design; for the second, several cores'
 * prefetchers record into and replay from one store, while the
 * compactors and SABs, which track one core's execution, stay private.
 */

#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/config.hh"
#include "pif/history_buffer.hh"
#include "pif/index_table.hh"
#include "pif/sab.hh"
#include "pif/spatial_compactor.hh"
#include "pif/temporal_compactor.hh"
#include "prefetch/prefetch_queue.hh"
#include "prefetch/prefetcher.hh"

namespace pifetch {

/**
 * PIF's history storage: one history buffer and index table per
 * recording chain (TL0 and TL1 with cfg.separateTrapLevels, else one
 * chain for both). Simulation is sequential, so a store shared by
 * several cores models no synchronization (a real design would bank
 * these structures).
 */
class PifHistoryStore
{
  public:
    /**
     * @param cfg PIF design parameters; historyRegions and
     *        indexEntries size the whole store, however many cores
     *        share it. Separate trap levels split both 7/8 : 1/8
     *        between TL0 and TL1.
     * @param unbounded Remove history/index capacity limits (the
     *        Figure 10 "no storage limitation" configuration).
     */
    explicit PifHistoryStore(const PifConfig &cfg, bool unbounded = false);

    const PifConfig &config() const { return cfg_; }

    /** Recording chains: 2 with separate trap levels, else 1. */
    std::size_t chains() const { return chains_.size(); }

    HistoryBuffer &history(std::size_t chain)
    {
        return chains_[chain].history;
    }
    IndexTable &index(std::size_t chain) { return chains_[chain].index; }

    /** Regions recorded into every chain, by every core sharing it. */
    std::uint64_t regionsRecorded() const;

  private:
    struct Chain
    {
        HistoryBuffer history;
        IndexTable index;
    };

    PifConfig cfg_;
    std::vector<Chain> chains_;
};

/**
 * The complete PIF mechanism as an engine-pluggable Prefetcher.
 *
 * With cfg.separateTrapLevels set (the RetireSep configuration of
 * Figure 2), interrupt-handler execution records into its own history
 * so handler noise cannot fragment application streams; the history
 * buffer capacity is split 7/8 : 1/8 between TL0 and TL1.
 */
class PifPrefetcher final : public Prefetcher
{
  public:
    /**
     * @param cfg PIF design parameters.
     * @param unbounded_storage Remove history/index capacity limits
     *        (the Figure 10 "no storage limitation" configuration).
     */
    explicit PifPrefetcher(const PifConfig &cfg,
                           bool unbounded_storage = false);

    /**
     * One core's PIF over @p store, which other cores' prefetchers
     * may share; the design parameters are the store's.
     */
    explicit PifPrefetcher(std::shared_ptr<PifHistoryStore> store);

    // The three engine hooks run on every instruction of every replay;
    // they are defined inline (below the class) so the engines'
    // monomorphized loops can fold them in without LTO.
    void onFetchAccess(const FetchInfo &info) override;
    void onRetire(const RetiredInstr &instr, bool tagged) override;

    unsigned drainRequests(std::vector<Addr> &out, unsigned max) override;
    void resetStats() override;

    /**
     * Prediction coverage counters (Section 5.4's "predictor coverage"):
     * a correct-path fetch access counts as covered when it was
     * delivered from a prefetched block, matched an active SAB window,
     * or was already sitting in the prefetch queue.
     */
    std::uint64_t coveredAccesses(TrapLevel tl) const
    {
        return covered_[tl];
    }
    /** Total correct-path accesses observed at @p tl. */
    std::uint64_t totalAccesses(TrapLevel tl) const { return total_[tl]; }

    /** Coverage ratio at trap level @p tl. */
    double
    coverage(TrapLevel tl) const
    {
        return total_[tl] == 0
            ? 0.0
            : static_cast<double>(covered_[tl]) /
              static_cast<double>(total_[tl]);
    }

    /** Overall coverage across trap levels. */
    double coverage() const;

    /** Regions recorded into history (all trap levels; every core's
     * when the store is shared). */
    std::uint64_t regionsRecorded() const
    {
        return store_->regionsRecorded();
    }

    /** SAB allocations performed. */
    std::uint64_t sabAllocations() const { return sabAllocations_; }

    /** Access the per-TL history (tests, studies). */
    const HistoryBuffer &history(TrapLevel tl) const
    {
        return *chains_[chainFor(tl)].history;
    }

    /** Access the per-TL index table (tests). */
    const IndexTable &index(TrapLevel tl) const
    {
        return *chains_[chainFor(tl)].index;
    }

  private:
    /** Recording chain for one trap level: private compactors feeding
     * the store's history buffer and index table. */
    struct Chain
    {
        std::unique_ptr<SpatialCompactor> spatial;
        std::unique_ptr<TemporalCompactor> temporal;
        HistoryBuffer *history = nullptr;
        IndexTable *index = nullptr;
    };

    /** Map a trap level to a chain slot. */
    std::size_t
    chainFor(TrapLevel tl) const
    {
        return (cfg_.separateTrapLevels && tl > 0) ? 1 : 0;
    }

    /** Route a completed spatial region down its chain. */
    void recordRegion(Chain &chain, const SpatialRegion &rec);

    PifConfig cfg_;
    std::vector<Chain> chains_;
    std::vector<StreamAddressBuffer> sabs_;
    std::uint64_t sabTick_ = 0;

    PrefetchQueue queue_{256};
    std::vector<Addr> scratch_;  //!< SAB emission buffer

    std::uint64_t covered_[maxTrapLevels] = {0, 0};
    std::uint64_t total_[maxTrapLevels] = {0, 0};
    std::uint64_t sabAllocations_ = 0;

    /** Owner of the history and index the chains point into; declared
     * last to keep it off the hot members' cache lines. */
    std::shared_ptr<PifHistoryStore> store_;
};

inline void
PifPrefetcher::recordRegion(Chain &chain, const SpatialRegion &rec)
{
    if (!chain.temporal->admit(rec))
        return;  // filtered loop-iteration redundancy
    const std::uint64_t seq = chain.history->append(rec);
    // Index insertion is conditional on the fetch-stage tag; history
    // insertion is unconditional (Section 4.2).
    if (rec.triggerTagged)
        chain.index->insert(rec.triggerPc, seq);
}

inline void
PifPrefetcher::onRetire(const RetiredInstr &instr, bool tagged)
{
    Chain &chain = chains_[chainFor(instr.trapLevel)];
    if (auto done = chain.spatial->observe(instr.pc, tagged,
                                           instr.trapLevel)) {
        recordRegion(chain, *done);
    }
}

inline void
PifPrefetcher::onFetchAccess(const FetchInfo &info)
{
    // 1. Stream advancement: active SABs watch every front-end fetch.
    scratch_.clear();
    bool in_stream = false;
    for (StreamAddressBuffer &sab : sabs_) {
        if (sab.onAccess(info.block, scratch_)) {
            in_stream = true;
            sab.touch(++sabTick_);
        }
    }

    // Coverage accounting (correct-path fetches only).
    if (info.correctPath) {
        const TrapLevel tl = std::min<TrapLevel>(info.trapLevel,
                                                 maxTrapLevels - 1);
        ++total_[tl];
        const bool covered = (info.hit && info.wasPrefetched) ||
                             in_stream || queue_.contains(info.block);
        if (covered)
            ++covered_[tl];
    }

    // 2. Stream trigger: a fetch that was not delivered by a prefetch
    // consults the index table (Section 4.3).
    if (!(info.hit && info.wasPrefetched) && !in_stream) {
        Chain &chain = chains_[chainFor(info.trapLevel)];
        if (auto seq = chain.index->lookup(info.pc)) {
            if (chain.history->valid(*seq)) {
                // Allocate the LRU SAB for the new stream.
                StreamAddressBuffer *victim = &sabs_[0];
                for (StreamAddressBuffer &sab : sabs_) {
                    if (!sab.active()) {
                        victim = &sab;
                        break;
                    }
                    if (sab.lastUse() < victim->lastUse())
                        victim = &sab;
                }
                victim->allocate(chain.history, *seq, scratch_);
                victim->touch(++sabTick_);
                ++sabAllocations_;
            }
        }
    }

    for (Addr b : scratch_) {
        if (queue_.push(b))
            ++issued_;
    }
}

inline unsigned
PifPrefetcher::drainRequests(std::vector<Addr> &out, unsigned max)
{
    return queue_.drain(out, max);
}

} // namespace pifetch
