/**
 * @file
 * PIF prefetcher implementation.
 */

#include "pif/pif_prefetcher.hh"

#include <algorithm>

namespace pifetch {

PifHistoryStore::PifHistoryStore(const PifConfig &cfg, bool unbounded)
    : cfg_(cfg)
{
    const unsigned num_chains = cfg_.separateTrapLevels ? 2 : 1;
    chains_.reserve(num_chains);
    for (unsigned c = 0; c < num_chains; ++c) {
        std::uint64_t hist_cap = 0;
        unsigned index_entries = 0;
        if (!unbounded) {
            if (num_chains == 2) {
                // Handlers are compact: give TL1 1/8 of the capacity.
                hist_cap = (c == 0) ? cfg_.historyRegions * 7 / 8
                                    : cfg_.historyRegions / 8;
                index_entries = (c == 0)
                    ? cfg_.indexEntries * 7 / 8
                    : cfg_.indexEntries / 8;
                // Keep set geometry valid (power-of-two sets).
                index_entries = std::max(index_entries,
                                         cfg_.indexAssoc * 2);
                unsigned sets = index_entries / cfg_.indexAssoc;
                while (sets & (sets - 1))
                    --sets;
                index_entries = sets * cfg_.indexAssoc;
            } else {
                hist_cap = cfg_.historyRegions;
                index_entries = cfg_.indexEntries;
            }
        }
        chains_.push_back(Chain{HistoryBuffer(hist_cap),
                                IndexTable(index_entries,
                                           cfg_.indexAssoc)});
    }
}

std::uint64_t
PifHistoryStore::regionsRecorded() const
{
    std::uint64_t n = 0;
    for (const Chain &c : chains_)
        n += c.history.appended();
    return n;
}

namespace {

/** A store that only one PifPrefetcher records into. */
std::shared_ptr<PifHistoryStore>
makePrivateStore(const PifConfig &cfg, bool unbounded)
{
    return std::make_shared<PifHistoryStore>(cfg, unbounded);
}

} // namespace

PifPrefetcher::PifPrefetcher(const PifConfig &cfg, bool unbounded_storage)
    : PifPrefetcher(makePrivateStore(cfg, unbounded_storage))
{
}

PifPrefetcher::PifPrefetcher(std::shared_ptr<PifHistoryStore> store)
    : cfg_(store->config()), store_(std::move(store))
{
    for (std::size_t c = 0; c < store_->chains(); ++c) {
        Chain chain;
        chain.spatial = std::make_unique<SpatialCompactor>(cfg_);
        chain.temporal =
            std::make_unique<TemporalCompactor>(cfg_.temporalEntries);
        chain.history = &store_->history(c);
        chain.index = &store_->index(c);
        chains_.push_back(std::move(chain));
    }

    for (unsigned s = 0; s < cfg_.numSabs; ++s) {
        sabs_.emplace_back(cfg_.sabWindowRegions, cfg_.blocksBefore);
    }
}

double
PifPrefetcher::coverage() const
{
    std::uint64_t cov = 0;
    std::uint64_t tot = 0;
    for (unsigned tl = 0; tl < maxTrapLevels; ++tl) {
        cov += covered_[tl];
        tot += total_[tl];
    }
    return tot == 0 ? 0.0 : static_cast<double>(cov) /
                            static_cast<double>(tot);
}

void
PifPrefetcher::resetStats()
{
    Prefetcher::resetStats();
    for (unsigned tl = 0; tl < maxTrapLevels; ++tl) {
        covered_[tl] = 0;
        total_[tl] = 0;
    }
    sabAllocations_ = 0;
}

} // namespace pifetch
