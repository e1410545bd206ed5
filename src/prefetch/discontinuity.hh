/**
 * @file
 * Discontinuity prefetcher (Spracklen et al., HPCA 2005) — extension
 * baseline discussed in Section 6.
 *
 * Records one non-sequential transition per source block in a table;
 * on a fetch that hits the table, prefetches the recorded target and a
 * few next lines behind both the demand and the target. Lookahead is
 * limited to one discontinuity at a time, which is exactly the
 * limitation the paper contrasts PIF against.
 */

#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "common/flat_hash.hh"
#include "prefetch/prefetcher.hh"

namespace pifetch {

/** Sizing for the discontinuity prefetcher. */
struct DiscontinuityConfig
{
    unsigned tableEntries = 8 * 1024;
    unsigned tableAssoc = 4;
    unsigned nextLineDegree = 2;  //!< sequential depth behind each point
};

/**
 * Discontinuity-table instruction prefetcher.
 */
class DiscontinuityPrefetcher final : public Prefetcher
{
  public:
    explicit DiscontinuityPrefetcher(const DiscontinuityConfig &cfg);

    void onFetchAccess(const FetchInfo &info) override;
    unsigned drainRequests(std::vector<Addr> &out, unsigned max) override;

  private:
    struct Entry
    {
        Addr src = invalidAddr;
        Addr dst = invalidAddr;
        std::uint64_t stamp = 0;
        bool valid = false;
    };

    void enqueue(Addr block);
    void install(Addr src, Addr dst);
    Addr lookup(Addr src);

    DiscontinuityConfig cfg_;
    std::uint64_t setMask_;
    std::uint64_t tick_ = 0;
    std::vector<Entry> table_;

    Addr lastBlock_ = invalidAddr;
    std::deque<Addr> queue_;
    AddrSet queued_;
};

} // namespace pifetch
