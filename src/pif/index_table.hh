/**
 * @file
 * Index table (Section 4.2).
 *
 * A small cache-like structure mapping a trigger PC to the history-
 * buffer location of its most recent record. Insertion is conditional
 * on the trigger being tagged (not explicitly prefetched); lookup is
 * performed when the core issues a fetch that was not prefetched.
 * Supports an unbounded mode for the no-storage-limit studies,
 * backed by an open-addressing flat map (common/flat_hash.hh) — the
 * lookup sits on the per-fetch hot path of every Figure 10 run.
 */

#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/flat_hash.hh"
#include "common/types.hh"

namespace pifetch {

/**
 * Set-associative PC -> history-sequence mapping with LRU replacement.
 */
class IndexTable
{
  public:
    /**
     * @param entries Total entries; 0 = unbounded (hash map).
     * @param assoc Set associativity (ignored when unbounded).
     */
    IndexTable(unsigned entries, unsigned assoc);

    /** Insert or update the mapping @p pc -> @p seq. */
    void insert(Addr pc, std::uint64_t seq);

    /**
     * Look up @p pc, refreshing its recency.
     * @return the most recent history sequence, or nullopt.
     */
    std::optional<std::uint64_t> lookup(Addr pc);

    /** Lookups performed. */
    std::uint64_t lookups() const { return lookups_; }
    /** Lookups that hit. */
    std::uint64_t hits() const { return hits_; }

  private:
    struct Entry
    {
        Addr pc = invalidAddr;
        std::uint64_t seq = 0;
        std::uint64_t stamp = 0;
        bool valid = false;
    };

    bool unbounded_;
    unsigned assoc_ = 0;
    std::uint64_t setMask_ = 0;
    std::uint64_t tick_ = 0;
    std::vector<Entry> entries_;
    AddrMap<std::uint64_t> map_;

    std::uint64_t lookups_ = 0;
    std::uint64_t hits_ = 0;
};

} // namespace pifetch
