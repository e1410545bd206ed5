/**
 * @file
 * Backing memory hierarchy below the L1 instruction cache.
 *
 * Models the unified L2 NUCA cache and main memory of Table I as a
 * latency oracle: given a block address, it returns the fill latency
 * (L2 hit or memory) and updates L2 contents. Instruction blocks from
 * both demand misses and prefetches flow through here, so prefetch
 * traffic warms (and can pollute) the L2 exactly as in the paper's
 * simulated machine. Inter-core interconnect contention is folded into
 * the L2 hit latency (see DESIGN.md substitution #3).
 */

#pragma once

#include <cstdint>

#include "cache/cache.hh"
#include "common/config.hh"
#include "common/types.hh"

namespace pifetch {

/**
 * L2 + memory latency model shared by demand and prefetch requests.
 */
class MemoryHierarchy
{
  public:
    explicit MemoryHierarchy(const MemoryConfig &cfg);

    /**
     * Request instruction block @p block.
     *
     * Probes and updates the L2; on an L2 miss the block is installed.
     * @return the fill latency in cycles (L2 hit or memory access).
     */
    Cycle request(Addr block);

    /** Tag-only probe of the L2 (no state change). */
    bool inL2(Addr block) const { return l2_.probe(block); }

    /** L2 demand hits. */
    std::uint64_t l2Hits() const { return l2_.hits(); }
    /** L2 misses (memory accesses). */
    std::uint64_t l2Misses() const { return l2_.misses(); }

  private:
    Cycle l2HitLatency_;
    Cycle memLatency_;
    Cache l2_;
};

} // namespace pifetch
