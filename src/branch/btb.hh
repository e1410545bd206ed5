/**
 * @file
 * Branch target buffer.
 */

#pragma once

#include <vector>

#include "common/config.hh"
#include "common/types.hh"

namespace pifetch {

/**
 * Set-associative PC -> target mapping with LRU replacement.
 *
 * The front-end model consults the BTB for taken-branch targets; a BTB
 * miss on a taken branch forces sequential (wrong-path) fetch until
 * resolution, another source of access-stream noise.
 */
class Btb
{
  public:
    Btb(unsigned entries, unsigned assoc);

    /** Construct from the branch config. */
    explicit Btb(const BranchConfig &cfg) : Btb(cfg.btbEntries,
                                                cfg.btbAssoc) {}

    /**
     * Look up the target for the branch at @p pc.
     * @return the target, or invalidAddr on a BTB miss.
     */
    Addr lookup(Addr pc);

    /** Install or refresh the mapping pc -> target. */
    void update(Addr pc, Addr target);

    std::uint64_t hits() const { return hits_; }
    std::uint64_t lookups() const { return lookups_; }

  private:
    struct Entry
    {
        Addr tag = invalidAddr;
        Addr target = invalidAddr;
        std::uint64_t stamp = 0;
        bool valid = false;
    };

    std::uint64_t setOf(Addr pc) const { return (pc >> 2) & setMask_; }

    unsigned assoc_;
    std::uint64_t setMask_;
    std::uint64_t tick_ = 0;
    std::vector<Entry> entries_;

    std::uint64_t hits_ = 0;
    std::uint64_t lookups_ = 0;
};

} // namespace pifetch
