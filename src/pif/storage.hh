/**
 * @file
 * Hardware storage-cost model for the PIF structures.
 *
 * Section 5.4 frames the history buffer as "considerable chip
 * real-estate" and argues it is still a better use of transistors than
 * an equally-sized intermediate instruction cache. This model makes
 * the comparison concrete: it computes the bit cost of every PIF
 * structure (and of the TIFS equivalent) from the configuration, so
 * experiments can report coverage *per kilobyte of predictor storage*.
 */

#pragma once

#include <cstdint>

#include "common/config.hh"

namespace pifetch {

/** Bit costs of the PIF hardware structures. */
struct PifStorage
{
    std::uint64_t historyBits = 0;
    std::uint64_t indexBits = 0;
    std::uint64_t sabBits = 0;
    std::uint64_t compactorBits = 0;

    /** Total predictor storage in bits. */
    std::uint64_t
    totalBits() const
    {
        return historyBits + indexBits + sabBits + compactorBits;
    }

    /** Total predictor storage in kibibytes. */
    double
    totalKiB() const
    {
        return static_cast<double>(totalBits()) / 8.0 / 1024.0;
    }
};

/**
 * Compute PIF storage from the configuration.
 *
 * @param cfg PIF parameters (region geometry, capacities).
 * @param pc_bits Bits retained per recorded trigger PC (physical
 *        instruction address space; 40 covers a 1TB code region).
 */
PifStorage computePifStorage(const PifConfig &cfg,
                             unsigned pc_bits = 40);

/**
 * Storage of the TIFS equivalent (per-block-address miss history plus
 * index) for a like-for-like comparison.
 *
 * @param block_bits Bits per recorded block address (pc_bits -
 *        blockShift for the same address space).
 */
std::uint64_t tifsStorageBits(const TifsConfig &cfg,
                              unsigned block_bits = 34);

/**
 * Storage of one spatial region record in bits (trigger PC + bit
 * vector + tag bit).
 */
std::uint64_t regionRecordBits(const PifConfig &cfg, unsigned pc_bits);

} // namespace pifetch
