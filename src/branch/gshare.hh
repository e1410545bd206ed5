/**
 * @file
 * Gshare direction predictor with explicit history management.
 */

#pragma once

#include <vector>

#include "branch/predictor.hh"

namespace pifetch {

/**
 * Gshare: 2-bit counters indexed by PC xor global branch history.
 *
 * History is updated non-speculatively in update(); the front-end model
 * resolves each branch before predicting the next one of the same
 * thread, so speculative-history repair is unnecessary here.
 */
class GsharePredictor
{
  public:
    /**
     * @param entries Table size (power of two).
     * @param history_bits Global history length folded into the index.
     */
    GsharePredictor(unsigned entries, unsigned history_bits);

    /** Predicted direction of the conditional branch at @p pc. */
    bool predict(Addr pc);
    /** Train with the resolved direction. */
    void update(Addr pc, bool taken);

    /** Current global history register (tests). */
    std::uint64_t history() const { return history_; }

  private:
    std::uint64_t indexOf(Addr pc) const
    {
        return ((pc >> 2) ^ history_) & mask_;
    }

    std::uint64_t mask_;
    std::uint64_t historyMask_;
    std::uint64_t history_ = 0;
    std::vector<SatCounter2> table_;
};

} // namespace pifetch
