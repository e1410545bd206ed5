/**
 * @file
 * Bimodal (PC-indexed) direction predictor.
 */

#pragma once

#include <vector>

#include "branch/predictor.hh"

namespace pifetch {

/**
 * Classic bimodal predictor: a table of 2-bit counters indexed by the
 * branch PC. Captures strongly biased branches (the majority in server
 * code) without history interference.
 */
class BimodalPredictor
{
  public:
    /** @param entries Table size; must be a power of two. */
    explicit BimodalPredictor(unsigned entries);

    /** Predicted direction of the conditional branch at @p pc. */
    bool predict(Addr pc);
    /** Train with the resolved direction. */
    void update(Addr pc, bool taken);

  private:
    std::uint64_t indexOf(Addr pc) const
    {
        return (pc >> 2) & mask_;
    }

    std::uint64_t mask_;
    std::vector<SatCounter2> table_;
};

} // namespace pifetch
