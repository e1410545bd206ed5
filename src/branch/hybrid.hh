/**
 * @file
 * Hybrid (tournament) branch predictor: gshare + bimodal + chooser.
 */

#pragma once

#include <vector>

#include "branch/bimodal.hh"
#include "branch/gshare.hh"
#include "branch/predictor.hh"
#include "common/config.hh"

namespace pifetch {

/**
 * Table I's "hybrid branch predictor: 16K gshare & 16K bimodal".
 *
 * A PC-indexed chooser table of 2-bit counters selects the component
 * whose prediction is used; the chooser trains only when the components
 * disagree.
 */
class HybridPredictor
{
  public:
    explicit HybridPredictor(const BranchConfig &cfg);

    /** Predicted direction of the conditional branch at @p pc. */
    bool predict(Addr pc);
    /** Train with the resolved direction. */
    void update(Addr pc, bool taken);

    /** Mispredictions observed via recordOutcome(). */
    std::uint64_t mispredicts() const { return mispredicts_; }
    /** Total predictions observed via recordOutcome(). */
    std::uint64_t predictions() const { return predictions_; }

    /**
     * Convenience: predict, train, and count in one call.
     * @return the prediction made before training.
     */
    bool
    predictAndUpdate(Addr pc, bool taken)
    {
        const bool pred = predict(pc);
        update(pc, taken);
        ++predictions_;
        if (pred != taken)
            ++mispredicts_;
        return pred;
    }

  private:
    std::uint64_t chooserIndex(Addr pc) const
    {
        return (pc >> 2) & chooserMask_;
    }

    GsharePredictor gshare_;
    BimodalPredictor bimodal_;
    std::uint64_t chooserMask_;
    std::vector<SatCounter2> chooser_;  //!< taken() == "use gshare"

    std::uint64_t predictions_ = 0;
    std::uint64_t mispredicts_ = 0;
};

} // namespace pifetch
