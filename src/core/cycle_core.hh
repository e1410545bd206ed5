/**
 * @file
 * Simplified out-of-order timing model.
 *
 * Accumulates cycles from four sources, mirroring the first-order
 * performance behaviour of the Table I core:
 *  - dispatch bandwidth (dispatchWidth instructions per cycle);
 *  - instruction-fetch stalls (I-cache miss latency, partially hidden
 *    by ROB buffering);
 *  - branch misprediction penalties (front-end refill plus the
 *    data-dependent resolution delay);
 *  - back-end data stalls (a configurable fraction of instructions
 *    behaves like a long-latency load blocking retirement).
 *
 * This is intentionally a model, not a pipeline simulator: per
 * DESIGN.md substitution #1, the paper's Figure 10 (right) compares
 * configurations whose only difference is how many fetch-stall cycles
 * remain exposed, which this model captures directly. UIPC counts
 * trap-level-0 instructions only, matching the paper's user-IPC
 * metric.
 */

#pragma once

#include <cstdint>

#include "common/config.hh"
#include "common/rng.hh"
#include "common/types.hh"

namespace pifetch {

/**
 * Cycle accumulator for the simplified OoO core.
 */
class TimingModel
{
  public:
    TimingModel(const CoreConfig &cfg, std::uint64_t seed);

    /**
     * Account one retired instruction at trap level @p tl.
     * Applies dispatch bandwidth and the stochastic data-stall model.
     * Defined here: the cycle engine calls it on every instruction.
     */
    void
    instruction(TrapLevel tl)
    {
        ++instrs_;
        if (tl == 0)
            ++userInstrs_;

        if (++dispatchSlot_ >= cfg_.dispatchWidth) {
            dispatchSlot_ = 0;
            ++cycles_;
        }

        // Back-end data stalls: a small fraction of instructions
        // behaves like an L2/memory-bound load that blocks retirement.
        // The OoO window hides part of the latency; we charge the
        // unhidden half.
        if (cfg_.dataStallFraction > 0.0 &&
            rng_.chance(cfg_.dataStallFraction)) {
            cycles_ += cfg_.dataStallCycles / 2;
        }
    }

    /**
     * Account an instruction-fetch stall of @p latency cycles.
     *
     * The ROB hides the first robEntries/retireWidth cycles' worth of
     * buffered work only when it is full; we approximate partial
     * hiding with a fixed hide allowance per stall.
     */
    void fetchStall(Cycle latency);

    /** Account one branch misprediction. */
    void mispredict();

    /** Current cycle count. */
    Cycle cycles() const { return cycles_; }

    /** Retired instructions (all trap levels). */
    InstCount instructions() const { return instrs_; }

    /** Retired user (TL0) instructions. */
    InstCount userInstructions() const { return userInstrs_; }

    /** Cycles lost to instruction-fetch stalls. */
    Cycle fetchStallCycles() const { return fetchStallCycles_; }

    /** Cycles lost to misprediction penalties. */
    Cycle branchPenaltyCycles() const { return branchPenaltyCycles_; }

    /** User instructions per cycle. */
    double
    uipc() const
    {
        return cycles_ == 0
            ? 0.0
            : static_cast<double>(userInstrs_) /
              static_cast<double>(cycles_);
    }

    /** Zero all counters (predictive state has none). */
    void resetStats();

  private:
    CoreConfig cfg_;
    Rng rng_;

    Cycle cycles_ = 0;
    unsigned dispatchSlot_ = 0;
    InstCount instrs_ = 0;
    InstCount userInstrs_ = 0;
    Cycle fetchStallCycles_ = 0;
    Cycle branchPenaltyCycles_ = 0;
};

} // namespace pifetch
