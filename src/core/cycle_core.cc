/**
 * @file
 * Timing model implementation.
 */

#include "core/cycle_core.hh"

namespace pifetch {

TimingModel::TimingModel(const CoreConfig &cfg, std::uint64_t seed)
    : cfg_(cfg), rng_(seed)
{
}

void
TimingModel::fetchStall(Cycle latency)
{
    // ROB buffering hides a few cycles of fetch latency: the back-end
    // keeps retiring from buffered instructions while fetch waits.
    // With a 96-entry ROB at 3-wide retirement full hiding would be
    // 32 cycles, but the ROB is rarely full on fetch-bound workloads
    // (Section 2.3 notes it is typically *empty* after handler
    // returns); we credit a small fixed allowance.
    const Cycle hide = cfg_.robEntries / (cfg_.retireWidth * 8);
    const Cycle exposed = latency > hide ? latency - hide : 0;
    cycles_ += exposed;
    fetchStallCycles_ += exposed;
}

void
TimingModel::mispredict()
{
    // Front-end refill plus the data-dependent resolution delay; the
    // OoO window overlaps roughly half of the resolution with useful
    // work ahead of the branch.
    const Cycle resolve = rng_.range(cfg_.minResolveCycles,
                                     cfg_.maxResolveCycles);
    const Cycle penalty = cfg_.frontendDepth + resolve / 2;
    cycles_ += penalty;
    branchPenaltyCycles_ += penalty;
}

void
TimingModel::resetStats()
{
    cycles_ = 0;
    dispatchSlot_ = 0;
    instrs_ = 0;
    userInstrs_ = 0;
    fetchStallCycles_ = 0;
    branchPenaltyCycles_ = 0;
}

} // namespace pifetch
