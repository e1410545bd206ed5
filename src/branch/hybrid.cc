/**
 * @file
 * Hybrid predictor implementation.
 */

#include "branch/hybrid.hh"

namespace pifetch {

HybridPredictor::HybridPredictor(const BranchConfig &cfg)
    : gshare_(cfg.gshareEntries, cfg.historyBits),
      bimodal_(cfg.bimodalEntries),
      chooserMask_(cfg.chooserEntries - 1),
      chooser_(cfg.chooserEntries)
{
    if (cfg.chooserEntries == 0 ||
        (cfg.chooserEntries & (cfg.chooserEntries - 1)) != 0) {
        fatalError("chooser entries must be a power of two");
    }
}

bool
HybridPredictor::predict(Addr pc)
{
    const bool use_gshare = chooser_[chooserIndex(pc)].taken();
    return use_gshare ? gshare_.predict(pc) : bimodal_.predict(pc);
}

void
HybridPredictor::update(Addr pc, bool taken)
{
    const bool g = gshare_.predict(pc);
    const bool b = bimodal_.predict(pc);
    if (g != b) {
        // Train the chooser toward the component that was right.
        chooser_[chooserIndex(pc)].update(g == taken);
    }
    gshare_.update(pc, taken);
    bimodal_.update(pc, taken);
}

} // namespace pifetch
