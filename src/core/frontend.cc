/**
 * @file
 * Functional front-end implementation.
 */

#include "core/frontend.hh"

namespace pifetch {

FrontStage::FrontStage(const SystemConfig &cfg, std::uint64_t seed)
    : coreCfg_(cfg.core),
      direction_(cfg.branch),
      btb_(cfg.branch),
      ras_(cfg.branch.rasEntries),
      rng_(seed)
{
}

void
FrontStage::wrongPath(Addr start_pc, FrontStep &s)
{
    // Data-dependent resolution delay (Section 2.2): the longer the
    // mispredicted branch takes to resolve, the more wrong-path blocks
    // the front-end fetches. Occasional long-latency data stalls extend
    // the window substantially.
    Cycle resolve = rng_.range(coreCfg_.minResolveCycles,
                               coreCfg_.maxResolveCycles);
    if (rng_.chance(coreCfg_.dataStallFraction))
        resolve += coreCfg_.dataStallCycles;

    const std::uint64_t wrong_instrs =
        resolve * coreCfg_.dispatchWidth;
    const Addr first_block = blockAddr(start_pc);
    const Addr last_byte =
        start_pc + (wrong_instrs > 0 ? wrong_instrs - 1 : 0) * instrBytes;
    s.wrongBlock = first_block;
    s.wrongBlocks =
        static_cast<std::uint32_t>(blockAddr(last_byte) - first_block + 1);
}

bool
FrontStage::predictTransfer(const RetiredInstr &instr, Addr &wrong_path_pc)
{
    const Addr fallthrough = instr.pc + instrBytes;

    switch (instr.kind) {
      case InstrKind::CondBranch: {
        bool pred_taken = direction_.predictAndUpdate(instr.pc,
                                                      instr.taken);
        Addr pred_target = invalidAddr;
        if (pred_taken) {
            pred_target = btb_.lookup(instr.pc);
            if (pred_target == invalidAddr) {
                // Predicted taken but no target known: fetch cannot
                // redirect, so it proceeds sequentially.
                pred_taken = false;
            }
        }
        if (instr.taken)
            btb_.update(instr.pc, instr.target);

        if (pred_taken == instr.taken) {
            if (!instr.taken)
                return true;
            // Direct branches have stable targets, so a BTB hit is a
            // correct target.
            return true;
        }
        wrong_path_pc = instr.taken ? fallthrough : instr.target;
        return false;
      }

      case InstrKind::Jump:
      case InstrKind::Call: {
        const Addr pred_target = btb_.lookup(instr.pc);
        btb_.update(instr.pc, instr.target);
        if (instr.kind == InstrKind::Call)
            ras_.push(fallthrough);
        if (pred_target == instr.target)
            return true;
        // BTB miss (or stale target): sequential wrong path until
        // resolution.
        wrong_path_pc =
            pred_target == invalidAddr ? fallthrough : pred_target;
        return false;
      }

      case InstrKind::Return: {
        const Addr pred = ras_.pop();
        if (pred == instr.target)
            return true;
        wrong_path_pc = pred == invalidAddr ? fallthrough : pred;
        return false;
      }

      case InstrKind::TrapReturn:
      case InstrKind::TrapEnter:
      case InstrKind::Plain:
        return true;
    }
    return true;
}

FrontStep
FrontStage::step(const RetiredInstr &instr)
{
    FrontStep s;
    s.pc = instr.pc;
    s.trapLevel = instr.trapLevel;

    // Asynchronous trap-level change: the pipeline is flushed and fetch
    // restarts at the new location, refetching its block.
    if (instr.trapLevel != prevTl_)
        curBlock_ = invalidAddr;

    const Addr block = blockAddr(instr.pc);
    if (block != curBlock_) {
        s.fetch = true;
        curBlock_ = block;
    }

    switch (instr.kind) {
      case InstrKind::CondBranch:
      case InstrKind::Jump:
      case InstrKind::Call:
      case InstrKind::Return: {
        ++predictions_;
        Addr wrong_pc = invalidAddr;
        if (!predictTransfer(instr, wrong_pc)) {
            wrongPath(wrong_pc, s);
            // After the squash, fetch refetches the resume block.
            curBlock_ = invalidAddr;
        }
        break;
      }
      case InstrKind::TrapReturn:
        // Dedicated trap-return redirect: flush, no misprediction.
        curBlock_ = invalidAddr;
        break;
      case InstrKind::TrapEnter:
      case InstrKind::Plain:
        break;
    }

    prevTl_ = instr.trapLevel;
    return s;
}

void
FrontStage::stepBatch(const RecordBatch &batch, std::vector<FrontStep> &out)
{
    out.clear();
    for (std::uint32_t i = 0; i < batch.size;) {
        FrontStep s = step(batch.get(i));
        // While the step leaves its own block current, every following
        // record that continues a same-block plain run (plainCont) is
        // a no-op; a squash or redirect ends the run at the step.
        std::uint32_t j = i + 1;
        if (curBlock_ == batch.block[i]) {
            while (j < batch.size && batch.plainCont[j])
                ++j;
        }
        s.sameBlock = j - i - 1;
        out.push_back(s);
        i = j;
    }
}

void
FrontStage::reset()
{
    direction_.reset();
    btb_.reset();
    ras_.reset();
    curBlock_ = invalidAddr;
    prevTl_ = 0;
    predictions_ = 0;
}

Frontend::Frontend(const SystemConfig &cfg, Cache &l1i, std::uint64_t seed)
    : front_(cfg, seed), l1i_(l1i), lineBuffer_(2)
{
}

FetchAccess
Frontend::fetchBlock(Addr block, bool correct_path, TrapLevel tl,
                     std::vector<FetchAccess> &events)
{
    FetchAccess ev;
    ev.block = block;
    ev.correctPath = correct_path;
    ev.trapLevel = tl;

    if (lineBuffer_.contains(block)) {
        ev.hit = true;
        ev.wasPrefetched = false;
    } else {
        const Cache::AccessResult res = l1i_.access(block);
        ev.hit = res.hit;
        ev.wasPrefetched = res.firstDemandOfPrefetch;
        if (!res.hit) {
            // Functional fill: latency accounting is engine-side.
            // Wrong-path misses fill too, exactly as in a real machine
            // (they are the pollution/filtering source of Section 2).
            l1i_.fill(block, false);
        }
        lineBuffer_.insert(block);
    }

    if (correct_path) {
        ++correctPathFetches_;
        if (!ev.hit)
            ++correctPathMisses_;
    } else {
        ++wrongPathFetches_;
    }

    events.push_back(ev);
    return ev;
}

bool
Frontend::fetchStep(const FrontStep &s, std::vector<FetchAccess> &events)
{
    if (s.fetch) {
        const FetchAccess ev =
            fetchBlock(blockAddr(s.pc), true, s.trapLevel, events);
        // Tagged = not delivered from an explicitly prefetched line
        // (Section 4.2). The tag is sticky for all instructions
        // delivered from this block fetch.
        curBlockTagged_ = !(ev.hit && ev.wasPrefetched);
    }
    const bool tagged = curBlockTagged_;

    if (s.wrongBlocks > 0) {
        ++mispredicts_;
        const Addr end = s.wrongBlock + s.wrongBlocks;
        for (Addr b = s.wrongBlock; b < end; ++b)
            fetchBlock(b, false, s.trapLevel, events);
    }
    return tagged;
}

bool
Frontend::step(const RetiredInstr &instr, std::vector<FetchAccess> &events)
{
    return fetchStep(front_.step(instr), events);
}

void
Frontend::reset()
{
    front_.reset();
    lineBuffer_.clear();
    curBlockTagged_ = true;
    mispredicts_ = 0;
    wrongPathFetches_ = 0;
    correctPathFetches_ = 0;
    correctPathMisses_ = 0;
}

} // namespace pifetch
