/**
 * @file
 * Executor implementation.
 */

#include "trace/executor.hh"

#include <algorithm>

namespace pifetch {

namespace {

/** Index of the first CDF entry >= u, clamped into range. */
std::size_t
cdfPick(const std::vector<double> &cdf, double u)
{
    const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
    return static_cast<std::size_t>(
        std::min<std::ptrdiff_t>(it - cdf.begin(),
                                 static_cast<std::ptrdiff_t>(
                                     cdf.size() - 1)));
}

/** Normalize weights into a cumulative distribution. */
std::vector<double>
makeCdf(const double *w, std::size_t n)
{
    std::vector<double> cdf;
    cdf.reserve(n);
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        sum += w[i];
        cdf.push_back(sum);
    }
    if (sum <= 0.0)
        panic("executor: non-positive weight sum");
    for (double &c : cdf)
        c /= sum;
    return cdf;
}

} // namespace

Executor::Executor(const Program &prog, const ExecutorConfig &cfg)
    : prog_(prog), cfg_(cfg), rng_(cfg.seed)
{
    cur_ = Pos{prog_.dispatcher, 0, 0};
    curIr_ = cfg_.interruptRate;

    rootCdf_ = makeCdf(prog_.transactionWeights.data(),
                       prog_.transactionWeights.size());

    if (!cfg_.phases.empty())
        buildSchedule();
}

void
Executor::buildSchedule()
{
    // Spans: one per program part of a linked multi-program workload.
    std::vector<std::uint32_t> spans = cfg_.rootSpanSizes;
    if (spans.empty())
        spans.push_back(static_cast<std::uint32_t>(
            prog_.transactionRoots.size()));
    std::uint64_t covered = 0;
    for (std::uint32_t n : spans)
        covered += n;
    if (covered != prog_.transactionRoots.size())
        panic("executor: rootSpanSizes do not cover transaction roots");

    std::uint32_t base = 0;
    for (std::uint32_t n : spans) {
        if (n == 0)
            panic("executor: empty root span");
        spanStart_.push_back(base);
        spanCdf_.push_back(
            makeCdf(prog_.transactionWeights.data() + base, n));
        base += n;
    }

    for (const ExecutorPhase &ph : cfg_.phases) {
        if (ph.instructions == 0)
            panic("executor: phase with zero instructions");
        std::vector<double> mix = ph.programMix;
        if (mix.empty())
            mix.assign(spans.size(), 1.0);
        if (mix.size() != spans.size())
            panic("executor: phase mix size != program parts");
        phaseProgCdf_.push_back(makeCdf(mix.data(), mix.size()));

        // Ramped phases approximate the linear interrupt-rate sweep
        // with a few constant-rate segments; constant phases are one
        // segment. Segment length stays >= 1 instruction.
        const bool ramp = ph.interruptRateEnd >= 0.0 &&
                          ph.interruptRateEnd != ph.interruptRate;
        const InstCount nseg =
            ramp ? std::min<InstCount>(8, ph.instructions) : 1;
        const std::uint32_t phase_idx =
            static_cast<std::uint32_t>(phaseProgCdf_.size() - 1);
        for (InstCount k = 0; k < nseg; ++k) {
            Segment seg;
            seg.len = ph.instructions / nseg +
                      (k + 1 == nseg ? ph.instructions % nseg : 0);
            seg.interruptRate =
                nseg == 1 ? ph.interruptRate
                          : ph.interruptRate +
                                (ph.interruptRateEnd - ph.interruptRate) *
                                    static_cast<double>(k) /
                                    static_cast<double>(nseg - 1);
            seg.phase = phase_idx;
            schedule_.push_back(seg);
        }
    }

    phased_ = true;
    segIdx_ = 0;
    curIr_ = schedule_[0].interruptRate;
    phaseTick_ = schedule_[0].len;
}

void
Executor::advanceSegment()
{
    segIdx_ = (segIdx_ + 1) % schedule_.size();
    const Segment &seg = schedule_[segIdx_];
    curIr_ = seg.interruptRate;
    phaseTick_ += seg.len;
}

std::uint32_t
Executor::pickRoot()
{
    if (!phased_)
        return prog_.transactionRoots[cdfPick(rootCdf_, rng_.uniform())];

    // Two-level draw: phase mix selects the program part, then the
    // part's own transaction weights select the root within its span.
    const std::vector<double> &mix =
        phaseProgCdf_[schedule_[segIdx_].phase];
    const std::size_t part = cdfPick(mix, rng_.uniform());
    const std::size_t idx = cdfPick(spanCdf_[part], rng_.uniform());
    return prog_.transactionRoots[spanStart_[part] + idx];
}

std::uint32_t
Executor::pickHandler()
{
    // A couple of handlers (timer, NIC) dominate; the rest are rare.
    const std::uint64_t z = rng_.zipf(prog_.handlers.size(), 1.2);
    return prog_.handlers[z];
}

RetiredInstr
Executor::emitTerminator(const BasicBlock &blk)
{
    const Function &fn = prog_.functions[cur_.fn];
    RetiredInstr r;
    r.pc = blk.termPc();
    r.trapLevel = tl_;

    switch (blk.term) {
      case BlockTerm::FallThrough:
        r.kind = InstrKind::Plain;
        cur_.blk += 1;
        cur_.instr = 0;
        break;

      case BlockTerm::CondBranch:
      case BlockTerm::LoopBranch: {
        r.kind = InstrKind::CondBranch;
        r.target = fn.blocks[blk.targetBlock].start;
        r.taken = rng_.chance(blk.takenProb);
        if (r.taken) {
            cur_.blk = blk.targetBlock;
        } else {
            cur_.blk += 1;
        }
        cur_.instr = 0;
        break;
      }

      case BlockTerm::Jump:
        r.kind = InstrKind::Jump;
        r.target = fn.blocks[blk.targetBlock].start;
        r.taken = true;
        cur_.blk = blk.targetBlock;
        cur_.instr = 0;
        break;

      case BlockTerm::Call: {
        std::uint32_t callee = blk.callee;
        if (cur_.fn == prog_.dispatcher) {
            callee = pickRoot();
            ++transactions_;
        }
        if (stack_.size() >= cfg_.maxCallDepth) {
            // Depth cap: elide the call (treat as a plain instruction).
            r.kind = InstrKind::Plain;
            cur_.blk += 1;
            cur_.instr = 0;
            break;
        }
        r.kind = InstrKind::Call;
        r.target = prog_.functions[callee].entry;
        r.taken = true;
        stack_.push_back(Pos{cur_.fn, cur_.blk + 1, 0});
        cur_ = Pos{callee, 0, 0};
        break;
      }

      case BlockTerm::Return: {
        if (tl_ > 0 && stack_.size() == trapStackBase_) {
            // Top-level return of an interrupt handler: resume the
            // interrupted application instruction.
            r.kind = InstrKind::TrapReturn;
            r.target = addrOf(savedCur_);
            r.taken = true;
            cur_ = savedCur_;
            tl_ = 0;
            break;
        }
        if (stack_.empty()) {
            // Should not happen (the dispatcher never returns), but
            // recover by restarting the dispatch loop.
            r.kind = InstrKind::Return;
            r.target = prog_.functions[prog_.dispatcher].entry;
            r.taken = true;
            cur_ = Pos{prog_.dispatcher, 0, 0};
            break;
        }
        const Pos ret = stack_.back();
        stack_.pop_back();
        r.kind = InstrKind::Return;
        r.target = addrOf(ret);
        r.taken = true;
        cur_ = ret;
        break;
      }
    }
    return r;
}

RetiredInstr
Executor::next()
{
    // Phase schedule: one predictable compare per instruction; the
    // sentinel phaseTick_ keeps unphased runs from ever taking it.
    if (retired_ >= phaseTick_)
        advanceSegment();

    // Spontaneous interrupt delivery: only at TL0, between instructions.
    if (tl_ == 0 && curIr_ > 0.0 && rng_.chance(curIr_)) {
        ++interrupts_;
        savedCur_ = cur_;
        trapStackBase_ = stack_.size();
        tl_ = 1;
        cur_ = Pos{pickHandler(), 0, 0};
    }

    const BasicBlock &blk = prog_.functions[cur_.fn].blocks[cur_.blk];

    RetiredInstr r;
    if (cur_.instr + 1 < blk.numInstrs) {
        r.pc = blk.start + static_cast<Addr>(cur_.instr) * instrBytes;
        r.kind = InstrKind::Plain;
        r.trapLevel = tl_;
        cur_.instr += 1;
    } else {
        r = emitTerminator(blk);
    }

    ++retired_;
    return r;
}

void
Executor::nextBatch(RecordBatch &out, std::uint32_t n, bool lean)
{
    out.clear();
    const std::uint32_t m = std::min(n, out.capacity());
    std::uint32_t i = 0;
    while (i < m) {
        // Columnar fast path: the next instructions are plain (not the
        // block terminator) and no asynchronous event can interleave —
        // interrupts only fire at TL0 with a positive rate, and the
        // phase schedule only at its precomputed boundary. Each such
        // run is a pure arithmetic fill of the columns.
        if ((tl_ != 0 || curIr_ <= 0.0) && retired_ < phaseTick_) {
            const BasicBlock &blk =
                prog_.functions[cur_.fn].blocks[cur_.blk];
            std::uint64_t run = cur_.instr + 1 < blk.numInstrs
                ? blk.numInstrs - 1 - cur_.instr
                : 0;
            run = std::min<std::uint64_t>(run, m - i);
            run = std::min<std::uint64_t>(run, phaseTick_ - retired_);
            if (run > 0) {
                const Addr pc0 = blk.start +
                          static_cast<Addr>(cur_.instr) * instrBytes;
                const std::uint32_t end =
                    i + static_cast<std::uint32_t>(run);
                // One pass per column: the PC ramp vectorizes and the
                // constant byte columns become memsets, instead of one
                // scalar mixed-width store group per instruction. The
                // derived columns are filled here too: the run is Plain
                // at a constant trap level, so plainCont reduces to
                // block equality, with the run's first record compared
                // against its already-decoded predecessor.
                for (std::uint32_t k = i; k < end; ++k)
                    out.pc[k] = pc0 +
                        static_cast<Addr>(k - i) * instrBytes;
                for (std::uint32_t k = i; k < end; ++k)
                    out.block[k] = blockAddr(out.pc[k]);
                out.plainCont[i] = static_cast<std::uint8_t>(
                    i > 0 && out.trapLevel[i - 1] == tl_ &&
                    out.block[i - 1] == out.block[i]);
                for (std::uint32_t k = i + 1; k < end; ++k)
                    out.plainCont[k] = static_cast<std::uint8_t>(
                        out.block[k] == out.block[k - 1]);
                if (!lean) {
                    std::fill(out.target.begin() + i,
                              out.target.begin() + end, invalidAddr);
                    std::fill(out.taken.begin() + i,
                              out.taken.begin() + end, std::uint8_t{0});
                }
                std::fill(out.kind.begin() + i, out.kind.begin() + end,
                          static_cast<std::uint8_t>(InstrKind::Plain));
                std::fill(out.trapLevel.begin() + i,
                          out.trapLevel.begin() + end, tl_);
                cur_.instr += static_cast<std::uint32_t>(run);
                retired_ += run;
                i = end;
                continue;
            }
        }
        out.size = i;
        out.push(next());
        ++i;
    }
    out.size = m;
}

} // namespace pifetch
