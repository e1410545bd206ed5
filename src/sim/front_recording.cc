/**
 * @file
 * Front-end recording: encoder and decoder.
 *
 * Each step is a LEB128 varint stream:
 *  - head: sameBlock << 3 | trapLevel << 2 | fetch << 1 | burst;
 *  - pc: zigzag of (pc - predicted) / instrBytes, where the predicted
 *    pc is the one after the previous step's same-block run, so a
 *    fall-through into the next block encodes as 0;
 *  - with a burst: its length, then zigzag of (first wrong-path
 *    block - the step's block).
 * Most steps take two or three bytes; at ~0.19 steps per instruction
 * a recording holds well under a byte per instruction
 * (docs/performance.md, "Recorded front-end streams").
 */

#include "sim/front_recording.hh"

#include <stdexcept>

namespace pifetch {

namespace {

static_assert(maxTrapLevels == 2, "the step head holds one trap-level bit");

void
putVarint(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(static_cast<std::uint8_t>(v | 0x80));
        v >>= 7;
    }
    out.push_back(static_cast<std::uint8_t>(v));
}

std::uint64_t
getVarint(const std::vector<std::uint8_t> &in, std::size_t &at)
{
    std::uint64_t v = 0;
    for (unsigned shift = 0;; shift += 7) {
        const std::uint8_t b = in[at++];
        v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
        if (!(b & 0x80))
            return v;
    }
}

std::uint64_t
zigzag(std::int64_t v)
{
    return (static_cast<std::uint64_t>(v) << 1) ^
           static_cast<std::uint64_t>(v >> 63);
}

std::int64_t
unzigzag(std::uint64_t v)
{
    return static_cast<std::int64_t>(v >> 1) ^
           -static_cast<std::int64_t>(v & 1);
}

} // namespace

FrontRecording::FrontRecording(const SystemConfig &cfg,
                               const Program &prog,
                               const ExecutorConfig &exec_cfg,
                               InstCount warmup, InstCount measure)
    : cfg_(cfg), warmup_(warmup), measure_(measure)
{
    Executor exec(prog, exec_cfg);
    FrontStage front(cfg, frontendSeed(cfg));
    RecordBatch batch;
    batch.reserve(recordBatchLen);
    std::vector<FrontStep> steps;
    steps.reserve(recordBatchLen);

    RunCounters tally;
    Addr next_pc = 0;
    const auto encode = [&](const FrontStep &s) {
        if (s.pc % instrBytes != 0 || s.trapLevel >= maxTrapLevels)
            throw std::invalid_argument(
                "front-end recording: unaligned pc or trap level above 1");
        putVarint(bytes_, static_cast<std::uint64_t>(s.sameBlock) << 3 |
                              static_cast<std::uint64_t>(s.trapLevel) << 2 |
                              static_cast<std::uint64_t>(s.fetch) << 1 |
                              static_cast<std::uint64_t>(s.wrongBlocks > 0));
        putVarint(bytes_, zigzag(static_cast<std::int64_t>(s.pc - next_pc) /
                                 static_cast<std::int64_t>(instrBytes)));
        if (s.wrongBlocks > 0) {
            putVarint(bytes_, s.wrongBlocks);
            putVarint(bytes_, zigzag(static_cast<std::int64_t>(
                                  s.wrongBlock - blockAddr(s.pc))));
        }
        next_pc = s.pc + (1 + static_cast<Addr>(s.sameBlock)) * instrBytes;
        tally.accesses += s.fetch;
        tally.wrongPathFetches += s.wrongBlocks;
        tally.mispredicts += s.wrongBlocks > 0;
    };

    const auto segment = [&](InstCount n, RunCounters &mark) {
        while (n > 0) {
            const std::uint32_t want = n < recordBatchLen
                ? static_cast<std::uint32_t>(n)
                : recordBatchLen;
            exec.nextBatch(batch, want, true);
            if (batch.size == 0)
                break;
            front.stepBatch(batch, steps);
            for (const FrontStep &s : steps)
                encode(s);
            n -= batch.size;
        }
        mark = tally;
        mark.instrs = exec.retired();
        mark.interrupts = exec.interrupts();
    };
    segment(warmup, marks_[0]);
    segment(measure, marks_[1]);
    bytes_.shrink_to_fit();
}

bool
FrontRecording::replayableWith(const SystemConfig &cfg) const
{
    return cfg.seed == cfg_.seed && cfg.core == cfg_.core &&
           cfg.branch == cfg_.branch;
}

bool
FrontRecording::Reader::decode(FrontStep &s)
{
    const std::vector<std::uint8_t> &in = rec_->bytes_;
    if (at_ >= in.size())
        return false;
    const std::uint64_t head = getVarint(in, at_);
    s.sameBlock = static_cast<std::uint32_t>(head >> 3);
    s.trapLevel = static_cast<TrapLevel>((head >> 2) & 1);
    s.fetch = (head >> 1) & 1;
    s.pc = nextPc_ + static_cast<Addr>(unzigzag(getVarint(in, at_))) *
                         instrBytes;
    s.wrongBlocks = 0;
    s.wrongBlock = 0;
    if (head & 1) {
        s.wrongBlocks = static_cast<std::uint32_t>(getVarint(in, at_));
        s.wrongBlock = blockAddr(s.pc) +
                       static_cast<Addr>(unzigzag(getVarint(in, at_)));
    }
    nextPc_ = s.pc + (1 + static_cast<Addr>(s.sameBlock)) * instrBytes;
    return true;
}

InstCount
FrontRecording::Reader::next(std::vector<FrontStep> &out, InstCount n)
{
    out.clear();
    InstCount got = 0;
    FrontStep s;
    while (got < n) {
        if (hasRest_) {
            s = rest_;
            hasRest_ = false;
        } else if (!decode(s)) {
            break;
        }
        const InstCount room = n - got;
        if (1 + static_cast<InstCount>(s.sameBlock) > room) {
            // Only a step with a same-block run can cross the bound,
            // and such a step has no burst (a squash ends the run).
            const auto keep = static_cast<std::uint32_t>(room - 1);
            rest_ = s;
            rest_.fetch = false;
            rest_.sameBlock = s.sameBlock - keep - 1;
            hasRest_ = true;
            s.sameBlock = keep;
        }
        out.push_back(s);
        got += 1 + static_cast<InstCount>(s.sameBlock);
    }
    pos_ += got;
    return got;
}

RunCounters
FrontRecording::Reader::counters(const Frontend &frontend) const
{
    RunCounters c;
    if (pos_ == rec_->warmup_) {
        c = rec_->marks_[0];
    } else if (pos_ == rec_->warmup_ + rec_->measure_) {
        c = rec_->marks_[1];
    } else if (pos_ != 0) {
        throw std::logic_error(
            "front-end recording: counters read between segment ends");
    }
    if (frontend.correctPathFetches() != c.accesses ||
        frontend.wrongPathFetches() != c.wrongPathFetches ||
        frontend.mispredicts() != c.mispredicts) {
        throw std::logic_error(
            "front-end recording: replay diverged from the recording");
    }
    c.misses = frontend.correctPathMisses();
    return c;
}

} // namespace pifetch
