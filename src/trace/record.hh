/**
 * @file
 * Retire-order instruction records.
 *
 * The executor produces the correct-path, retire-order instruction
 * stream as a sequence of RetiredInstr records. This is exactly the
 * stream PIF observes at the back-end (Section 4.1); the front-end
 * model *derives* the access and miss streams from it by re-introducing
 * branch-predictor noise and I-cache filtering (Section 2).
 */

#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace pifetch {

/** Control-flow class of an instruction. */
enum class InstrKind : std::uint8_t {
    Plain,       //!< falls through to pc + 4
    CondBranch,  //!< conditional direct branch
    Jump,        //!< unconditional direct jump
    Call,        //!< direct call; target is the callee entry
    Return,      //!< return; target is the caller's resume point
    TrapEnter,   //!< asynchronous redirect into an interrupt handler
    TrapReturn,  //!< return from an interrupt handler
};

/**
 * One retired (architecturally committed) instruction.
 */
struct RetiredInstr
{
    /** Program counter of this instruction. */
    Addr pc = 0;
    /**
     * Control-flow target: taken target for branches, callee entry for
     * calls, resume address for returns and trap returns, handler entry
     * for trap entries. invalidAddr for plain instructions.
     */
    Addr target = invalidAddr;
    /** Control-flow class. */
    InstrKind kind = InstrKind::Plain;
    /** Trap level at which the instruction retired (0 = application). */
    TrapLevel trapLevel = 0;
    /** Actual direction for CondBranch; true for other transfers. */
    bool taken = false;

    /** Architectural next PC after this instruction. */
    Addr
    nextPc() const
    {
        switch (kind) {
          case InstrKind::Plain:
            return pc + instrBytes;
          case InstrKind::CondBranch:
            return taken ? target : pc + instrBytes;
          case InstrKind::Jump:
          case InstrKind::Call:
          case InstrKind::Return:
          case InstrKind::TrapEnter:
          case InstrKind::TrapReturn:
            return target;
        }
        return pc + instrBytes;
    }
};

/**
 * Default replay batch length: long enough to amortize the batch
 * bookkeeping and keep each stage's code and data hot, short enough
 * that one batch's columns (~27 KiB at 1024 records) stay L1-resident
 * (docs/performance.md discusses the trade-off).
 */
constexpr std::uint32_t recordBatchLen = 1024;

/**
 * A structure-of-arrays batch of retired-instruction records.
 *
 * The replay hot path decodes instructions a batch at a time into
 * parallel per-field columns (the Perfetto trace_processor layout)
 * instead of materializing an array of RetiredInstr structs: each
 * pipeline stage then streams through only the columns it touches,
 * and uniform per-column loops (block derivation, field decode)
 * vectorize. Capacity is managed explicitly — reserve() sizes every
 * column once, and push() writes by index — so filling a batch does
 * no per-record capacity checks and no steady-state allocation.
 */
struct RecordBatch
{
    std::vector<Addr> pc;
    std::vector<Addr> target;
    std::vector<std::uint8_t> kind;       //!< InstrKind
    std::vector<std::uint8_t> trapLevel;
    std::vector<std::uint8_t> taken;
    /** Block address of each pc; maintained by push() and the
     * executor's columnar fill. */
    std::vector<Addr> block;
    /**
     * 1 when the record continues its predecessor's same-block plain
     * run: kind Plain, unchanged trap level, unchanged fetch block
     * (always 0 at index 0). Maintained alongside block; the batched
     * replay loop reads this single byte per record to size its
     * bulk no-op runs instead of re-comparing three columns.
     */
    std::vector<std::uint8_t> plainCont;
    /** Records held (the columns are sized to capacity, not size). */
    std::uint32_t size = 0;

    /** Column capacity (records a full batch can hold). */
    std::uint32_t
    capacity() const
    {
        return static_cast<std::uint32_t>(pc.size());
    }

    /** Grow every column to hold @p cap records (never shrinks). */
    void
    reserve(std::uint32_t cap)
    {
        if (cap <= capacity())
            return;
        pc.resize(cap);
        target.resize(cap);
        kind.resize(cap);
        trapLevel.resize(cap);
        taken.resize(cap);
        block.resize(cap);
        plainCont.resize(cap);
    }

    /** Drop all records (capacity is retained). */
    void clear() { size = 0; }

    /** Append @p r, deriving its block/plainCont entries in place;
     * the caller guarantees size < capacity(). */
    void
    push(const RetiredInstr &r)
    {
        pc[size] = r.pc;
        target[size] = r.target;
        kind[size] = static_cast<std::uint8_t>(r.kind);
        trapLevel[size] = r.trapLevel;
        taken[size] = r.taken ? 1 : 0;
        const Addr b = blockAddr(r.pc);
        block[size] = b;
        plainCont[size] = static_cast<std::uint8_t>(
            size > 0 && r.kind == InstrKind::Plain &&
            trapLevel[size - 1] == r.trapLevel &&
            block[size - 1] == b);
        ++size;
    }

    /** Materialize record @p i as a struct (register-resident copy). */
    RetiredInstr
    get(std::uint32_t i) const
    {
        RetiredInstr r;
        r.pc = pc[i];
        r.target = target[i];
        r.kind = static_cast<InstrKind>(kind[i]);
        r.trapLevel = trapLevel[i];
        r.taken = taken[i] != 0;
        return r;
    }
};

} // namespace pifetch
