/**
 * @file
 * Static program representation for synthetic server workloads.
 *
 * A Program is a set of functions laid out in a flat instruction
 * address space, each function a list of basic blocks with explicit
 * terminators (fall-through, conditional branch, loop back-edge, call,
 * jump, return). The generator (generator.hh) builds Programs with the
 * statistical properties the paper attributes to commercial server
 * software; the executor (executor.hh) walks them to produce the
 * retire-order instruction stream.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace pifetch {

/** Terminator class of a basic block. */
enum class BlockTerm : std::uint8_t {
    FallThrough,  //!< continue to the next block
    CondBranch,   //!< forward conditional branch within the function
    LoopBranch,   //!< backward conditional branch within the function
    Call,         //!< call another function, then fall through
    Jump,         //!< unconditional jump within the function
    Return,       //!< return to the caller
};

/**
 * A basic block: a run of straight-line instructions plus a terminator.
 *
 * The terminator is the last instruction of the block. Intra-function
 * targets are expressed as block indices, resolved to addresses through
 * the owning function's layout.
 */
struct BasicBlock
{
    /** Byte address of the first instruction. */
    Addr start = 0;
    /** Number of instructions including the terminator. */
    std::uint32_t numInstrs = 1;
    /** Terminator class. */
    BlockTerm term = BlockTerm::FallThrough;
    /** Intra-function target block (CondBranch / LoopBranch / Jump). */
    std::uint32_t targetBlock = 0;
    /** Callee function index (Call). */
    std::uint32_t callee = 0;
    /**
     * Probability the terminator is taken (CondBranch / LoopBranch).
     * Data-dependent branches have probabilities near 0.5; biased
     * branches near 0 or 1. A LoopBranch with takenProb p yields a
     * geometric trip count with mean 1/(1-p).
     */
    double takenProb = 0.0;

    /** Byte address of the terminator (last) instruction. */
    Addr
    termPc() const
    {
        return start + static_cast<Addr>(numInstrs - 1) * instrBytes;
    }

    /** Byte address one past the last instruction. */
    Addr
    end() const
    {
        return start + static_cast<Addr>(numInstrs) * instrBytes;
    }
};

/**
 * A function: contiguous basic blocks in layout order.
 */
struct Function
{
    /** Entry address (== blocks.front().start). */
    Addr entry = 0;
    /** Basic blocks in address order. */
    std::vector<BasicBlock> blocks;
    /** True for interrupt-handler functions (executed at TL1). */
    bool isHandler = false;

    /** Byte address one past the end of the function body. */
    Addr
    end() const
    {
        return blocks.empty() ? entry : blocks.back().end();
    }
};

/**
 * A complete synthetic program.
 */
struct Program
{
    /** All functions, handler functions included. */
    std::vector<Function> functions;
    /** Indices of transaction root functions (dispatch targets). */
    std::vector<std::uint32_t> transactionRoots;
    /** Relative selection weights for the transaction roots. */
    std::vector<double> transactionWeights;
    /** Indices of interrupt handler functions. */
    std::vector<std::uint32_t> handlers;
    /**
     * Index of the transaction-dispatch loop function. Its single call
     * site's callee is chosen dynamically by the executor (an indirect
     * call through the transaction table).
     */
    std::uint32_t dispatcher = 0;
    /** One past the highest code byte address. */
    Addr codeEnd = 0;

    /** Static code footprint in bytes. */
    Addr footprintBytes() const { return codeEnd; }

    /** Static code footprint in 64B blocks (rounded up). */
    Addr
    footprintBlocks() const
    {
        return (codeEnd + blockBytes - 1) >> blockShift;
    }

    /**
     * Validate structural invariants (targets in range, addresses
     * monotone, entry == first block). Calls panic() on violation;
     * used by tests and the generator's self-check.
     */
    void validate() const;
};

} // namespace pifetch
