/**
 * @file
 * Shared helpers for handcrafted test programs.
 */

#pragma once

#include "trace/program.hh"

namespace pifetch {
namespace testutil {

/** Append a block to @p fn (addresses fixed up by layoutAll). */
inline void
addBlock(Function &fn, std::uint32_t instrs, BlockTerm term,
         std::uint32_t target_or_callee = 0, double taken_prob = 0.0)
{
    BasicBlock b;
    b.numInstrs = instrs;
    b.term = term;
    if (term == BlockTerm::Call)
        b.callee = target_or_callee;
    else
        b.targetBlock = target_or_callee;
    b.takenProb = taken_prob;
    fn.blocks.push_back(b);
}

/** Lay out all functions contiguously, block-aligned, and validate. */
inline void
layoutAll(Program &prog, Addr base = 0x10000)
{
    Addr cursor = base;
    for (Function &fn : prog.functions) {
        cursor = (cursor + blockBytes - 1) & ~(blockBytes - 1);
        fn.entry = cursor;
        for (BasicBlock &b : fn.blocks) {
            b.start = cursor;
            cursor = b.end();
        }
    }
    prog.codeEnd = (cursor + blockBytes - 1) & ~(blockBytes - 1);
    prog.validate();
}

/**
 * Minimal runnable program: dispatcher + one root that calls a leaf.
 *
 * dispatcher: B0 call -> root, B1 jump -> B0
 * root:       B0 call -> leaf, B1 cond(B3, p), B2 fall, B3 return
 * leaf:       B0 return
 *
 * @param cond_taken_prob Probability of the root's conditional branch.
 */
inline Program
tinyProgram(double cond_taken_prob = 0.0)
{
    Program prog;
    prog.functions.resize(3);

    Function &disp = prog.functions[0];
    addBlock(disp, 4, BlockTerm::Call, 1);
    addBlock(disp, 4, BlockTerm::Jump, 0);

    Function &root = prog.functions[1];
    addBlock(root, 4, BlockTerm::Call, 2);
    addBlock(root, 4, BlockTerm::CondBranch, 3, cond_taken_prob);
    addBlock(root, 4, BlockTerm::FallThrough);
    addBlock(root, 4, BlockTerm::Return);

    Function &leaf = prog.functions[2];
    addBlock(leaf, 4, BlockTerm::Return);

    prog.transactionRoots = {1};
    prog.transactionWeights = {1.0};
    prog.dispatcher = 0;

    // A handler for interrupt tests.
    Function handler;
    addBlock(handler, 6, BlockTerm::Return);
    handler.isHandler = true;
    prog.functions.push_back(handler);
    prog.handlers = {3};

    layoutAll(prog);
    return prog;
}

} // namespace testutil
} // namespace pifetch
