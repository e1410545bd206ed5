/**
 * @file
 * Workload generator implementation.
 */

#include "trace/generator.hh"

#include <algorithm>
#include <cmath>

#include "common/rng.hh"
#include "common/types.hh"

namespace pifetch {

namespace {

/** Code layout base (leaves low addresses unused, like a real binary). */
constexpr Addr codeBase = 0x40000;

/** Align @p a up to the next cache-block boundary. */
Addr
alignToBlock(Addr a)
{
    return (a + blockBytes - 1) & ~(blockBytes - 1);
}

/**
 * Partition @p total_instrs instructions into basic blocks with
 * geometric lengths around @p mean_len.
 */
std::vector<std::uint32_t>
partitionBlocks(std::uint64_t total_instrs, double mean_len, Rng &rng)
{
    std::vector<std::uint32_t> sizes;
    std::uint64_t remaining = total_instrs;
    while (remaining > 0) {
        std::uint64_t len = std::clamp<std::uint64_t>(
            rng.geometric(mean_len), 2, 16);
        if (len >= remaining)
            len = remaining;
        // Avoid a dangling 1-instruction tail: merge it into this block.
        if (remaining - len == 1)
            len = remaining;
        sizes.push_back(static_cast<std::uint32_t>(len));
        remaining -= len;
    }
    return sizes;
}

/** Assign addresses to a function's basic blocks starting at @p entry. */
void
layoutFunction(Function &fn, Addr entry)
{
    fn.entry = entry;
    Addr a = entry;
    for (BasicBlock &b : fn.blocks) {
        b.start = a;
        a = b.end();
    }
}

/** A generated function body plus its application-call sites. */
struct FunctionDraft
{
    Function fn;
    /** Block indices whose Call terminator targets the next layer. */
    std::vector<std::size_t> appCallBlocks;
};

/**
 * Build one function body: draws size, partitions into basic blocks,
 * assigns terminators, inserts non-overlapping loops, and places call
 * sites. Callees are resolved later once the function count is known.
 *
 * @param want_app_calls Place next-layer call sites (application
 *        functions only; library and handler code calls only library
 *        helpers).
 */
FunctionDraft
buildFunctionBody(const WorkloadParams &p, double mean_blocks,
                  unsigned max_blocks, bool want_app_calls, Rng &rng)
{
    FunctionDraft draft;
    Function &fn = draft.fn;

    const std::uint64_t nblocks = std::clamp<std::uint64_t>(
        rng.geometric(mean_blocks), 1, max_blocks);
    // Fill all but the last cache block fully; the last one partially.
    const std::uint64_t total_instrs =
        (nblocks - 1) * instrsPerBlock + rng.range(6, instrsPerBlock);

    const auto sizes =
        partitionBlocks(total_instrs, p.meanBasicBlockInstrs, rng);
    fn.blocks.resize(sizes.size());
    for (std::size_t i = 0; i < sizes.size(); ++i)
        fn.blocks[i].numInstrs = sizes[i];

    const std::size_t nbb = fn.blocks.size();
    fn.blocks.back().term = BlockTerm::Return;

    // Insert tight loops first so call placement can respect them.
    // Loops never overlap (nested data-dependent trip counts would
    // multiply into unbounded execution) and never include the first
    // or last block.
    std::vector<bool> in_loop(nbb, false);
    double loops_expected = p.loopsPerFunction;
    unsigned nloops = static_cast<unsigned>(loops_expected);
    if (rng.chance(loops_expected - nloops))
        ++nloops;
    for (unsigned l = 0; l < nloops && nbb >= 3; ++l) {
        const std::size_t j = rng.range(1, nbb - 2);
        const std::size_t body = rng.range(1, std::min<std::size_t>(j, 3));
        const std::size_t i = j - body;
        bool overlaps = false;
        for (std::size_t k = i; k <= j && !overlaps; ++k)
            overlaps = in_loop[k];
        if (overlaps)
            continue;
        BasicBlock &blk = fn.blocks[j];
        blk.term = BlockTerm::LoopBranch;
        blk.targetBlock = static_cast<std::uint32_t>(i);
        blk.takenProb = 1.0 - 1.0 / std::max(1.1, p.meanLoopIter);
        for (std::size_t k = i; k <= j; ++k)
            in_loop[k] = true;
    }

    // Terminators for the remaining blocks.
    for (std::size_t b = 0; b + 1 < nbb; ++b) {
        BasicBlock &blk = fn.blocks[b];
        if (blk.term == BlockTerm::LoopBranch)
            continue;
        const double r = rng.uniform();
        // Library-helper calls: tight loops call helpers at half the
        // density of straight-line code (Section 3.1).
        const double call_d =
            in_loop[b] ? p.callDensity * 0.5 : p.callDensity;
        if (r < call_d) {
            blk.term = BlockTerm::Call;  // library callee, resolved later
        } else if (r < call_d + p.condDensity && b + 2 < nbb) {
            blk.term = BlockTerm::CondBranch;
            if (rng.chance(p.biasedFraction)) {
                // Biased: mostly-taken branches skip 1..3 blocks,
                // modelling error-handling gaps and other rarely-
                // executed code (Section 3.1); mostly-not-taken ones
                // almost never divert.
                const std::uint64_t skip = rng.range(1, 3);
                blk.targetBlock = static_cast<std::uint32_t>(
                    std::min<std::uint64_t>(b + 1 + skip, nbb - 1));
                blk.takenProb = rng.chance(0.5) ? 0.97 : 0.03;
            } else {
                // Data-dependent (unstable) branches: most resolve
                // within a couple of basic blocks, so both directions
                // usually land in the same cache blocks ("local
                // control-flow ambiguity" that spatial regions
                // absorb). Only a quarter diverge at block
                // granularity.
                const std::uint64_t skip =
                    rng.chance(0.15) ? rng.range(1, 3) : 0;
                blk.targetBlock = static_cast<std::uint32_t>(
                    std::min<std::uint64_t>(b + 1 + skip, nbb - 1));
                blk.takenProb = p.dataDepLo +
                    rng.uniform() * (p.dataDepHi - p.dataDepLo);
            }
        } else if (r < call_d + p.condDensity + p.jumpDensity &&
                   b + 2 < nbb) {
            blk.term = BlockTerm::Jump;
            blk.targetBlock = static_cast<std::uint32_t>(
                rng.range(b + 1, nbb - 1));
        } else {
            blk.term = BlockTerm::FallThrough;
        }
    }

    // Application call sites: the call-tree branching factor. Placed
    // on straight-line (non-loop) blocks so loop trip counts cannot
    // multiply whole subtrees.
    if (want_app_calls) {
        unsigned want = static_cast<unsigned>(p.meanAppCalls);
        if (rng.chance(p.meanAppCalls - want))
            ++want;
        std::vector<std::size_t> candidates;
        for (std::size_t b = 0; b + 1 < nbb; ++b) {
            if (!in_loop[b] && fn.blocks[b].term != BlockTerm::LoopBranch)
                candidates.push_back(b);
        }
        for (unsigned k = 0; k < want && !candidates.empty(); ++k) {
            const std::size_t pick = rng.below(candidates.size());
            const std::size_t b = candidates[pick];
            candidates.erase(candidates.begin() +
                             static_cast<std::ptrdiff_t>(pick));
            fn.blocks[b].term = BlockTerm::Call;
            draft.appCallBlocks.push_back(b);
        }
    }

    return draft;
}

} // namespace

const std::vector<std::string> &
workloadParamKeys()
{
    static const std::vector<std::string> keys = [] {
        std::vector<std::string> out;
        const WorkloadParams scratch;
        forEachWorkloadParam(scratch, [&](const char *key, const auto &) {
            out.push_back(key);
        });
        return out;
    }();
    return keys;
}

std::optional<std::string>
validateWorkloadParams(const WorkloadParams &p)
{
    const auto bad = [&](const std::string &what) {
        return "workload '" + p.name + "': " + what;
    };
    const auto probability = [](double v) {
        return std::isfinite(v) && v >= 0.0 && v <= 1.0;
    };

    // Structural minima (these have always been fatal in build()).
    if (p.appFunctions < p.transactions + 2)
        return bad("appFunctions must exceed transactions + 2");
    if (p.handlers == 0)
        return bad("need at least one handler");
    if (p.libFunctions < 2)
        return bad("need at least two library functions");
    if (p.transactions == 0)
        return bad("need at least one transaction type");

    // Structural maxima: generation time and memory scale with these,
    // so a corrupt or hostile parameter point (e.g. a hand-edited
    // repro JSON with appFunctions in the billions) must fail here
    // instead of grinding build() into an OOM. The caps are two
    // orders of magnitude above the largest preset.
    if (p.appFunctions > 200'000)
        return bad("appFunctions must be <= 200000");
    if (p.libFunctions > 100'000)
        return bad("libFunctions must be <= 100000");
    if (p.handlers > 4'096)
        return bad("handlers must be <= 4096");
    if (p.transactions > 4'096)
        return bad("transactions must be <= 4096");
    if (p.maxFnBlocks > 1'024)
        return bad("maxFnBlocks must be <= 1024");

    // Sizing means: geometric draws need positive finite means, and
    // the function partitioner assumes at least one block.
    if (!std::isfinite(p.meanFnBlocks) || p.meanFnBlocks < 1.0)
        return bad("meanFnBlocks must be >= 1");
    if (p.maxFnBlocks < 1)
        return bad("maxFnBlocks must be >= 1");
    if (p.meanFnBlocks > static_cast<double>(p.maxFnBlocks))
        return bad("meanFnBlocks must not exceed maxFnBlocks");
    if (!std::isfinite(p.meanHandlerBlocks) ||
        p.meanHandlerBlocks < 1.0 || p.meanHandlerBlocks > 1024.0) {
        // Bounded like the other geometric-draw means: Rng::geometric
        // iterates O(mean) times, so an unbounded mean is a hang.
        return bad("meanHandlerBlocks must be in [1, 1024]");
    }
    if (!std::isfinite(p.meanBasicBlockInstrs) ||
        p.meanBasicBlockInstrs < 1.0 || p.meanBasicBlockInstrs > 1024.0) {
        return bad("meanBasicBlockInstrs must be in [1, 1024]");
    }

    // Densities are per-block probabilities and must co-exist: the
    // terminator draw compares a single uniform sample against their
    // partial sums.
    if (!probability(p.callDensity))
        return bad("callDensity must be a probability");
    if (!probability(p.condDensity))
        return bad("condDensity must be a probability");
    if (!probability(p.jumpDensity))
        return bad("jumpDensity must be a probability");
    if (p.callDensity + p.condDensity + p.jumpDensity > 1.0)
        return bad("callDensity + condDensity + jumpDensity must be "
                   "<= 1");
    if (!probability(p.biasedFraction))
        return bad("biasedFraction must be a probability");
    if (!probability(p.dataDepLo) || !probability(p.dataDepHi) ||
        p.dataDepLo > p.dataDepHi) {
        return bad("dataDep bounds must satisfy 0 <= lo <= hi <= 1");
    }

    if (!std::isfinite(p.loopsPerFunction) || p.loopsPerFunction < 0.0 ||
        p.loopsPerFunction > 8.0) {
        return bad("loopsPerFunction must be in [0, 8]");
    }
    if (!std::isfinite(p.meanLoopIter) || p.meanLoopIter < 1.0 ||
        p.meanLoopIter > 1024.0) {
        return bad("meanLoopIter must be in [1, 1024]");
    }
    if (!std::isfinite(p.meanAppCalls) || p.meanAppCalls < 0.0 ||
        p.meanAppCalls > 16.0) {
        return bad("meanAppCalls must be in [0, 16]");
    }
    if (!std::isfinite(p.zipfS) || p.zipfS < 0.0 || p.zipfS > 4.0)
        return bad("zipfS must be in [0, 4]");
    if (p.callLayers == 0 || p.callLayers > 64)
        return bad("callLayers must be in [1, 64]");
    if (p.maxCallDepth == 0 || p.maxCallDepth > 256)
        return bad("maxCallDepth must be in [1, 256]");
    if (!std::isfinite(p.interruptRate) || p.interruptRate < 0.0 ||
        p.interruptRate > 0.01) {
        return bad("interruptRate must be in [0, 0.01]");
    }
    return std::nullopt;
}

Program
WorkloadGenerator::build(const WorkloadParams &p)
{
    if (const auto err = validateWorkloadParams(p))
        fatalError(*err);

    Rng rng(p.seed);
    Program prog;

    // Function index map:
    //   0                        dispatcher
    //   [1, appFunctions]        application functions
    //   [lib_first, +libFunctions)  shared-library functions
    //   [handler_first, +handlers) interrupt handlers
    const std::uint32_t app_first = 1;
    const std::uint32_t lib_first = app_first + p.appFunctions;
    const std::uint32_t handler_first = lib_first + p.libFunctions;
    const std::uint32_t total_fns = handler_first + p.handlers;

    prog.functions.reserve(total_fns);
    std::vector<std::vector<std::size_t>> app_sites(total_fns);

    // Dispatcher: B0 ... Call (callee overridden at run time),
    //             B1 ... Jump -> B0.
    {
        Function d;
        d.blocks.resize(2);
        d.blocks[0].numInstrs = static_cast<std::uint32_t>(rng.range(4, 8));
        d.blocks[0].term = BlockTerm::Call;
        d.blocks[0].callee = app_first;  // placeholder; executor overrides
        d.blocks[1].numInstrs = static_cast<std::uint32_t>(rng.range(3, 6));
        d.blocks[1].term = BlockTerm::Jump;
        d.blocks[1].targetBlock = 0;
        prog.functions.push_back(std::move(d));
    }

    for (std::uint32_t f = app_first; f < lib_first; ++f) {
        FunctionDraft draft = buildFunctionBody(
            p, p.meanFnBlocks, p.maxFnBlocks, true, rng);
        app_sites[f] = std::move(draft.appCallBlocks);
        prog.functions.push_back(std::move(draft.fn));
    }
    for (std::uint32_t f = lib_first; f < handler_first; ++f) {
        // Library functions skew smaller (string ops, allocators...).
        prog.functions.push_back(buildFunctionBody(
            p, std::max(1.5, p.meanFnBlocks * 0.5), p.maxFnBlocks,
            false, rng).fn);
    }
    for (std::uint32_t f = handler_first; f < total_fns; ++f) {
        Function h = buildFunctionBody(p, p.meanHandlerBlocks,
                                       std::max(4u, p.maxFnBlocks / 2),
                                       false, rng).fn;
        h.isHandler = true;
        prog.functions.push_back(std::move(h));
    }

    // Lay out all functions contiguously, block-aligned.
    Addr cursor = codeBase;
    for (Function &fn : prog.functions) {
        cursor = alignToBlock(cursor);
        layoutFunction(fn, cursor);
        cursor = fn.end();
    }
    prog.codeEnd = alignToBlock(cursor);

    // Resolve callees through the layered call graph. An application
    // function with app-relative index i lives in layer i % callLayers
    // (so layers interleave across the address space); application
    // call sites in layer l target layer l+1, bottom-layer sites call
    // library code. Popularity within the target layer is Zipf-skewed
    // and scattered via a multiplicative permutation so hot callees
    // are not clustered at low addresses.
    const std::uint64_t perm_prime = 2654435761ull;  // odd, coprime
    const unsigned layers = std::max(1u, p.callLayers);
    auto pick_lib = [&](std::uint32_t self) -> std::uint32_t {
        std::uint64_t z = rng.zipf(p.libFunctions, p.zipfS + 0.15);
        std::uint32_t idx = lib_first +
            static_cast<std::uint32_t>((z * perm_prime) % p.libFunctions);
        // Library->library calls must ascend in index so utility call
        // chains form a DAG and always terminate.
        if (self >= lib_first && idx <= self) {
            if (self + 1 >= handler_first)
                return 0;  // none available: no call
            idx = self + 1 + static_cast<std::uint32_t>(
                rng.below(handler_first - self - 1));
        }
        return idx;
    };
    auto pick_app_in_layer = [&](unsigned layer) {
        // App-relative indices congruent to `layer` mod `layers`.
        const std::uint32_t count =
            (p.appFunctions + layers - 1 - layer) / layers;
        std::uint64_t z = rng.zipf(count, p.zipfS);
        const std::uint32_t nth =
            static_cast<std::uint32_t>((z * perm_prime) % count);
        return app_first + layer + nth * layers;
    };

    for (std::uint32_t f = app_first; f < total_fns; ++f) {
        Function &fn = prog.functions[f];
        const bool is_app = f < lib_first;
        const unsigned layer = is_app ? (f - app_first) % layers : 0;
        const auto &sites = app_sites[f];
        for (std::size_t b = 0; b < fn.blocks.size(); ++b) {
            BasicBlock &blk = fn.blocks[b];
            if (blk.term != BlockTerm::Call)
                continue;
            const bool is_app_site = is_app &&
                std::find(sites.begin(), sites.end(), b) != sites.end();
            std::uint32_t callee;
            if (is_app_site && layer + 1 < layers) {
                callee = pick_app_in_layer(layer + 1);
            } else {
                callee = pick_lib(f);
            }
            if (callee == 0) {
                // No legal callee (end of the library DAG): demote the
                // call to a plain fall-through.
                blk.term = BlockTerm::FallThrough;
            } else {
                blk.callee = callee;
            }
        }
    }

    // Transaction roots: layer-0 functions spread across the image,
    // weighted by a Zipf-like popularity so some types dominate.
    prog.transactionRoots.reserve(p.transactions);
    prog.transactionWeights.reserve(p.transactions);
    const std::uint32_t layer0_count =
        (p.appFunctions + layers - 1) / layers;
    for (unsigned t = 0; t < p.transactions; ++t) {
        const std::uint32_t nth = static_cast<std::uint32_t>(
            (static_cast<std::uint64_t>(t) * layer0_count) /
            p.transactions);
        prog.transactionRoots.push_back(app_first + nth * layers);
        prog.transactionWeights.push_back(
            1.0 / std::pow(static_cast<double>(t + 1), 0.9));
    }

    for (std::uint32_t h = handler_first; h < total_fns; ++h)
        prog.handlers.push_back(h);
    prog.dispatcher = 0;

    prog.validate();
    return prog;
}

} // namespace pifetch
