/**
 * @file
 * Functional front-end model: derives the fetch-access stream (with
 * branch-predictor noise) and the miss stream from the retire-order
 * stream.
 *
 * This component recreates, mechanistically, the two stream-corrupting
 * effects of Section 2:
 *  - Branch-predictor noise (Section 2.2): every control transfer is
 *    predicted with the Table I hybrid predictor + BTB + RAS; on a
 *    misprediction the front-end injects a burst of sequential
 *    wrong-path block fetches whose length is set by a data-dependent
 *    resolution delay, then redirects.
 *  - Cache filtering (Section 2.1): every block-granularity fetch
 *    probes (and on a miss, fills) the L1-I, so the resulting miss
 *    stream is the access stream as fragmented by LRU replacement.
 *
 * Spontaneous interrupts (Section 2.3) appear in the retire stream as
 * trap-level changes; the front-end treats them as asynchronous
 * redirects (flush, no wrong-path burst, no predictor training).
 *
 * The model runs in two stages. The front stage (FrontStage) decides,
 * from the retire stream alone, which blocks each instruction fetches:
 * the branch predictors, the wrong-path resolution draw and the
 * same-block collapse never read the L1-I or a prefetcher, so its
 * output (FrontStep records) is the same under every L1-I and
 * prefetcher configuration. The fetch stage (Frontend::fetchStep)
 * performs those fetches through the line buffer and the L1-I. The
 * engines run both stages live, or replay recorded front-stage output
 * under many configurations (sim/front_recording.hh).
 */

#pragma once

#include <cstdint>
#include <vector>

#include "branch/btb.hh"
#include "branch/hybrid.hh"
#include "branch/ras.hh"
#include "cache/cache.hh"
#include "cache/line_buffer.hh"
#include "common/config.hh"
#include "common/rng.hh"
#include "trace/record.hh"

namespace pifetch {

/** One block-granularity fetch access produced by the front-end. */
struct FetchAccess
{
    /** Block address fetched. */
    Addr block = 0;
    /** True for correct-path fetches; false for wrong-path bursts. */
    bool correctPath = true;
    /** Trap level of the fetch. */
    TrapLevel trapLevel = 0;
    /** L1-I (or line-buffer) hit. */
    bool hit = false;
    /** Hit on a prefetched line (first demand touch clears the bit). */
    bool wasPrefetched = false;
};

/** Seed of a configuration's front-end resolution draws. */
inline std::uint64_t
frontendSeed(const SystemConfig &cfg)
{
    return cfg.seed ^ 0xfe7c4;
}

/**
 * What the front stage decided for one retired instruction: the
 * fetches it performs, independent of the L1-I and the prefetcher.
 * The instructions a step covers are the one at @ref pc plus the
 * @ref sameBlock plain instructions after it, which retire from the
 * same block at the same trap level and touch no front-end state. A
 * step's own instruction may be such a no-op too (at the start of a
 * batch, or where a replay splits a run); it then fetches nothing,
 * and the back stage treats it like any other step.
 */
struct FrontStep
{
    /** Program counter of the step's instruction. */
    Addr pc = 0;
    /** First block of the wrong-path burst (when wrongBlocks > 0). */
    Addr wrongBlock = 0;
    /** Same-block plain instructions retired after this one. */
    std::uint32_t sameBlock = 0;
    /** Blocks of the wrong-path burst; nonzero exactly when the
     * instruction's control transfer was mispredicted. */
    std::uint32_t wrongBlocks = 0;
    /** Trap level of the step (and of its same-block run). */
    TrapLevel trapLevel = 0;
    /** The instruction fetched its own block on the correct path. */
    bool fetch = false;
};

/**
 * The front stage: branch predictor, BTB, RAS, the wrong-path
 * resolution draw and the same-block collapse filter. It reads only
 * the retire stream, so one pass over a workload serves every L1-I
 * and prefetcher configuration.
 */
class FrontStage
{
  public:
    /**
     * @param cfg System configuration (core + branch sizing).
     * @param seed Seed for data-dependent resolution delays.
     */
    FrontStage(const SystemConfig &cfg, std::uint64_t seed);

    /** Decide the fetches of one retired instruction (sameBlock 0). */
    FrontStep step(const RetiredInstr &instr);

    /**
     * Decide the fetches of a whole batch: one FrontStep per
     * instruction that is not a same-block no-op, the no-ops that
     * follow it counted in its sameBlock. A no-op is a plain
     * instruction at an unchanged trap level delivered from the current
     * block: step() would change nothing and fetch nothing for it. The
     * batch's first instruction always opens a step. Reads the batch's
     * block and plainCont columns, which must be populated.
     */
    void stepBatch(const RecordBatch &batch, std::vector<FrontStep> &out);

    /** Control transfers predicted. */
    std::uint64_t predictions() const { return predictions_; }

  private:
    /**
     * Predict the control transfer of @p instr.
     * @param[out] wrong_path_pc Where fetch would go on this prediction
     *             if it is wrong (the not-taken path, predicted target,
     *             or sequential fall-through).
     * @return true if the prediction redirects fetch correctly.
     */
    bool predictTransfer(const RetiredInstr &instr, Addr &wrong_path_pc);

    /** Size the wrong-path burst starting at byte address @p start_pc. */
    void wrongPath(Addr start_pc, FrontStep &s);

    const CoreConfig coreCfg_;
    HybridPredictor direction_;
    Btb btb_;
    ReturnAddressStack ras_;
    Rng rng_;

    /** Block of the most recent correct-path fetch (collapse filter). */
    Addr curBlock_ = invalidAddr;
    /** Trap level of the previous retired instruction. */
    TrapLevel prevTl_ = 0;

    std::uint64_t predictions_ = 0;
};

/**
 * Functional front-end fetch model.
 *
 * Owns the front stage and the line buffer; operates on a
 * caller-owned L1-I cache so engines can share the cache with the
 * prefetch fill path. For each retired instruction fed to step(), the
 * front-end appends the block-granularity fetch accesses it performs
 * (correct-path access plus any wrong-path burst) to an event list the
 * caller consumes. step() runs the front stage, then fetchStep(); the
 * engines call the two stages separately.
 */
class Frontend
{
  public:
    /**
     * @param cfg System configuration (core + branch sizing).
     * @param l1i The instruction cache (shared with prefetch fills).
     * @param seed Seed for data-dependent resolution delays.
     */
    Frontend(const SystemConfig &cfg, Cache &l1i, std::uint64_t seed);

    /**
     * Process one retired instruction.
     *
     * Appends the resulting fetch accesses to @p events (not cleared).
     * The first event, if any, is the correct-path fetch of
     * @p instr's block (only present on a block transition); any
     * following events are wrong-path burst fetches triggered by a
     * misprediction of @p instr.
     *
     * @return true if the instruction was delivered from a block that
     *         was NOT explicitly prefetched ("tagged", Section 4.2).
     */
    bool step(const RetiredInstr &instr, std::vector<FetchAccess> &events);

    /**
     * The fetch stage: perform @p s's correct-path fetch (if any) and
     * wrong-path burst through the line buffer and the L1-I, filling
     * misses, and append their events to @p events (not cleared).
     * @return the tag of the step's instructions (see step()).
     */
    bool fetchStep(const FrontStep &s, std::vector<FetchAccess> &events);

    /** The front stage (predictors and collapse filter). */
    FrontStage &front() { return front_; }

    /** Control transfers predicted. */
    std::uint64_t predictions() const { return front_.predictions(); }
    /** Mispredicted control transfers observed. */
    std::uint64_t mispredicts() const { return mispredicts_; }
    /** Wrong-path block fetches injected. */
    std::uint64_t wrongPathFetches() const { return wrongPathFetches_; }
    /** Correct-path block fetches issued. */
    std::uint64_t correctPathFetches() const
    {
        return correctPathFetches_;
    }
    /** Correct-path fetches that missed in the L1-I. */
    std::uint64_t correctPathMisses() const { return correctPathMisses_; }

  private:
    /**
     * Perform one block fetch: line-buffer check, L1-I access, fill on
     * miss, event emission.
     * @return the emitted event (also appended to @p events).
     */
    FetchAccess fetchBlock(Addr block, bool correct_path, TrapLevel tl,
                           std::vector<FetchAccess> &events);

    FrontStage front_;
    Cache &l1i_;
    LineBuffer lineBuffer_;

    /** Tag state of the current block's delivery. */
    bool curBlockTagged_ = true;

    std::uint64_t mispredicts_ = 0;
    std::uint64_t wrongPathFetches_ = 0;
    std::uint64_t correctPathFetches_ = 0;
    std::uint64_t correctPathMisses_ = 0;
};

} // namespace pifetch
