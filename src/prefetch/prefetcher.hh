/**
 * @file
 * Instruction prefetcher interface.
 *
 * Engines drive prefetchers through three hooks mirroring the hardware
 * attachment points in Figure 4 of the paper:
 *  - onFetchAccess(): the core's front-end accessed the L1-I (PIF's
 *    SABs monitor these to advance active streams; next-line and TIFS
 *    trigger from them);
 *  - onRetire(): an instruction retired from the back-end (PIF's
 *    compactor input);
 *  - drainRequests(): the engine collects prefetch candidates, probes
 *    the L1-I (Section 4.3's line-buffer tag path), and performs fills.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"
#include "trace/record.hh"

namespace pifetch {

/** Everything a prefetcher may observe about one L1-I fetch access. */
struct FetchInfo
{
    /** Block address accessed. */
    Addr block = 0;
    /** PC of the first instruction fetched by this access. */
    Addr pc = 0;
    /** The access hit in the L1-I (or line buffer). */
    bool hit = false;
    /** Hit on a prefetched line (first demand touch). */
    bool wasPrefetched = false;
    /** False for wrong-path (speculative) fetches. */
    bool correctPath = true;
    /** Trap level of the fetch. */
    TrapLevel trapLevel = 0;
};

/**
 * Abstract instruction prefetcher.
 *
 * All addresses are block addresses. Implementations enqueue candidate
 * blocks internally; the engine pulls them with drainRequests() and is
 * responsible for cache probing, dedup, and fill timing.
 */
class Prefetcher
{
  public:
    virtual ~Prefetcher() = default;

    /** Display name for reports. */
    virtual std::string name() const = 0;

    /** The core's front-end issued a demand fetch (see FetchInfo). */
    virtual void onFetchAccess(const FetchInfo &info) { (void)info; }

    /**
     * An instruction retired.
     *
     * @param instr The retired instruction record. The engines fill in
     *        only its pc and trap level: their back stage replays
     *        front-end steps (core/frontend.hh), which carry nothing
     *        else of the record.
     * @param tagged True if the instruction was NOT delivered from an
     *        explicitly prefetched block (Section 4.2's fetch-stage tag);
     *        PIF gates index-table insertion on this.
     */
    virtual void
    onRetire(const RetiredInstr &instr, bool tagged)
    {
        (void)instr; (void)tagged;
    }

    /**
     * A run of @p count consecutive instructions retired, all plain,
     * all at trap level @p tl, and all fetched from the same block as
     * the immediately preceding retire. Semantically equivalent to
     * @p count onRetire() calls whose PCs stay inside that block; the
     * batched replay loop uses it to collapse same-block runs when no
     * observers are attached.
     *
     * The default matches the default onRetire() (a no-op).
     * Implementations that override onRetire() with behaviour beyond a
     * same-block collapse must override this hook consistently — the
     * batched-vs-scalar differential suite locks the equivalence for
     * every shipped prefetcher.
     */
    virtual void
    onRetireSameBlockRun(TrapLevel tl, std::uint32_t count)
    {
        (void)tl; (void)count;
    }

    /**
     * Move up to @p max pending prefetch candidates into @p out.
     * @return the number of candidates produced.
     */
    virtual unsigned drainRequests(std::vector<Addr> &out,
                                   unsigned max) = 0;

    /** Reset all predictor state. */
    virtual void reset() = 0;

    /** Zero measurement counters without touching predictor state
     * (called by engines at the warmup/measurement boundary). */
    virtual void resetStats() { issued_ = 0; }

    /** Total candidates ever enqueued (before engine-side filtering). */
    std::uint64_t issued() const { return issued_; }

  protected:
    /** Implementations bump this when enqueueing a candidate. */
    std::uint64_t issued_ = 0;
};

/**
 * Null prefetcher: the no-prefetch baseline of Figure 10.
 */
class NullPrefetcher final : public Prefetcher
{
  public:
    std::string name() const override { return "None"; }

    unsigned
    drainRequests(std::vector<Addr> &out, unsigned max) override
    {
        (void)out; (void)max;
        return 0;
    }

    void reset() override {}
};

} // namespace pifetch
