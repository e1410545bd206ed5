/**
 * @file
 * Spatial compactor (Section 4.1, Figure 5 left).
 *
 * Monitors retiring instructions, collapses consecutive same-block PCs,
 * and folds block accesses that fall within the current spatial region
 * into its bit vector. When a retiring instruction falls outside the
 * current region, the completed record is emitted downstream (to the
 * temporal compactor) and a new region is opened with the new
 * instruction as trigger.
 */

#pragma once

#include <cstdint>
#include <optional>

#include "common/config.hh"
#include "pif/region.hh"

namespace pifetch {

/**
 * Builds spatial region records from the retire-order PC stream.
 *
 * One instance per recorded stream (PIF keeps one per trap level when
 * trap separation is enabled).
 */
class SpatialCompactor
{
  public:
    /**
     * @param blocks_before Region blocks preceding the trigger (N).
     * @param blocks_after Region blocks succeeding the trigger (M).
     */
    SpatialCompactor(unsigned blocks_before, unsigned blocks_after);

    /** Construct from the PIF configuration. */
    explicit SpatialCompactor(const PifConfig &cfg)
        : SpatialCompactor(cfg.blocksBefore, cfg.blocksAfter)
    {
    }

    /**
     * Observe a retiring instruction.
     *
     * Runs once per retired instruction on the replay hot path, so it
     * is defined inline: the dominant same-block early-out then folds
     * into the engine's monomorphized loop.
     *
     * @param pc Retired instruction PC.
     * @param tagged Fetch-stage tag (not explicitly prefetched).
     * @param tl Trap level at retirement.
     * @return the completed previous region record, if this instruction
     *         closed one.
     */
    std::optional<SpatialRegion>
    observe(Addr pc, bool tagged, TrapLevel tl)
    {
        const Addr block = blockAddr(pc);
        // Collapse consecutive retired PCs within the same block: the
        // history predicts block addresses, not instruction addresses.
        if (block == lastBlock_)
            return std::nullopt;
        lastBlock_ = block;

        if (active_) {
            const std::int64_t off = static_cast<std::int64_t>(block) -
                static_cast<std::int64_t>(current_.triggerBlock());
            const bool inside =
                off >= -static_cast<std::int64_t>(blocksBefore_) &&
                off <= static_cast<std::int64_t>(blocksAfter_);
            if (inside) {
                if (off != 0)
                    current_.setOffset(static_cast<int>(off),
                                       blocksBefore_);
                return std::nullopt;
            }
        }

        // Outside the current region (or no region yet): emit and
        // restart.
        std::optional<SpatialRegion> done;
        if (active_)
            done = current_;
        current_ = SpatialRegion{};
        current_.triggerPc = pc;
        current_.trapLevel = tl;
        current_.triggerTagged = tagged;
        active_ = true;
        return done;
    }

    /** Flush the in-progress region (end of trace). */
    std::optional<SpatialRegion> flush();

    unsigned blocksBefore() const { return blocksBefore_; }
    unsigned blocksAfter() const { return blocksAfter_; }

  private:
    unsigned blocksBefore_;
    unsigned blocksAfter_;

    bool active_ = false;
    SpatialRegion current_;
    Addr lastBlock_ = invalidAddr;  //!< same-block collapse filter
};

} // namespace pifetch
