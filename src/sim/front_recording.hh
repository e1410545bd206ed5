/**
 * @file
 * Recorded front-end streams: run a workload's executor and front
 * stage once, then replay only the back stage under many
 * configurations.
 *
 * The executor, branch predictors, wrong-path draws and same-block
 * collapse (FrontStage) read only the retire stream, never the L1-I
 * or the prefetcher, so every configuration swept over one workload
 * repeats the same front-stage work. This is the single-pass,
 * many-configuration idea of Mattson et al. (IBM Systems Journal 9(2),
 * 1970), applied at the stage the configurations share. A
 * FrontRecording holds the FrontStep records of a warm-up segment and
 * a measure segment, varint-encoded in memory (well under a byte per
 * instruction), plus the executor and front-stage counters at both
 * segment ends. The engines' recording constructors replay it through
 * the same back stage their live path runs, so a replayed run equals
 * the live run counter for counter (tests/test_differential.cc).
 *
 * A recording is read-only once built: the experiment grids share one
 * across every configuration task of a workload, on any pool lane.
 * Recordings never touch disk.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "common/config.hh"
#include "core/frontend.hh"
#include "sim/run_counters.hh"
#include "trace/executor.hh"
#include "trace/program.hh"

namespace pifetch {

/** One workload's front-stage output over a warm-up and a measure
 * segment. */
class FrontRecording
{
  public:
    FrontRecording() = default;

    /**
     * Run @p prog's executor (@p exec_cfg) and the front stage of
     * @p cfg for @p warmup then @p measure instructions, recording
     * every step. The Program is not referenced afterwards. Only
     * @p cfg's seed, core and branch fields shape the stream.
     */
    FrontRecording(const SystemConfig &cfg, const Program &prog,
                   const ExecutorConfig &exec_cfg, InstCount warmup,
                   InstCount measure);

    InstCount warmup() const { return warmup_; }
    InstCount measure() const { return measure_; }

    /** Encoded size of the step records. */
    std::size_t bytes() const { return bytes_.size(); }

    /**
     * True when an engine configured by @p cfg may replay this
     * recording: the fields the front stage reads (seed, core and
     * branch parameters) equal the recorded ones.
     */
    bool replayableWith(const SystemConfig &cfg) const;

    /** Sequential decoder of a recording's steps. */
    class Reader
    {
      public:
        explicit Reader(const FrontRecording &rec) : rec_(&rec) {}

        /**
         * Decode the steps of the next @p n instructions (fewer at the
         * end of the recording) into @p out, replacing its contents. A
         * step whose same-block run crosses the bound is split; its
         * remainder replays as a step that fetches nothing, exactly
         * what the front stage emits for a batch that starts inside a
         * run.
         * @return the instructions decoded.
         */
        InstCount next(std::vector<FrontStep> &out, InstCount n);

        /**
         * The run counters at the current position, which must be a
         * segment end (the start, the end of warm-up or the end): the
         * executor's instruction and interrupt counts come from the
         * recording, the rest from the replaying @p frontend. Throws
         * std::logic_error at any other position, or when the replay's
         * fetch and mispredict counts differ from the recorded ones.
         */
        RunCounters counters(const Frontend &frontend) const;

      private:
        /** Decode the next encoded step; false at the end. */
        bool decode(FrontStep &s);

        const FrontRecording *rec_;
        std::size_t at_ = 0;     //!< byte offset of the next step
        Addr nextPc_ = 0;        //!< pc a fall-through step would have
        InstCount pos_ = 0;      //!< instructions handed out
        FrontStep rest_;         //!< remainder of a split step
        bool hasRest_ = false;
    };

  private:
    SystemConfig cfg_;
    InstCount warmup_ = 0;
    InstCount measure_ = 0;
    std::vector<std::uint8_t> bytes_;
    /** Counters at the end of warm-up and at the end (misses 0). */
    RunCounters marks_[2];
};

} // namespace pifetch
