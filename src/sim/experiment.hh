/**
 * @file
 * Per-figure experiment drivers.
 *
 * One function per table/figure of the paper's evaluation; the
 * experiment registry (sim/registry.hh) calls these and tabulates the
 * rows. The swept figures (8 and 9 right, 10) run one configuration
 * per call on a workload's FrontRecording, so the registry records
 * each workload's front end once and runs every workload x
 * configuration of a figure as one flat task list. Tests call them
 * with small instruction budgets to check invariants cheaply.
 */

#pragma once

#include <vector>

#include "common/config.hh"
#include "common/histogram.hh"
#include "sim/front_recording.hh"
#include "sim/system_config.hh"
#include "sim/trace_engine.hh"
#include "sim/workloads.hh"
#include "trace/server_suite.hh"

namespace pifetch {

/** Default instruction budgets for the experiments. */
struct ExperimentBudget
{
    InstCount warmup = 2'000'000;
    InstCount measure = 8'000'000;
};

/** Figure 2: stream-observation-point coverage for one workload. */
struct Fig2Result
{
    std::string workload;  //!< workload key (preset or spec slug)
    std::uint64_t correctPathMisses = 0;
    double missCoverage = 0.0;      //!< predict the L1-I miss stream
    double accessCoverage = 0.0;    //!< predict the fetch-access stream
    double retireCoverage = 0.0;    //!< predict the retire-order stream
    double retireSepCoverage = 0.0; //!< retire streams split by trap level
};

/** Run the Figure 2 study on one workload. */
Fig2Result runFig2(const WorkloadRef &w, const ExperimentBudget &budget,
                   const SystemConfig &cfg = SystemConfig{});

/** Figure 3: spatial region density and discontinuity for a workload. */
struct Fig3Result
{
    std::string workload;  //!< workload key (preset or spec slug)
    RangeHistogram density{{1, 2, 4, 8, 16, 32}};
    RangeHistogram groups{{1, 2, 4, 8, 16}};
    std::uint64_t regions = 0;
};

/** Run the Figure 3 study (regions over the retire-order stream). */
Fig3Result runFig3(const WorkloadRef &w, InstCount instrs);

/** Figure 7: coverage-weighted jump distance histogram. */
Log2Histogram runFig7(const WorkloadRef &w, InstCount instrs);

/** Figure 8 (left): access frequency by offset from the trigger. */
LinearHistogram runFig8Left(const WorkloadRef &w, InstCount instrs);

/** Figure 8 (right): PIF coverage per trap level at one region size. */
struct Fig8RightPoint
{
    unsigned regionBlocks = 0;
    double tl0Coverage = 0.0;
    double tl1Coverage = 0.0;
};

/** A spatial region geometry: total blocks, split around the trigger. */
struct RegionGeometry
{
    unsigned total, before, after;
};

/** Figure 8 (right)'s geometries in column order, skewed toward
 * succeeding blocks per Section 5.2. */
inline constexpr RegionGeometry fig8Geometries[] = {
    {1, 0, 0}, {2, 0, 1}, {4, 1, 2}, {6, 2, 3}, {8, 2, 5},
};

/**
 * Record @p w's front end under @p cfg over @p budget's warm-up and
 * measure segments. The Program is built for the recording and freed
 * before it returns.
 */
FrontRecording recordWorkload(const WorkloadRef &w,
                              const ExperimentBudget &budget,
                              const SystemConfig &cfg = SystemConfig{});

/**
 * Run Figure 8 (right) at one geometry, replaying @p rec (see
 * recordWorkload) under @p cfg. The experiment grids in
 * sim/registry.cc share one read-only recording across every
 * configuration of a workload; so do the other per-configuration
 * drivers below.
 */
Fig8RightPoint
runFig8Right(const FrontRecording &rec, const RegionGeometry &g,
             const SystemConfig &cfg = SystemConfig{});

/** Figure 9 (left): coverage-weighted temporal stream lengths
 * (in spatial regions). */
Log2Histogram runFig9Left(const WorkloadRef &w, InstCount instrs);

/** Figure 9 (right)'s history capacities (regions), in row order. */
inline constexpr std::uint64_t fig9HistorySizes[] = {
    2 * 1024, 8 * 1024, 32 * 1024, 128 * 1024, 512 * 1024,
};

/** Figure 9 (right): PIF coverage with a history of
 * @p history_regions, replaying @p rec. */
double runFig9Right(const FrontRecording &rec,
                    std::uint64_t history_regions,
                    const SystemConfig &cfg = SystemConfig{});

/** Figure 10's prefetchers in table-column order. The first, None,
 * is the baseline: it defines the miss population and the speedup
 * denominator. */
inline constexpr PrefetcherKind fig10CoverageKinds[] = {
    PrefetcherKind::None, PrefetcherKind::NextLine,
    PrefetcherKind::Tifs, PrefetcherKind::Pif,
};
inline constexpr PrefetcherKind fig10SpeedupKinds[] = {
    PrefetcherKind::None, PrefetcherKind::NextLine,
    PrefetcherKind::Tifs, PrefetcherKind::Pif, PrefetcherKind::Perfect,
};

/** Figure 10 (left): correct-path L1-I misses left on @p rec by
 * @p kind without storage limitations (Section 5.5). */
std::uint64_t
runFig10Coverage(const FrontRecording &rec, PrefetcherKind kind,
                 const SystemConfig &cfg = SystemConfig{});

/** Share of @p baseline misses a prefetcher leaving @p remaining
 * eliminated (0 without a baseline, never negative). */
double missCoverage(std::uint64_t baseline, std::uint64_t remaining);

/** Figure 10 (right): cycle-engine UIPC on @p rec with @p kind;
 * a speedup is its ratio to the None run's. */
double runFig10Speedup(const FrontRecording &rec, PrefetcherKind kind,
                       const SystemConfig &cfg = SystemConfig{});

} // namespace pifetch
