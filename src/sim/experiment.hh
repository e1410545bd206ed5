/**
 * @file
 * Per-figure experiment drivers.
 *
 * One function per table/figure of the paper's evaluation; the
 * experiment registry (sim/registry.hh) calls these and tabulates the
 * rows. Tests call them with small instruction budgets to check
 * invariants cheaply.
 */

#pragma once

#include <vector>

#include "common/config.hh"
#include "common/histogram.hh"
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

/** Figure 8 (right): PIF coverage per trap level vs region size. */
struct Fig8RightPoint
{
    unsigned regionBlocks = 0;
    double tl0Coverage = 0.0;
    double tl1Coverage = 0.0;
};

std::vector<Fig8RightPoint>
runFig8Right(const WorkloadRef &w, const ExperimentBudget &budget,
             const SystemConfig &cfg = SystemConfig{});

/** Figure 9 (left): coverage-weighted temporal stream lengths
 * (in spatial regions). */
Log2Histogram runFig9Left(const WorkloadRef &w, InstCount instrs);

/** Figure 9 (right): PIF coverage vs history buffer capacity. */
struct Fig9RightPoint
{
    std::uint64_t historyRegions = 0;
    double coverage = 0.0;
};

std::vector<Fig9RightPoint>
runFig9Right(const WorkloadRef &w, const ExperimentBudget &budget,
             const std::vector<std::uint64_t> &sizes,
             const SystemConfig &cfg = SystemConfig{});

/** Figure 10 (left): L1-I miss coverage per prefetcher. */
struct Fig10CoveragePoint
{
    PrefetcherKind kind;
    double missCoverage = 0.0;
    std::uint64_t baselineMisses = 0;
    std::uint64_t remainingMisses = 0;
};

std::vector<Fig10CoveragePoint>
runFig10Coverage(const WorkloadRef &w, const ExperimentBudget &budget,
                 const SystemConfig &cfg = SystemConfig{});

/** Figure 10 (right): UIPC speedup over the no-prefetch baseline. */
struct Fig10SpeedupPoint
{
    PrefetcherKind kind;
    double uipc = 0.0;
    double speedup = 0.0;
};

std::vector<Fig10SpeedupPoint>
runFig10Speedup(const WorkloadRef &w, const ExperimentBudget &budget,
                const SystemConfig &cfg = SystemConfig{});

} // namespace pifetch
