/**
 * @file
 * Experiment registry implementation.
 *
 * Each runner turns one figure's reproduction loop into a
 * structured-result producer. Each experiment runs its independent
 * simulations as one flat task list on the worker pool
 * (common/parallel.hh), every result landing in the slot its task
 * index names, so every document is bit-identical at any thread
 * count.
 */

#include "sim/registry.hh"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <mutex>
#include <set>

#include "common/parallel.hh"
#include "common/types.hh"
#include "pif/pif_prefetcher.hh"
#include "pif/storage.hh"
#include "prefetch/next_line.hh"
#include "sim/multicore.hh"
#include "sim/workloads.hh"

namespace pifetch {

namespace {

std::vector<WorkloadRef>
workloadsOf(const ExperimentSpec &spec, const RunOptions &opts)
{
    return opts.workloads.empty() ? spec.defaultWorkloads
                                  : opts.workloads;
}

ExperimentBudget
budgetOf(const ExperimentSpec &spec, const RunOptions &opts)
{
    return opts.budget ? *opts.budget : spec.defaultBudget;
}

/**
 * Run fn(recording, config) for every workload x config pair as one
 * task list on the pool. Each workload's front end is recorded once:
 * the list opens with one recording task per workload, which builds
 * the Program, records the warm-up and measure segments under @p cfg
 * and frees the Program. Every configuration task then replays only
 * the back stage from its workload's read-only recording, waiting if
 * another lane is still recording it; the last one to finish frees
 * it. The result of pair (w, c) lands in slot w * configs + c,
 * whatever lane ran it.
 */
template <typename Result, typename Fn>
std::vector<Result>
runRecordedGrid(const std::vector<WorkloadRef> &ws,
                const ExperimentBudget &budget, std::size_t configs,
                const SystemConfig &cfg, const Fn &fn)
{
    const std::size_t n = ws.size();
    std::vector<FrontRecording> recs(n);
    std::vector<std::once_flag> recorded(n);
    std::vector<std::atomic<std::size_t>> left(n);
    for (std::atomic<std::size_t> &l : left)
        l.store(configs, std::memory_order_relaxed);
    const auto record = [&](std::size_t w) {
        std::call_once(recorded[w], [&] {
            recs[w] = recordWorkload(ws[w], budget, cfg);
        });
    };

    std::vector<Result> out(n * configs);
    parallelFor(cfg.threads, n + out.size(), [&](std::uint64_t t) {
        if (t < n) {
            record(t);
            return;
        }
        const std::size_t i = t - n;
        const std::size_t w = i / configs;
        record(w);
        out[i] = fn(recs[w], i % configs);
        if (left[w].fetch_sub(1, std::memory_order_acq_rel) == 1)
            recs[w] = FrontRecording();
    });
    return out;
}

/** Standard row prefix: workload class and display name. */
void
pushWorkloadCells(ResultValue &row, const WorkloadRef &w)
{
    row.push(w.group());
    row.push(w.name());
}

// --------------------------------------------------------- Table I

ResultValue
runTable1(const ExperimentSpec &spec, const RunOptions &opts)
{
    const SystemConfig &cfg = opts.cfg;

    ResultValue system = makeTable(
        "System parameters (Table I left)", {"parameter", "value"});
    {
        ResultValue &rows = *system.find("rows");
        const auto add = [&rows](const std::string &k, ResultValue v) {
            ResultValue row = ResultValue::array();
            row.push(k);
            row.push(std::move(v));
            rows.push(std::move(row));
        };
        // Constants of the paper's CMP: the engines model one core's
        // instruction side, so no config field sets them.
        add("cores", 16u);
        add("l1i_bytes", cfg.l1i.sizeBytes);
        add("l1i_assoc", cfg.l1i.assoc);
        add("l1d_bytes", 64u * 1024);
        add("block_bytes", cfg.l1i.blockBytes);
        add("rob_entries", cfg.core.robEntries);
        add("dispatch_width", cfg.core.dispatchWidth);
        add("l2_bytes", cfg.memory.l2SizeBytes);
        add("l2_hit_latency", cfg.memory.l2HitLatency);
        add("mem_latency", cfg.memory.memLatency);
        add("interconnect_latency", cfg.memory.interconnectLatency);
        add("branch_gshare_entries", cfg.branch.gshareEntries);
        add("pif_history_regions", cfg.pif.historyRegions);
        add("pif_region_blocks", cfg.pif.regionBlocks());
        add("pif_sabs", cfg.pif.numSabs);
    }

    ResultValue storage = makeTable(
        "Predictor storage (Section 5.4 trade-off)",
        {"structure", "kib"});
    {
        const PifStorage s = computePifStorage(cfg.pif);
        ResultValue &rows = *storage.find("rows");
        const auto add = [&rows](const std::string &k, double kib) {
            ResultValue row = ResultValue::array();
            row.push(k);
            row.push(kib);
            rows.push(std::move(row));
        };
        add("pif_history", s.historyBits / 8192.0);
        add("pif_index", s.indexBits / 8192.0);
        add("pif_sabs", s.sabBits / 8192.0);
        add("pif_compactors", s.compactorBits / 8192.0);
        add("pif_total", s.totalKiB());
        add("tifs_equal_capacity", tifsStorageBits(cfg.tifs) / 8192.0);
    }

    const std::vector<WorkloadRef> ws = workloadsOf(spec, opts);
    ResultValue app = makeTable(
        "Application parameters (Table I right, synthetic equivalents)",
        {"group", "workload", "footprint_mb", "app_functions",
         "lib_functions", "transactions", "interrupt_rate"});
    {
        std::vector<std::uint64_t> footprint(ws.size(), 0);
        parallelFor(cfg.threads, ws.size(), [&](std::uint64_t i) {
            footprint[i] = ws[i].buildProgram().footprintBytes();
        });
        ResultValue &rows = *app.find("rows");
        for (std::size_t i = 0; i < ws.size(); ++i) {
            const WorkloadParams p = ws[i].params();
            ResultValue row = ResultValue::array();
            pushWorkloadCells(row, ws[i]);
            row.push(static_cast<double>(footprint[i]) / (1 << 20));
            row.push(p.appFunctions);
            row.push(p.libFunctions);
            row.push(p.transactions);
            row.push(p.interruptRate);
            rows.push(std::move(row));
        }
    }

    ResultValue body = ResultValue::object();
    body.set("tables", ResultValue::array()
                           .push(std::move(system))
                           .push(std::move(storage))
                           .push(std::move(app)));
    return body;
}

// --------------------------------------------------------- Figure 2

ResultValue
runFig2Body(const ExperimentSpec &spec, const RunOptions &opts)
{
    const std::vector<WorkloadRef> ws = workloadsOf(spec, opts);
    const ExperimentBudget budget = budgetOf(spec, opts);

    std::vector<Fig2Result> rs(ws.size());
    parallelFor(opts.cfg.threads, ws.size(), [&](std::uint64_t i) {
        rs[i] = runFig2(ws[i], budget, opts.cfg);
    });

    ResultValue t = makeTable(
        "Correctly predicted correct-path L1-I misses (fraction)",
        {"group", "workload", "miss", "access", "retire",
         "retire_sep", "correct_path_misses"});
    ResultValue &rows = *t.find("rows");
    for (std::size_t i = 0; i < ws.size(); ++i) {
        ResultValue row = ResultValue::array();
        pushWorkloadCells(row, ws[i]);
        row.push(rs[i].missCoverage);
        row.push(rs[i].accessCoverage);
        row.push(rs[i].retireCoverage);
        row.push(rs[i].retireSepCoverage);
        row.push(rs[i].correctPathMisses);
        rows.push(std::move(row));
    }
    ResultValue body = ResultValue::object();
    body.set("tables", ResultValue::array().push(std::move(t)));
    return body;
}

// --------------------------------------------------------- Figure 3

ResultValue
runFig3Body(const ExperimentSpec &spec, const RunOptions &opts)
{
    const std::vector<WorkloadRef> ws = workloadsOf(spec, opts);
    const InstCount instrs = budgetOf(spec, opts).measure;

    std::vector<Fig3Result> rs;
    rs.resize(ws.size(), Fig3Result{});
    parallelFor(opts.cfg.threads, ws.size(), [&](std::uint64_t i) {
        rs[i] = runFig3(ws[i], instrs);
    });

    const auto histTable = [&](const char *title, bool density) {
        std::vector<std::string> cols = {"group", "workload"};
        const RangeHistogram &sample =
            density ? rs.front().density : rs.front().groups;
        for (unsigned b = 0; b < sample.ranges(); ++b)
            cols.push_back(sample.labelAt(b));
        if (density)
            cols.push_back("regions");
        ResultValue t = makeTable(title, cols);
        ResultValue &rows = *t.find("rows");
        for (std::size_t i = 0; i < ws.size(); ++i) {
            const RangeHistogram &h =
                density ? rs[i].density : rs[i].groups;
            ResultValue row = ResultValue::array();
            pushWorkloadCells(row, ws[i]);
            for (unsigned b = 0; b < h.ranges(); ++b)
                row.push(h.fractionAt(b));
            if (density)
                row.push(rs[i].regions);
            rows.push(std::move(row));
        }
        return t;
    };

    ResultValue body = ResultValue::object();
    body.set("tables",
             ResultValue::array()
                 .push(histTable("References to spatial regions by "
                                 "density (unique blocks)", true))
                 .push(histTable("Discontinuous access groups within "
                                 "regions", false)));
    return body;
}

// ------------------------------------------- Figures 7 / 9 (left)

/** Shared shape: per-workload cumulative log2 histogram table. */
ResultValue
cumulativeLog2Body(const std::vector<WorkloadRef> &ws,
                   const std::vector<Log2Histogram> &hists,
                   unsigned bucket_cap, const char *title)
{
    unsigned max_bucket = 1;
    for (const Log2Histogram &h : hists)
        max_bucket = std::max(max_bucket, h.highestBucket());
    max_bucket = std::min(max_bucket, bucket_cap);

    std::vector<std::string> cols = {"log2"};
    for (const WorkloadRef &w : ws)
        cols.push_back(w.name());
    ResultValue t = makeTable(title, cols);
    ResultValue &rows = *t.find("rows");
    for (unsigned b = 0; b <= max_bucket; ++b) {
        ResultValue row = ResultValue::array();
        row.push(b);
        for (const Log2Histogram &h : hists)
            row.push(h.cumulativeAt(b));
        rows.push(std::move(row));
    }
    ResultValue body = ResultValue::object();
    body.set("tables", ResultValue::array().push(std::move(t)));
    return body;
}

ResultValue
runFig7Body(const ExperimentSpec &spec, const RunOptions &opts)
{
    const std::vector<WorkloadRef> ws = workloadsOf(spec, opts);
    const InstCount instrs = budgetOf(spec, opts).measure;
    std::vector<Log2Histogram> hists(ws.size(), Log2Histogram(1));
    parallelFor(opts.cfg.threads, ws.size(), [&](std::uint64_t i) {
        hists[i] = runFig7(ws[i], instrs);
    });
    return cumulativeLog2Body(
        ws, hists, 25,
        "Weighted jump distance in history (cumulative fraction)");
}

ResultValue
runFig9LeftBody(const ExperimentSpec &spec, const RunOptions &opts)
{
    const std::vector<WorkloadRef> ws = workloadsOf(spec, opts);
    const InstCount instrs = budgetOf(spec, opts).measure;
    std::vector<Log2Histogram> hists(ws.size(), Log2Histogram(1));
    parallelFor(opts.cfg.threads, ws.size(), [&](std::uint64_t i) {
        hists[i] = runFig9Left(ws[i], instrs);
    });
    return cumulativeLog2Body(
        ws, hists, 21,
        "Correct predictions by temporal stream length "
        "(cumulative fraction, log2 regions)");
}

// --------------------------------------------------------- Figure 8

ResultValue
runFig8LeftBody(const ExperimentSpec &spec, const RunOptions &opts)
{
    const std::vector<WorkloadRef> ws = workloadsOf(spec, opts);
    const InstCount instrs = budgetOf(spec, opts).measure;

    std::vector<LinearHistogram> hists(ws.size(),
                                       LinearHistogram(-4, 12));
    parallelFor(opts.cfg.threads, ws.size(), [&](std::uint64_t i) {
        hists[i] = runFig8Left(ws[i], instrs);
    });

    // The paper aggregates by workload class; preserve the class
    // order of the selected workloads.
    std::vector<std::string> groups;
    for (const WorkloadRef &w : ws) {
        const std::string g = w.group();
        if (std::find(groups.begin(), groups.end(), g) == groups.end())
            groups.push_back(g);
    }
    std::vector<LinearHistogram> sums(groups.size(),
                                      LinearHistogram(-4, 12));
    for (std::size_t i = 0; i < ws.size(); ++i) {
        const std::size_t g = static_cast<std::size_t>(
            std::find(groups.begin(), groups.end(),
                      ws[i].group()) -
            groups.begin());
        for (int off = -4; off <= 12; ++off) {
            if (off != 0)
                sums[g].add(off, hists[i].weightAt(off));
        }
    }

    std::vector<std::string> cols = {"offset"};
    cols.insert(cols.end(), groups.begin(), groups.end());
    ResultValue t = makeTable(
        "References within spatial regions by distance from trigger "
        "(fraction)", cols);
    ResultValue &rows = *t.find("rows");
    for (int off = -4; off <= 12; ++off) {
        if (off == 0)
            continue;
        ResultValue row = ResultValue::array();
        row.push(off);
        for (const LinearHistogram &h : sums)
            row.push(h.fractionAt(off));
        rows.push(std::move(row));
    }
    ResultValue body = ResultValue::object();
    body.set("tables", ResultValue::array().push(std::move(t)));
    return body;
}

ResultValue
runFig8RightBody(const ExperimentSpec &spec, const RunOptions &opts)
{
    const std::vector<WorkloadRef> ws = workloadsOf(spec, opts);
    const ExperimentBudget budget = budgetOf(spec, opts);
    constexpr std::size_t n = std::size(fig8Geometries);
    const auto rs = runRecordedGrid<Fig8RightPoint>(
        ws, budget, n, opts.cfg,
        [&](const FrontRecording &rec, std::size_t g) {
            return runFig8Right(rec, fig8Geometries[g], opts.cfg);
        });

    std::vector<std::string> cols = {"group", "workload", "trap_level"};
    for (const RegionGeometry &g : fig8Geometries)
        cols.push_back("r" + std::to_string(g.total));
    ResultValue t = makeTable(
        "PIF coverage vs spatial region size (fraction)", cols);
    ResultValue &rows = *t.find("rows");
    for (std::size_t i = 0; i < ws.size(); ++i) {
        for (const unsigned tl : {0u, 1u}) {
            ResultValue row = ResultValue::array();
            pushWorkloadCells(row, ws[i]);
            row.push("TL" + std::to_string(tl));
            for (std::size_t g = 0; g < n; ++g) {
                const Fig8RightPoint &p = rs[i * n + g];
                row.push(tl == 0 ? p.tl0Coverage : p.tl1Coverage);
            }
            rows.push(std::move(row));
        }
    }
    ResultValue body = ResultValue::object();
    body.set("tables", ResultValue::array().push(std::move(t)));
    return body;
}

// ------------------------------------------------ Figure 9 (right)

ResultValue
runFig9RightBody(const ExperimentSpec &spec, const RunOptions &opts)
{
    const std::vector<WorkloadRef> ws = workloadsOf(spec, opts);
    const ExperimentBudget budget = budgetOf(spec, opts);
    constexpr std::size_t n = std::size(fig9HistorySizes);
    const auto coverage = runRecordedGrid<double>(
        ws, budget, n, opts.cfg,
        [&](const FrontRecording &rec, std::size_t s) {
            return runFig9Right(rec, fig9HistorySizes[s], opts.cfg);
        });

    std::vector<std::string> cols = {"history_regions"};
    for (const WorkloadRef &w : ws)
        cols.push_back(w.name());
    ResultValue t = makeTable(
        "PIF predictor coverage vs history size (fraction)", cols);
    ResultValue &rows = *t.find("rows");
    for (std::size_t s = 0; s < n; ++s) {
        ResultValue row = ResultValue::array();
        row.push(fig9HistorySizes[s]);
        for (std::size_t i = 0; i < ws.size(); ++i)
            row.push(coverage[i * n + s]);
        rows.push(std::move(row));
    }
    ResultValue body = ResultValue::object();
    body.set("tables", ResultValue::array().push(std::move(t)));
    return body;
}

// -------------------------------------------------------- Figure 10

ResultValue
runFig10CoverageBody(const ExperimentSpec &spec, const RunOptions &opts)
{
    const std::vector<WorkloadRef> ws = workloadsOf(spec, opts);
    const ExperimentBudget budget = budgetOf(spec, opts);
    constexpr std::size_t n = std::size(fig10CoverageKinds);
    const auto misses = runRecordedGrid<std::uint64_t>(
        ws, budget, n, opts.cfg,
        [&](const FrontRecording &rec, std::size_t k) {
            return runFig10Coverage(rec, fig10CoverageKinds[k], opts.cfg);
        });

    ResultValue t = makeTable(
        "L1-I miss coverage, no storage limitation (fraction)",
        {"group", "workload", "next_line", "tifs", "pif",
         "baseline_misses"});
    ResultValue &rows = *t.find("rows");
    for (std::size_t i = 0; i < ws.size(); ++i) {
        const std::uint64_t *m = &misses[i * n];  // m[0]: None
        ResultValue row = ResultValue::array();
        pushWorkloadCells(row, ws[i]);
        for (std::size_t k = 1; k < n; ++k)
            row.push(missCoverage(m[0], m[k]));
        row.push(m[0]);
        rows.push(std::move(row));
    }
    ResultValue body = ResultValue::object();
    body.set("tables", ResultValue::array().push(std::move(t)));
    return body;
}

ResultValue
runFig10SpeedupBody(const ExperimentSpec &spec, const RunOptions &opts)
{
    const std::vector<WorkloadRef> ws = workloadsOf(spec, opts);
    const ExperimentBudget budget = budgetOf(spec, opts);
    constexpr std::size_t n = std::size(fig10SpeedupKinds);
    const auto uipc = runRecordedGrid<double>(
        ws, budget, n, opts.cfg,
        [&](const FrontRecording &rec, std::size_t k) {
            return runFig10Speedup(rec, fig10SpeedupKinds[k], opts.cfg);
        });

    ResultValue t = makeTable(
        "Speedup over the no-prefetch baseline (UIPC ratio)",
        {"group", "workload", "next_line", "tifs", "pif", "perfect",
         "baseline_uipc"});
    ResultValue &rows = *t.find("rows");
    double geo_pif = 1.0;
    double geo_perfect = 1.0;
    for (std::size_t i = 0; i < ws.size(); ++i) {
        const double *u = &uipc[i * n];  // u[0]: None
        const auto speedup = [u](std::size_t k) {
            return u[0] > 0.0 ? u[k] / u[0] : 0.0;
        };
        ResultValue row = ResultValue::array();
        pushWorkloadCells(row, ws[i]);
        for (std::size_t k = 1; k < n; ++k)
            row.push(speedup(k));
        row.push(u[0]);
        rows.push(std::move(row));
        geo_pif *= speedup(3);      // fig10SpeedupKinds[3]: Pif
        geo_perfect *= speedup(4);  // [4]: Perfect
    }

    const double n_ws = static_cast<double>(ws.size());
    ResultValue geo = makeTable("Geometric-mean speedup",
                                {"prefetcher", "speedup"});
    ResultValue &geo_rows = *geo.find("rows");
    const auto add = [&geo_rows](const char *name, double product,
                                 double count) {
        ResultValue row = ResultValue::array();
        row.push(name);
        row.push(count == 1.0 ? product
                              : std::pow(product, 1.0 / count));
        geo_rows.push(std::move(row));
    };
    add("PIF", geo_pif, n_ws);
    add("Perfect", geo_perfect, n_ws);

    ResultValue body = ResultValue::object();
    body.set("tables", ResultValue::array()
                           .push(std::move(t))
                           .push(std::move(geo)));
    return body;
}

// --------------------------------------------------------- Ablation

ResultValue
runAblationBody(const ExperimentSpec &spec, const RunOptions &opts)
{
    // Single-workload study: only the first selection runs, and the
    // body reports that back so meta.workloads never over-claims.
    const WorkloadRef w = workloadsOf(spec, opts).front();
    const ExperimentBudget budget = budgetOf(spec, opts);
    const SystemConfig &base = opts.cfg;

    // Record the front end once, each stream a task on the pool: the
    // single-engine stream first (it is twice as long), then one per
    // core of the shared-storage study. The Program is freed once they
    // are recorded.
    constexpr unsigned cores = 4;
    FrontRecording rec;
    std::vector<FrontRecording> core_recs(cores);
    {
        const Program prog = w.buildProgram();
        parallelFor(base.threads, 1 + cores, [&](std::uint64_t i) {
            if (i == 0) {
                rec = FrontRecording(base, prog, w.executorConfig(),
                                     budget.warmup, budget.measure);
            } else {
                core_recs[i - 1] = recordSharedPifCore(
                    w, prog, static_cast<unsigned>(i - 1),
                    budget.warmup / 2, budget.measure / 2, base);
            }
        });
    }

    // Every design point is one task writing its own slots; all run
    // as one list, and the tables read the slots afterwards.
    std::vector<std::function<void()>> tasks;

    // The shared-storage arms go first: each interleaves 4 cores for
    // half the budget, twice a single run, so a lane that claimed one
    // last would finish alone.
    const std::vector<std::uint64_t> totals = {8192, 32768};
    std::vector<SharedPifStudyResult> study(2 * totals.size());
    for (std::size_t i = 0; i < study.size(); ++i) {
        tasks.push_back([&, i] {  // slot 2t: private, 2t + 1: shared
            study[i] = runSharedPifStudy(core_recs, totals[i / 2],
                                         i % 2 == 1, base);
        });
    }

    // Then the single-engine points, each PIF or next-line, keyed by
    // prefetcher and full configuration: the base PIF point appears in
    // three tables (depth 4, 4 SABs x 7 regions, separate trap levels)
    // and runs once, filling every slot.
    struct Point
    {
        SystemConfig cfg;
        bool nextLine;
        std::vector<TraceRunResult *> slots;
    };
    std::vector<Point> points;
    const auto addRun = [&](TraceRunResult &slot, const SystemConfig &cfg,
                            bool next_line) {
        for (Point &p : points) {
            if (p.nextLine == next_line && p.cfg == cfg) {
                p.slots.push_back(&slot);
                return;
            }
        }
        points.push_back({cfg, next_line, {&slot}});
    };

    const std::vector<unsigned> depths = {1, 2, 4, 8, 16};
    std::vector<TraceRunResult> depth_rs(depths.size());
    for (std::size_t i = 0; i < depths.size(); ++i) {
        SystemConfig cfg = base;
        cfg.pif.temporalEntries = depths[i];
        addRun(depth_rs[i], cfg, false);
    }

    struct Grid { unsigned sabs, window; };
    std::vector<Grid> grid;
    for (unsigned sabs : {1u, 2u, 4u, 8u})
        for (unsigned window : {3u, 7u, 15u})
            grid.push_back({sabs, window});
    std::vector<TraceRunResult> sab_rs(grid.size());
    for (std::size_t i = 0; i < grid.size(); ++i) {
        SystemConfig cfg = base;
        cfg.pif.numSabs = grid[i].sabs;
        cfg.pif.sabWindowRegions = grid[i].window;
        addRun(sab_rs[i], cfg, false);
    }

    std::vector<TraceRunResult> sep_rs(2);
    for (std::size_t i = 0; i < sep_rs.size(); ++i) {
        SystemConfig cfg = base;
        cfg.pif.separateTrapLevels = i == 1;
        addRun(sep_rs[i], cfg, false);
    }

    const std::vector<unsigned> degrees = {1, 2, 4, 8};
    std::vector<TraceRunResult> nl_rs(degrees.size());
    for (std::size_t i = 0; i < degrees.size(); ++i) {
        SystemConfig cfg = base;
        cfg.nextLine.degree = degrees[i];
        addRun(nl_rs[i], cfg, true);
    }

    for (const Point &p : points) {
        tasks.push_back([&rec, &p] {
            std::unique_ptr<Prefetcher> pf;
            if (p.nextLine) {
                pf = std::make_unique<NextLinePrefetcher>(p.cfg.nextLine);
            } else {
                pf = std::make_unique<PifPrefetcher>(p.cfg.pif);
            }
            TraceEngine engine(p.cfg, rec, std::move(pf));
            const TraceRunResult r = engine.run(rec.warmup(), rec.measure());
            for (TraceRunResult *slot : p.slots)
                *slot = r;
        });
    }
    parallelFor(base.threads, tasks.size(),
                [&](std::uint64_t i) { tasks[i](); });

    ResultValue tables = ResultValue::array();
    {
        ResultValue t = makeTable(
            "Temporal compactor depth (PIF on " + w.name() + ")",
            {"entries", "coverage", "issued_per_kinst", "miss_ratio"});
        ResultValue &rows = *t.find("rows");
        for (std::size_t i = 0; i < depths.size(); ++i) {
            const TraceRunResult &r = depth_rs[i];
            ResultValue row = ResultValue::array();
            row.push(depths[i]);
            row.push(r.pifCoverage);
            row.push(static_cast<double>(r.prefetchIssued) * 1000.0 /
                     static_cast<double>(r.instrs));
            row.push(r.missRatio());
            rows.push(std::move(row));
        }
        tables.push(std::move(t));
    }
    {
        ResultValue t = makeTable(
            "SAB count x window (paper: 4 SABs x 7 regions)",
            {"sabs", "window", "coverage", "miss_ratio"});
        ResultValue &rows = *t.find("rows");
        for (std::size_t i = 0; i < grid.size(); ++i) {
            ResultValue row = ResultValue::array();
            row.push(grid[i].sabs);
            row.push(grid[i].window);
            row.push(sab_rs[i].pifCoverage);
            row.push(sab_rs[i].missRatio());
            rows.push(std::move(row));
        }
        tables.push(std::move(t));
    }
    {
        ResultValue t = makeTable(
            "Trap-level stream separation",
            {"separate", "coverage", "miss_ratio"});
        ResultValue &rows = *t.find("rows");
        for (std::size_t i = 0; i < sep_rs.size(); ++i) {
            ResultValue row = ResultValue::array();
            row.push(i == 1);
            row.push(sep_rs[i].pifCoverage);
            row.push(sep_rs[i].missRatio());
            rows.push(std::move(row));
        }
        tables.push(std::move(t));
    }
    {
        ResultValue t = makeTable(
            "Shared vs private PIF storage (4 cores)",
            {"total_regions", "private_coverage", "shared_coverage",
             "private_miss_ratio", "shared_miss_ratio"});
        ResultValue &rows = *t.find("rows");
        for (std::size_t i = 0; i < totals.size(); ++i) {
            const SharedPifStudyResult &priv = study[2 * i];
            const SharedPifStudyResult &shared = study[2 * i + 1];
            ResultValue row = ResultValue::array();
            row.push(totals[i]);
            row.push(priv.coverage);
            row.push(shared.coverage);
            row.push(priv.missRatio);
            row.push(shared.missRatio);
            rows.push(std::move(row));
        }
        tables.push(std::move(t));
    }
    {
        ResultValue t = makeTable(
            "Next-line degree",
            {"degree", "miss_ratio", "useful_per_fill"});
        ResultValue &rows = *t.find("rows");
        for (std::size_t i = 0; i < degrees.size(); ++i) {
            const TraceRunResult &r = nl_rs[i];
            const double acc = r.prefetchFills == 0
                ? 0.0
                : static_cast<double>(r.usefulPrefetches) /
                  static_cast<double>(r.prefetchFills);
            ResultValue row = ResultValue::array();
            row.push(degrees[i]);
            row.push(r.missRatio());
            row.push(acc);
            rows.push(std::move(row));
        }
        tables.push(std::move(t));
    }

    ResultValue body = ResultValue::object();
    body.set("tables", std::move(tables));
    body.set("workloads",
             ResultValue::array().push(w.key()));
    return body;
}

ExperimentBudget
engineBudget()
{
    ExperimentBudget b;
    b.warmup = 1'500'000;
    b.measure = 6'000'000;
    return b;
}

} // namespace

const std::vector<ExperimentSpec> &
experimentRegistry()
{
    static const std::vector<ExperimentSpec> registry = [] {
        std::vector<ExperimentSpec> specs;
        std::vector<WorkloadRef> all;
        for (ServerWorkload w : allServerWorkloads())
            all.push_back(w);

        specs.push_back({
            "table1",
            "System and application parameters (Table I) plus the "
            "Section 5.4 predictor storage model",
            "",
            all, engineBudget(), runTable1});
        specs.push_back({
            "fig2-streams",
            "Correctly predicted correct-path L1-I misses at the four "
            "stream observation points (Figure 2)",
            "paper shape: Miss < Access < Retire < RetireSep; "
            "RetireSep near-perfect",
            all, engineBudget(), runFig2Body});
        specs.push_back({
            "fig3-regions",
            "Spatial region density and discontinuous access groups "
            "(Figure 3)",
            "paper shape: >50% of regions access more than one block; "
            "about a fifth observe discontinuous accesses",
            all, engineBudget(), runFig3Body});
        specs.back().usesConfig = false;
        specs.push_back({
            "fig7-jumpdist",
            "Coverage-weighted jump distance in history (Figure 7)",
            "paper shape: medium-aged and old streams contribute as "
            "many correct predictions as recent streams",
            all, engineBudget(), runFig7Body});
        specs.back().usesConfig = false;
        specs.push_back({
            "fig8-offsets",
            "References by block offset from the trigger access "
            "(Figure 8 left)",
            "paper shape: +1/+2 dominate; frequency decays with "
            "distance; backward accesses occur with significant "
            "frequency",
            all, engineBudget(), runFig8LeftBody});
        specs.back().usesConfig = false;
        specs.push_back({
            "fig8-regionsize",
            "PIF coverage per trap level vs spatial region size "
            "(Figure 8 right)",
            "paper shape: TL0 grows slightly with region size; TL1 "
            "improves significantly",
            all, engineBudget(), runFig8RightBody});
        specs.push_back({
            "fig9-streamlen",
            "Correct predictions by temporal stream length "
            "(Figure 9 left)",
            "paper shape: medium and long streams contribute more "
            "correct predictions than short streams",
            all, engineBudget(), runFig9LeftBody});
        specs.back().usesConfig = false;
        specs.push_back({
            "fig9-history",
            "PIF predictor coverage vs history buffer capacity "
            "(Figure 9 right)",
            "paper shape: coverage rises monotonically with storage; "
            "little justification beyond 32K regions",
            all, engineBudget(), runFig9RightBody});
        specs.push_back({
            "fig10-coverage",
            "L1-I miss coverage of Next-Line, TIFS and PIF without "
            "storage limitations (Figure 10 left)",
            "paper shape: PIF nearly perfect across all workloads; "
            "TIFS 65-90%; next-line below TIFS",
            all, engineBudget(), runFig10CoverageBody});
        specs.push_back({
            "fig10-speedup",
            "UIPC speedup over the no-prefetch baseline "
            "(Figure 10 right)",
            "paper shape: Next-Line < TIFS < PIF ~= Perfect "
            "(paper: PIF +27% avg, perfect +29%)",
            all, engineBudget(), runFig10SpeedupBody});
        specs.push_back({
            "ablation",
            "Design-space ablations: temporal compactor depth, SAB "
            "grid, trap separation, shared storage, next-line degree",
            "",
            {ServerWorkload::OltpDb2}, engineBudget(),
            runAblationBody});
        return specs;
    }();
    return registry;
}

const ExperimentSpec *
findExperiment(const std::string &name)
{
    for (const ExperimentSpec &spec : experimentRegistry()) {
        if (spec.name == name)
            return &spec;
    }
    return nullptr;
}

ResultValue
runExperiment(const ExperimentSpec &spec, const RunOptions &opts)
{
    const ExperimentBudget budget = budgetOf(spec, opts);
    ResultValue body = spec.run(spec, opts);

    ResultValue meta = ResultValue::object();
    // Analysis-only runners never read the system config and make a
    // single pass of `measure` instructions; omitting seed/config/
    // warmup keeps the provenance honest (they had no effect).
    if (spec.usesConfig) {
        meta.set("seed", opts.cfg.seed);
        meta.set("warmup", budget.warmup);
    }
    meta.set("measure", budget.measure);
    meta.set("threads", resolveThreads(opts.cfg.threads));
    meta.set("git", gitDescribe());
    // A body may narrow the selection (the ablation runs only its
    // first workload); trust its report over the requested list.
    if (ResultValue *used = body.find("workloads")) {
        meta.set("workloads", std::move(*used));
    } else {
        ResultValue workloads = ResultValue::array();
        for (const WorkloadRef &w : workloadsOf(spec, opts))
            workloads.push(w.key());
        meta.set("workloads", std::move(workloads));
    }
    if (spec.usesConfig)
        meta.set("config", configToResult(opts.cfg));

    ResultValue doc = ResultValue::object();
    doc.set("experiment", spec.name);
    doc.set("description", spec.description);
    doc.set("meta", std::move(meta));
    if (ResultValue *tables = body.find("tables"))
        doc.set("tables", std::move(*tables));
    ResultValue notes = ResultValue::array();
    if (const ResultValue *body_notes = body.find("notes")) {
        for (std::size_t i = 0; i < body_notes->size(); ++i)
            notes.push(body_notes->at(i));
    }
    if (!spec.paperShape.empty())
        notes.push(spec.paperShape);
    doc.set("notes", std::move(notes));
    return doc;
}

std::string
gitDescribe()
{
#ifdef PIFETCH_GIT_DESCRIBE
    return PIFETCH_GIT_DESCRIBE;
#else
    return "unknown";
#endif
}

// ---------------------------------------------------- parameter sweeps

std::uint64_t
sweepPointCount(const std::vector<SweepAxis> &axes)
{
    if (axes.empty())
        return 0;
    std::uint64_t points = 1;
    for (const SweepAxis &axis : axes)
        points *= axis.values.size();
    return points;
}

std::vector<std::pair<std::string, std::string>>
sweepPointParams(const std::vector<SweepAxis> &axes, std::uint64_t p)
{
    // Mixed-radix decode, last axis fastest: peel digits from the
    // innermost axis outward, then restore declaration order.
    std::vector<std::pair<std::string, std::string>> params;
    params.reserve(axes.size());
    for (auto it = axes.rbegin(); it != axes.rend(); ++it) {
        const std::uint64_t n = it->values.size();
        params.emplace_back(it->key, it->values[p % n]);
        p /= n;
    }
    std::reverse(params.begin(), params.end());
    return params;
}

std::optional<std::string>
validateSweepGrid(const std::vector<SweepAxis> &axes,
                  const SystemConfig &base)
{
    std::set<std::string> keys;
    std::uint64_t points = 1;
    for (const SweepAxis &axis : axes) {
        if (!keys.insert(axis.key).second)
            return "sweep axis " + axis.key + " given twice";
        // Bounded before each multiply, so the product cannot wrap and
        // checking every point below stays cheap.
        points *= axis.values.size();
        if (points > (std::uint64_t{1} << 20))
            return std::string("sweep grid above 2^20 points");
    }
    for (std::uint64_t p = 0; p < points; ++p) {
        SystemConfig cfg = base;
        std::string label;
        for (const auto &[key, value] : sweepPointParams(axes, p)) {
            std::string err;
            if (!applyConfigOverride(cfg, key, value, &err))
                return err;
            label += (label.empty() ? "" : " ") + key + "=" + value;
        }
        if (const auto err = validateSystemConfig(cfg))
            return "sweep point " + label + ": " + *err;
    }
    return std::nullopt;
}

ResultValue
runSweep(const ExperimentSpec &spec, const RunOptions &base,
         const std::vector<SweepAxis> &axes)
{
    // Each point runs serially, so the fan-out over points is the only
    // parallelism and every run lands in its point's slot.
    const std::uint64_t points = sweepPointCount(axes);
    std::vector<ResultValue> entries(points);
    parallelFor(base.cfg.threads, points, [&](std::uint64_t p) {
        RunOptions point = base;
        point.cfg.threads = 1;
        ResultValue params = ResultValue::object();
        for (const auto &[key, value] : sweepPointParams(axes, p)) {
            if (!applyConfigOverride(point.cfg, key, value))
                panic("sweep point " + key + "=" + value +
                      " skipped validateSweepGrid");
            params.set(key, value);
        }
        entries[p] = ResultValue::object();
        entries[p].set("params", std::move(params));
        entries[p].set("result", runExperiment(spec, point));
    });

    ResultValue runs = ResultValue::array();
    for (ResultValue &entry : entries)
        runs.push(std::move(entry));
    ResultValue doc = ResultValue::object();
    doc.set("experiment", spec.name);
    doc.set("sweep", true);
    doc.set("points", points);
    doc.set("runs", std::move(runs));
    return doc;
}

// ----------------------------------------------------------- goldens

namespace {

/**
 * Load a zoo spec for the golden suite. The suite must never silently
 * shrink, so a missing or invalid zoo file is a hard error.
 */
WorkloadRef
zooWorkload(const std::string &key)
{
    const auto entry = findZooEntry(key);
    if (!entry) {
        panic("golden suite: workload spec '" + key +
              "' not found under " + workloadZooDir());
    }
    std::string err;
    auto spec = loadWorkloadSpecFile(entry->path, &err);
    if (!spec)
        panic("golden suite: " + err);
    return workloadRefFromSpec(std::move(*spec));
}

} // namespace

const std::vector<GoldenEntry> &
goldenSuite()
{
    static const std::vector<GoldenEntry> suite = [] {
        ExperimentBudget small;
        small.warmup = 120'000;
        small.measure = 260'000;

        std::vector<GoldenEntry> entries;
        {
            GoldenEntry e;
            e.experiment = "fig2-streams";
            e.options.workloads = {ServerWorkload::OltpDb2,
                                   ServerWorkload::WebApache};
            e.options.budget = small;
            entries.push_back(std::move(e));
        }
        {
            GoldenEntry e;
            e.experiment = "fig9-history";
            e.options.workloads = {ServerWorkload::OltpDb2};
            e.options.budget = small;
            entries.push_back(std::move(e));
        }
        {
            GoldenEntry e;
            e.experiment = "fig10-coverage";
            e.options.workloads = {ServerWorkload::OltpDb2,
                                   ServerWorkload::WebApache};
            e.options.budget = small;
            entries.push_back(std::move(e));
        }
        {
            GoldenEntry e;
            e.experiment = "fig10-speedup";
            e.options.workloads = {ServerWorkload::OltpDb2};
            e.options.budget = small;
            entries.push_back(std::move(e));
        }
        // Smaller budget: these are 5 and 27 engine runs on db2, and
        // the suite also runs under TSan.
        for (const char *exp : {"fig8-regionsize", "ablation"}) {
            GoldenEntry e;
            e.experiment = exp;
            e.options.workloads = {ServerWorkload::OltpDb2};
            e.options.budget = ExperimentBudget{40'000, 80'000};
            entries.push_back(std::move(e));
        }
        // Spec-driven runs are locked exactly like the preset ones:
        // two zoo workloads through two different experiments.
        {
            GoldenEntry e;
            e.experiment = "fig2-streams";
            e.options.workloads = {zooWorkload("microservice_fanout")};
            e.options.budget = small;
            e.fixture = "zoo-microservice-fanout";
            entries.push_back(std::move(e));
        }
        {
            GoldenEntry e;
            e.experiment = "fig10-coverage";
            e.options.workloads = {zooWorkload("cold_start_storm")};
            e.options.budget = small;
            e.fixture = "zoo-cold-start-storm";
            entries.push_back(std::move(e));
        }
        return entries;
    }();
    return suite;
}

std::string
goldenFixtureName(const GoldenEntry &entry)
{
    return entry.fixture.empty() ? entry.experiment : entry.fixture;
}

std::string
goldenJson(const GoldenEntry &entry, unsigned threads)
{
    const ExperimentSpec *spec = findExperiment(entry.experiment);
    if (!spec)
        panic("golden entry references unknown experiment");

    RunOptions opts = entry.options;
    opts.cfg.threads = threads;
    const ExperimentBudget budget = opts.budget ? *opts.budget
                                                : spec->defaultBudget;
    ResultValue body = spec->run(*spec, opts);

    // Pinned metadata only: nothing that varies with checkout, host
    // or PIFETCH_THREADS may reach the fixture bytes.
    ResultValue meta = ResultValue::object();
    meta.set("mode", "golden");
    meta.set("seed", opts.cfg.seed);
    meta.set("warmup", budget.warmup);
    meta.set("measure", budget.measure);
    ResultValue workloads = ResultValue::array();
    for (const WorkloadRef &w : opts.workloads)
        workloads.push(w.key());
    meta.set("workloads", std::move(workloads));

    ResultValue doc = ResultValue::object();
    doc.set("experiment", spec->name);
    doc.set("meta", std::move(meta));
    if (ResultValue *tables = body.find("tables"))
        doc.set("tables", std::move(*tables));
    return toJson(doc, 2) + "\n";
}

} // namespace pifetch
