/**
 * @file
 * Experiment driver implementations.
 */

#include "sim/experiment.hh"

#include "pif/pif_prefetcher.hh"
#include "pif/region_analyzer.hh"
#include "pif/spatial_compactor.hh"
#include "pif/temporal_compactor.hh"
#include "sim/cycle_engine.hh"
#include "sim/workloads.hh"
#include "streams/jump_distance.hh"
#include "streams/stream_length.hh"
#include "streams/temporal_predictor.hh"

namespace pifetch {

Fig2Result
runFig2(const WorkloadRef &w, const ExperimentBudget &budget,
        const SystemConfig &cfg)
{
    const Program prog = w.buildProgram();
    Executor exec(prog, w.executorConfig());
    Cache l1i(cfg.l1i);
    Frontend frontend(cfg, l1i, frontendSeed(cfg));

    TemporalStreamPredictor miss_pred(TemporalPredictorConfig{});
    TemporalStreamPredictor access_pred(TemporalPredictorConfig{});
    TemporalStreamPredictor retire_pred(TemporalPredictorConfig{});
    TemporalStreamPredictor retire_sep[maxTrapLevels] = {
        TemporalStreamPredictor(TemporalPredictorConfig{}),
        TemporalStreamPredictor(TemporalPredictorConfig{}),
    };

    Addr last_retire_block = invalidAddr;
    Addr last_sep_block[maxTrapLevels] = {invalidAddr, invalidAddr};

    std::uint64_t total_misses = 0;
    std::uint64_t cov_miss = 0;
    std::uint64_t cov_access = 0;
    std::uint64_t cov_retire = 0;
    std::uint64_t cov_sep = 0;

    std::vector<FetchAccess> events;
    events.reserve(64);

    const InstCount total = budget.warmup + budget.measure;
    for (InstCount i = 0; i < total; ++i) {
        const bool measuring = i >= budget.warmup;
        const RetiredInstr instr = exec.next();
        events.clear();
        frontend.step(instr, events);

        for (const FetchAccess &ev : events) {
            const bool is_cp_miss = ev.correctPath && !ev.hit;
            if (is_cp_miss && measuring) {
                ++total_misses;
                // Coverage queries *before* this event's observations:
                // "would a prefetcher following stream X have already
                // predicted this block?"
                if (miss_pred.covered(ev.block))
                    ++cov_miss;
                if (access_pred.covered(ev.block))
                    ++cov_access;
                if (retire_pred.covered(ev.block))
                    ++cov_retire;
                const TrapLevel tl =
                    std::min<TrapLevel>(ev.trapLevel, maxTrapLevels - 1);
                if (retire_sep[tl].covered(ev.block))
                    ++cov_sep;
            }
            // Observation streams: access sees everything the front-end
            // fetches (wrong path included); miss sees every L1-I miss.
            access_pred.observe(ev.block);
            if (!ev.hit)
                miss_pred.observe(ev.block);
        }

        // Retire-order streams (block-collapsed).
        const Addr rblock = blockAddr(instr.pc);
        if (rblock != last_retire_block) {
            last_retire_block = rblock;
            retire_pred.observe(rblock);
        }
        const TrapLevel tl =
            std::min<TrapLevel>(instr.trapLevel, maxTrapLevels - 1);
        if (rblock != last_sep_block[tl]) {
            last_sep_block[tl] = rblock;
            retire_sep[tl].observe(rblock);
        }
    }

    Fig2Result res;
    res.workload = w.key();
    res.correctPathMisses = total_misses;
    const double denom =
        total_misses > 0 ? static_cast<double>(total_misses) : 1.0;
    res.missCoverage = static_cast<double>(cov_miss) / denom;
    res.accessCoverage = static_cast<double>(cov_access) / denom;
    res.retireCoverage = static_cast<double>(cov_retire) / denom;
    res.retireSepCoverage = static_cast<double>(cov_sep) / denom;
    return res;
}

Fig3Result
runFig3(const WorkloadRef &w, InstCount instrs)
{
    const Program prog = w.buildProgram();
    Executor exec(prog, w.executorConfig());
    // Wide window so the density distribution itself reveals the
    // useful geometry (up to 32 blocks as in the paper's buckets).
    RegionAnalyzer analyzer(4, 27);

    for (InstCount i = 0; i < instrs; ++i)
        analyzer.observe(exec.next().pc);
    analyzer.finish();

    Fig3Result res;
    res.workload = w.key();
    res.density = analyzer.density();
    res.groups = analyzer.groups();
    res.regions = analyzer.regions();
    return res;
}

Log2Histogram
runFig7(const WorkloadRef &w, InstCount instrs)
{
    const Program prog = w.buildProgram();
    Executor exec(prog, w.executorConfig());
    JumpDistanceStudy study;

    Addr last_block = invalidAddr;
    for (InstCount i = 0; i < instrs; ++i) {
        const RetiredInstr instr = exec.next();
        if (instr.trapLevel != 0)
            continue;  // application stream, as in Section 5.1
        const Addr b = blockAddr(instr.pc);
        if (b != last_block) {
            last_block = b;
            study.observe(b);
        }
    }
    study.finish();
    return study.histogram();
}

LinearHistogram
runFig8Left(const WorkloadRef &w, InstCount instrs)
{
    const Program prog = w.buildProgram();
    Executor exec(prog, w.executorConfig());
    RegionAnalyzer analyzer(4, 12);  // the figure's -4..+12 window

    for (InstCount i = 0; i < instrs; ++i)
        analyzer.observe(exec.next().pc);
    analyzer.finish();
    return analyzer.offsets();
}

FrontRecording
recordWorkload(const WorkloadRef &w, const ExperimentBudget &budget,
               const SystemConfig &cfg)
{
    const Program prog = w.buildProgram();
    return FrontRecording(cfg, prog, w.executorConfig(), budget.warmup,
                          budget.measure);
}

Fig8RightPoint
runFig8Right(const FrontRecording &rec, const RegionGeometry &g,
             const SystemConfig &cfg)
{
    SystemConfig c = cfg;
    c.pif.blocksBefore = g.before;
    c.pif.blocksAfter = g.after;
    auto pif = std::make_unique<PifPrefetcher>(c.pif, false);
    PifPrefetcher *pif_raw = pif.get();
    TraceEngine engine(c, rec, std::move(pif));
    engine.run(rec.warmup(), rec.measure());

    Fig8RightPoint p;
    p.regionBlocks = g.total;
    p.tl0Coverage = pif_raw->coverage(0);
    p.tl1Coverage = pif_raw->coverage(1);
    return p;
}

Log2Histogram
runFig9Left(const WorkloadRef &w, InstCount instrs)
{
    const Program prog = w.buildProgram();
    Executor exec(prog, w.executorConfig());

    // Compact the retire stream into spatial regions first: stream
    // lengths are measured in regions, matching the figure's axis.
    SpatialCompactor spatial(2, 5);
    TemporalCompactor temporal(4);
    StreamLengthStudy study;

    for (InstCount i = 0; i < instrs; ++i) {
        const RetiredInstr instr = exec.next();
        if (auto rec = spatial.observe(instr.pc, true, instr.trapLevel)) {
            if (temporal.admit(*rec))
                study.observe(rec->triggerPc);
        }
    }
    study.finish();
    return study.histogram();
}

double
runFig9Right(const FrontRecording &rec, std::uint64_t history_regions,
             const SystemConfig &cfg)
{
    SystemConfig c = cfg;
    c.pif.historyRegions = history_regions;
    auto pif = std::make_unique<PifPrefetcher>(c.pif, false);
    PifPrefetcher *pif_raw = pif.get();
    TraceEngine engine(c, rec, std::move(pif));
    engine.run(rec.warmup(), rec.measure());
    return pif_raw->coverage();
}

std::uint64_t
runFig10Coverage(const FrontRecording &rec, PrefetcherKind kind,
                 const SystemConfig &cfg)
{
    // Section 5.5 compares without storage limitations.
    TraceEngine engine(cfg, rec, makePrefetcher(kind, cfg, true));
    return engine.run(rec.warmup(), rec.measure()).misses;
}

double
missCoverage(std::uint64_t baseline, std::uint64_t remaining)
{
    if (baseline == 0)
        return 0.0;
    return std::max(0.0, 1.0 - static_cast<double>(remaining) /
                                   static_cast<double>(baseline));
}

double
runFig10Speedup(const FrontRecording &rec, PrefetcherKind kind,
                const SystemConfig &cfg)
{
    CycleEngine engine(cfg, rec, kind);
    return engine.run(rec.warmup(), rec.measure()).uipc;
}

} // namespace pifetch
