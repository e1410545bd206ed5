/**
 * @file
 * Perf kernel implementations.
 *
 * Kernel state (programs, engines, pre-generated streams) is built
 * once per kernel invocation, outside the timed region; repetitions
 * then run back to back under measureKernel's protocol. Engines keep
 * their state across repetitions — that matches steady-state replay,
 * which is the regime the ROADMAP's throughput goal cares about.
 */

#include "perf/kernels.hh"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "cache/hierarchy.hh"
#include "pif/pif_prefetcher.hh"
#include "sim/multicore.hh"
#include "sim/registry.hh"
#include "sim/trace_engine.hh"
#include "sim/workloads.hh"
#include "trace/trace_io.hh"

namespace pifetch {

namespace {

/** Scale a base op count, keeping at least one op. */
std::uint64_t
scaled(std::uint64_t base, double scale)
{
    const double v = static_cast<double>(base) * scale;
    return v < 1.0 ? 1 : static_cast<std::uint64_t>(v);
}

/** Pre-generate @p n retire-order records for @p opts' workload. */
std::vector<RetiredInstr>
generateStream(const PerfOptions &opts, std::uint64_t n)
{
    const Program prog = buildWorkloadProgram(opts.workload);
    ExecutorConfig ecfg = executorConfigFor(opts.workload);
    ecfg.seed ^= opts.seed;
    Executor exec(prog, ecfg);
    std::vector<RetiredInstr> records;
    records.reserve(n);
    exec.run(n, [&](const RetiredInstr &r) { records.push_back(r); });
    return records;
}

// -------------------------------------------------- trace-decode-soa

KernelTiming
runTraceDecodeSoa(const PerfOptions &opts)
{
    const std::uint64_t n = scaled(512 * 1024, opts.scale);
    const std::vector<RetiredInstr> records = generateStream(opts, n);

    const std::string path =
        (std::filesystem::temp_directory_path() /
         ("pifetch-perf-" + std::to_string(::getpid()) + "-soa.trace"))
            .string();
    TraceWriter writer;
    if (writer.open(path))
        for (const RetiredInstr &r : records)
            writer.add(r);
    if (!writer.finish())
        fatalError("perf: cannot write scratch trace: " + writer.error());
    const std::uint64_t bytes = std::filesystem::file_size(path);

    RecordBatch batch;
    KernelTiming t = measureKernel(
        "trace-decode-soa", opts.protocol, n, bytes, [&] {
            TraceBatchReader reader;
            if (!reader.open(path))
                fatalError("perf: cannot reopen scratch trace " + path);
            std::uint64_t seen = 0;
            while (reader.next(batch))
                seen += batch.size;
            if (seen != n || reader.failed())
                fatalError("perf: SoA trace decode failed mid-benchmark");
        });
    std::remove(path.c_str());
    return t;
}

// ------------------------------------------------------ trace-replay

KernelTiming
runTraceReplay(const PerfOptions &opts)
{
    const std::uint64_t instrs = scaled(400 * 1024, opts.scale);
    SystemConfig cfg;
    cfg.seed = opts.seed;
    const Program prog = buildWorkloadProgram(opts.workload);
    TraceEngine engine(cfg, prog, executorConfigFor(opts.workload),
                       std::make_unique<PifPrefetcher>(cfg.pif));
    // Prime predictors and the L1-I so repetitions measure
    // steady-state replay, not cold-start ramp.
    engine.advance(scaled(100 * 1024, opts.scale));
    return measureKernel("trace-replay", opts.protocol, instrs,
                         instrs * instrBytes,
                         [&] { engine.advance(instrs); });
}

// ---------------------------------------------------- replay-batched

KernelTiming
runReplayBatched(const PerfOptions &opts)
{
    const std::uint64_t instrs = scaled(400 * 1024, opts.scale);
    const std::vector<RetiredInstr> records =
        generateStream(opts, instrs);

    // Pre-pack the stream into SoA batches so the timed region
    // measures the batched pipeline itself (replayBatch), with decode
    // taken out of the loop — the executor-integrated counterpart is
    // trace-replay.
    std::vector<RecordBatch> batches;
    batches.reserve(instrs / recordBatchLen + 1);
    std::size_t pos = 0;
    while (pos < records.size()) {
        RecordBatch b;
        b.reserve(recordBatchLen);
        const std::size_t n =
            std::min<std::size_t>(recordBatchLen, records.size() - pos);
        for (std::size_t i = 0; i < n; ++i)
            b.push(records[pos + i]);
        b.computeBlocks();
        batches.push_back(std::move(b));
        pos += n;
    }

    SystemConfig cfg;
    cfg.seed = opts.seed;
    const Program prog = buildWorkloadProgram(opts.workload);
    TraceEngine engine(cfg, prog, executorConfigFor(opts.workload),
                       std::make_unique<PifPrefetcher>(cfg.pif));
    // Prime predictors and the L1-I with one untimed pass.
    for (const RecordBatch &b : batches)
        engine.replayBatch(b);
    return measureKernel("replay-batched", opts.protocol, instrs,
                         instrs * instrBytes, [&] {
                             for (const RecordBatch &b : batches)
                                 engine.replayBatch(b);
                         });
}

// --------------------------------------------------------- pif-train

KernelTiming
runPifTrain(const PerfOptions &opts)
{
    const std::uint64_t n = scaled(600 * 1024, opts.scale);
    const std::vector<RetiredInstr> records = generateStream(opts, n);

    SystemConfig cfg;
    cfg.seed = opts.seed;
    PifPrefetcher pif(cfg.pif);
    std::vector<Addr> drain;
    drain.reserve(16);

    // Drive the prefetcher exactly as the engine does, minus the
    // front-end and cache: a fetch access per block transition, a
    // retire per record, a bounded drain per step.
    return measureKernel("pif-train", opts.protocol, n, 0, [&] {
        Addr cur_block = invalidAddr;
        for (const RetiredInstr &r : records) {
            const Addr block = blockAddr(r.pc);
            if (block != cur_block) {
                FetchInfo info;
                info.block = block;
                info.pc = r.pc;
                info.hit = true;
                info.trapLevel = r.trapLevel;
                pif.onFetchAccess(info);
                cur_block = block;
            }
            pif.onRetire(r, true);
            drain.clear();
            pif.drainRequests(drain, 16);
        }
    });
}

// ------------------------------------------------------ cache-lookup

KernelTiming
runCacheLookup(const PerfOptions &opts)
{
    const std::uint64_t n = scaled(1024 * 1024, opts.scale);

    // The fetch-block sequence of the workload: one entry per block
    // transition of the retire stream.
    const Program prog = buildWorkloadProgram(opts.workload);
    ExecutorConfig ecfg = executorConfigFor(opts.workload);
    ecfg.seed ^= opts.seed;
    Executor exec(prog, ecfg);
    std::vector<Addr> blocks;
    blocks.reserve(n);
    Addr prev = invalidAddr;
    while (blocks.size() < n) {
        const Addr b = blockAddr(exec.next().pc);
        if (b != prev) {
            blocks.push_back(b);
            prev = b;
        }
    }

    SystemConfig cfg;
    Cache l1i(cfg.l1i, ReplacementKind::LRU, opts.seed);
    MemoryHierarchy hierarchy(cfg.memory);
    return measureKernel("cache-lookup", opts.protocol, n,
                         n * blockBytes, [&] {
                             for (Addr b : blocks) {
                                 if (!l1i.access(b).hit) {
                                     hierarchy.request(b);
                                     l1i.fill(b, false);
                                 }
                             }
                         });
}

// -------------------------------------------- fig10 multicore fan-out

KernelTiming
runMulticoreFanout(const PerfOptions &opts, unsigned threads)
{
    constexpr unsigned cores = 4;
    const InstCount warmup = scaled(40 * 1024, opts.scale);
    const InstCount measure = scaled(120 * 1024, opts.scale);
    SystemConfig cfg;
    cfg.seed = opts.seed;
    cfg.threads = threads;
    const std::uint64_t ops = cores * (warmup + measure);
    return measureKernel(
        "fig10-multicore-t" + std::to_string(threads), opts.protocol,
        ops, 0, [&, warmup, measure] {
            const MulticoreTraceResult res = runMulticoreTrace(
                opts.workload, PrefetcherKind::Pif, cores, warmup,
                measure, cfg);
            if (res.perCore.size() != cores)
                fatalError("perf: multicore fan-out lost cores");
        });
}

} // namespace

const std::vector<PerfKernelSpec> &
perfKernels()
{
    static const std::vector<PerfKernelSpec> kernels = {
        {"trace-decode-soa",
         "streamed trace decode into SoA record batches",
         runTraceDecodeSoa},
        {"trace-replay",
         "functional engine + PIF steady-state replay (instrs/sec)",
         runTraceReplay},
        {"replay-batched",
         "batched pipeline on pre-decoded SoA batches (instrs/sec)",
         runReplayBatched},
        {"pif-train",
         "PIF train+predict on a pre-generated retire stream",
         runPifTrain},
        {"cache-lookup",
         "L1-I access / L2 fill loop on the fetch-block stream",
         runCacheLookup},
        {"fig10-multicore-t1",
         "4-core Figure 10 trace fan-out on 1 worker",
         [](const PerfOptions &o) { return runMulticoreFanout(o, 1); }},
        {"fig10-multicore-t2",
         "4-core Figure 10 trace fan-out on 2 workers",
         [](const PerfOptions &o) { return runMulticoreFanout(o, 2); }},
        {"fig10-multicore-t4",
         "4-core Figure 10 trace fan-out on 4 workers",
         [](const PerfOptions &o) { return runMulticoreFanout(o, 4); }},
    };
    return kernels;
}

const PerfKernelSpec *
findPerfKernel(const std::string &name)
{
    for (const PerfKernelSpec &k : perfKernels()) {
        if (k.name == name)
            return &k;
    }
    return nullptr;
}

ResultValue
runPerfSuite(const PerfOptions &opts)
{
    // The CLI validates too, but the library surface must not let a
    // non-finite or huge scale reach the uint64 op-count cast (UB).
    if (!(opts.scale > 0.0) || !(opts.scale <= 1e6))
        fatalError("perf: scale must be in (0, 1e6]");

    std::vector<const PerfKernelSpec *> selected;
    if (opts.kernels.empty()) {
        for (const PerfKernelSpec &k : perfKernels())
            selected.push_back(&k);
    } else {
        for (const std::string &name : opts.kernels) {
            const PerfKernelSpec *k = findPerfKernel(name);
            if (!k)
                fatalError("perf: unknown kernel '" + name + "'");
            selected.push_back(k);
        }
    }

    ResultValue kernels = ResultValue::array();
    ResultValue table = makeTable(
        "Kernel throughput (median of repeats)",
        {"kernel", "ops", "reps", "median_ms", "mops_per_sec",
         "mbytes_per_sec"});
    ResultValue &rows = *table.find("rows");
    for (const PerfKernelSpec *spec : selected) {
        const KernelTiming t = spec->run(opts);
        ResultValue row = ResultValue::array();
        row.push(t.name);
        row.push(t.opsPerRep);
        row.push(t.protocol.reps);
        row.push(t.medianSeconds() * 1e3);
        row.push(t.opsPerSec() / 1e6);
        row.push(t.bytesPerSec() / 1e6);
        rows.push(std::move(row));
        kernels.push(toResult(t));
    }

    ResultValue meta = ResultValue::object();
    meta.set("git", gitDescribe());
    meta.set("reps", opts.protocol.reps);
    meta.set("warmup_reps", opts.protocol.warmupReps);
    meta.set("scale", opts.scale);
    meta.set("workload", workloadKey(opts.workload));
    meta.set("seed", opts.seed);

    ResultValue doc = ResultValue::object();
    doc.set("experiment", "perf");
    doc.set("description",
            "Wall-clock throughput of the simulator's hot kernels");
    doc.set("meta", std::move(meta));
    doc.set("kernels", std::move(kernels));
    doc.set("tables", ResultValue::array().push(std::move(table)));
    return doc;
}

} // namespace pifetch
