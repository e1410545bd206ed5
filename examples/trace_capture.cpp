/**
 * @file
 * Trace capture and replay through the trace-file API.
 *
 * Captures a retire-order trace of a workload to disk with
 * TraceWriter, streams it back with TraceBatchReader, and drives PIF's
 * recording pipeline directly from the file — the workflow a user with
 * real hardware traces would follow.
 */

#include <chrono>
#include <cstdio>

#include "pif/pif_prefetcher.hh"
#include "sim/workloads.hh"
#include "trace/trace_io.hh"

using namespace pifetch;

int
main()
{
    const ServerWorkload w = ServerWorkload::WebApache;
    const Program prog = buildWorkloadProgram(w);
    Executor exec(prog, executorConfigFor(w));

    // 1. Capture one million retired instructions straight to disk.
    const std::string path = "/tmp/pifetch_apache.trace";
    // lint:allow(D-clock): demo prints wall-clock I/O timing, not results
    auto t0 = std::chrono::steady_clock::now();
    TraceWriter writer;
    if (writer.open(path))
        exec.run(1'000'000, [&](const RetiredInstr &r) { writer.add(r); });
    if (!writer.finish()) {
        std::fprintf(stderr, "failed to write %s: %s\n", path.c_str(),
                     writer.error().c_str());
        return 1;
    }
    auto elapsed_ms = [&t0] {
        return std::chrono::duration<double, std::milli>(
            // lint:allow(D-clock): demo prints wall-clock I/O timing
            std::chrono::steady_clock::now() - t0).count();
    };
    std::printf("captured %llu instructions to %s in %.1f ms "
                "(chunked writer)\n",
                static_cast<unsigned long long>(writer.count()),
                path.c_str(), elapsed_ms());

    // 2. Stream it back in record batches and feed PIF's recording
    // path, reporting the compaction it achieves (Section 3's storage
    // argument).
    PifConfig pc;
    PifPrefetcher pif(pc);
    std::uint64_t block_accesses = 0;
    Addr last_block = invalidAddr;
    TraceBatchReader reader;
    RecordBatch batch;
    // lint:allow(D-clock): demo prints wall-clock I/O timing, not results
    t0 = std::chrono::steady_clock::now();
    if (!reader.open(path)) {
        std::fprintf(stderr, "cannot reopen %s\n", path.c_str());
        return 1;
    }
    while (reader.next(batch)) {
        for (std::uint32_t i = 0; i < batch.size; ++i) {
            if (batch.block[i] != last_block) {
                last_block = batch.block[i];
                ++block_accesses;
            }
            pif.onRetire(batch.get(i), true);
        }
    }
    if (reader.failed() || reader.decoded() != writer.count()) {
        std::fprintf(stderr, "trace read-back failed\n");
        return 1;
    }
    std::printf("read back and trained on %llu instructions in %.1f ms\n",
                static_cast<unsigned long long>(reader.decoded()),
                elapsed_ms());

    const std::uint64_t regions = pif.regionsRecorded();
    std::printf("\nblock-granularity accesses: %llu\n",
                static_cast<unsigned long long>(block_accesses));
    std::printf("history records after compaction: %llu "
                "(%.2fx reduction)\n",
                static_cast<unsigned long long>(regions),
                regions == 0 ? 0.0
                             : static_cast<double>(block_accesses) /
                               static_cast<double>(regions));
    return 0;
}
