/**
 * @file
 * simbench: end-to-end and per-layer benchmark of the pifetch
 * simulator (usually driven by perfbench/run.py; see README.md).
 *
 *   simbench --workload repro|replay|fuzz --seed N --seconds S
 *            --trace 0|1 [--root DIR] [--golden-dir DIR]
 *            [--inject-fault KEY] [--source-id ID]
 *            [--repro-budget WARMUP:MEASURE]
 *
 * A run sets its workload up, checks correctness before timing
 * (goldens, engine identities, fuzz oracles, one untimed warm-up
 * pass), then runs closed-loop passes for the given seconds on
 * min(4, nproc) lanes, setting the workload up again before each
 * (setup_s is the median of those set-ups). Untraced runs report the
 * end-to-end metrics; traced runs alternate untraced and traced
 * passes, run the engine-layer probes, report the per-layer metrics
 * and write the spans as Chrome trace-event JSON. Records and traces
 * go to <root>/.bench_out. The last line of stdout is one JSON object
 * {correct, attempted, failed, metrics}; the exit status is 0 only
 * when every check passed.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/results.hh"
#include "probes.hh"
#include "sim/registry.hh"
#include "tracer.hh"
#include "workloads.hh"

#ifndef SIMBENCH_BUILD_TYPE
#define SIMBENCH_BUILD_TYPE "unknown"
#endif

using namespace simbench;

namespace {

void
usage()
{
    std::fprintf(stderr,
                 "usage: simbench --workload repro|replay|fuzz --seed N "
                 "--seconds S --trace 0|1 [--root DIR] [--golden-dir DIR] "
                 "[--inject-fault KEY] [--source-id ID] "
                 "[--repro-budget WARMUP:MEASURE]\n");
}

bool
parseArgs(int argc, char **argv, Options &o)
{
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            return false;
        const std::string v = argv[++i];
        char *end = nullptr;
        if (a == "--workload") {
            o.workload = v;
        } else if (a == "--seed") {
            o.seed = std::strtoull(v.c_str(), &end, 10);
        } else if (a == "--seconds") {
            o.seconds = std::strtod(v.c_str(), &end);
        } else if (a == "--trace") {
            o.trace = v == "1";
            if (v != "0" && v != "1")
                return false;
        } else if (a == "--root") {
            o.root = v;
        } else if (a == "--golden-dir") {
            o.goldenDir = v;
        } else if (a == "--inject-fault") {
            o.fault = v;
        } else if (a == "--source-id") {
            o.sourceId = v;
        } else if (a == "--repro-budget") {
            o.reproWarmup = std::strtoull(v.c_str(), &end, 10);
            if (*end != ':')
                return false;
            o.reproMeasure = std::strtoull(end + 1, &end, 10);
            if (o.reproMeasure == 0)
                return false;
        } else {
            return false;
        }
        if (end && *end != '\0')
            return false;
    }
    return !o.workload.empty() && o.seconds > 0.0;
}

std::string
cpuModel()
{
    std::ifstream is("/proc/cpuinfo");
    std::string line;
    while (std::getline(is, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

constexpr const char *compilerName =
#if defined(__clang__)
    "clang " __VERSION__;
#elif defined(__GNUC__)
    "gcc " __VERSION__;
#else
    __VERSION__;
#endif

std::string
hex(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** Closed-loop pass samples. */
struct Samples
{
    std::vector<double> setup;  //!< the set-up before each pass
    std::vector<double> wall;
    std::vector<double> cpu;
    std::vector<double> instrs;
    std::vector<double> rss;  //!< peak resident set, MiB
};

pifetch::ResultValue
toArray(const std::vector<double> &v)
{
    pifetch::ResultValue a = pifetch::ResultValue::array();
    for (double x : v)
        a.push(x);
    return a;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    opts.lanes = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
    if (!parseArgs(argc, argv, opts)) {
        usage();
        return 2;
    }
    std::unique_ptr<Workload> wl = makeWorkload(opts);
    if (!wl) {
        std::fprintf(stderr, "simbench: unknown workload '%s'\n",
                     opts.workload.c_str());
        return 2;
    }
    const std::string out_dir = opts.root + "/.bench_out";
    std::error_code ec;
    std::filesystem::create_directories(out_dir, ec);

    const std::string tag = opts.workload + "-s" + std::to_string(opts.seed) +
                            "-t" + (opts.trace ? "1" : "0");
    std::printf("simbench: workload=%s seed=%llu seconds=%g trace=%d "
                "lanes=%u\n",
                opts.workload.c_str(),
                static_cast<unsigned long long>(opts.seed), opts.seconds,
                opts.trace ? 1 : 0, wl->lanes());

    Tracer tracer;
    Tracer *tr = opts.trace ? &tracer : nullptr;
    Checks checks;

    // Set-up for the gate and the warm-up pass. The timed set-ups come
    // later, one before every pass.
    {
        Scope s(tr, "bench.setup");
        wl->setup(tr);
    }

    // Provenance: numbers from different hosts or builds never compare.
    using pifetch::ResultValue;
    ResultValue provenance = ResultValue::object();
    provenance.set("source", opts.sourceId);
    provenance.set("git_describe_at_configure", pifetch::gitDescribe());
    provenance.set("compiler", compilerName);
    provenance.set("build_type", SIMBENCH_BUILD_TYPE);
    provenance.set("nproc", std::thread::hardware_concurrency());
    provenance.set("lanes", wl->lanes());
    provenance.set("cpu_model", cpuModel());
    provenance.set("workload", opts.workload);
    provenance.set("seed", opts.seed);
    wl->describe(provenance);
    std::printf("provenance %s\n", pifetch::toJson(provenance, 0).c_str());
    std::fflush(stdout);

    // Correctness before timing, then one untimed warm-up pass whose
    // digest every timed pass must reproduce.
    {
        Scope s(tr, "bench.gate");
        wl->gate(checks);
    }
    std::uint64_t digest = 0;
    {
        Scope s(tr, "bench.warmup_pass");
        wl->prepare();
        digest = wl->pass(nullptr, checks);
    }

    // Per-pass peak resident set: reset the high-water mark before each
    // pass where the kernel allows it, else fall back to the whole run.
    const bool per_pass_rss = resetPeakRss();
    const auto runPass = [&](Tracer *t, Samples &out) {
        // Set up again before every pass, so setup_s samples the same
        // stretch of host time as wall_s: on a shared host one thread's
        // speed can swing by half within seconds, and set-up runs on
        // one thread.
        {
            Scope s(t, "bench.setup");
            const std::int64_t t0 = nowNs();
            wl->setup(t);
            out.setup.push_back(static_cast<double>(nowNs() - t0) * 1e-9);
        }
        if (per_pass_rss)
            resetPeakRss();
        wl->prepare();
        std::uint64_t d = 0;
        const double c0 = processCpuSeconds();
        const std::int64_t t0 = nowNs();
        {
            Scope s(t, "bench.pass", true);
            d = wl->pass(t, checks);
        }
        const std::int64_t t1 = nowNs();
        const double c1 = processCpuSeconds();
        out.wall.push_back(static_cast<double>(t1 - t0) * 1e-9);
        out.cpu.push_back(c1 - c0);
        out.instrs.push_back(static_cast<double>(wl->passInstrs()));
        out.rss.push_back(peakRssMiB());
        checks.expect(d == digest,
                      "simulated-statistics digest changed between passes");
    };

    // Closed loop for the given seconds. A traced run alternates
    // untraced and traced passes, so host drift cannot masquerade as
    // tracing overhead.
    Samples plain;
    Samples traced;
    std::vector<Metric> layers;
    const std::int64_t start = nowNs();
    do {
        runPass(nullptr, plain);
        if (opts.trace)
            runPass(tr, traced);
    } while (static_cast<double>(nowNs() - start) * 1e-9 < opts.seconds);
    if (opts.trace) {
        {
            Scope s(tr, "bench.probes");
            runProbes(wl->probeInputs(), tracer, layers);
        }
        const auto totals = tracer.totals();
        const auto b = totals.find("trace.generator.build");
        layers.push_back(
            {"trace.generator.ms_per_program",
             b != totals.end() && b->second.count > 0
                 ? b->second.totalNs * 1e-6 /
                       static_cast<double>(b->second.count)
                 : 0.0,
             "ms"});
        // The registry and checker layers: this workload's own traced
        // passes, or one traced pass of the workload that enters them.
        for (const char *other : {"repro", "fuzz"}) {
            if (opts.workload == other)
                continue;
            Options o = opts;
            o.workload = other;
            const std::unique_ptr<Workload> ow = makeWorkload(o);
            ow->setup(nullptr);
            ow->prepare();
            Scope s(tr, std::string("bench.layer_pass.") + other);
            ow->pass(tr, checks);
            ow->layerMetrics(tracer, layers);
        }
        wl->layerMetrics(tracer, layers);
        const double pw = median(plain.wall);
        layers.push_back({"bench.trace_overhead_frac",
                          pw > 0 ? median(traced.wall) / pw - 1.0 : 0.0,
                          "frac"});
        double wall = 0.0;
        double cpu = 0.0;
        for (std::size_t i = 0; i < traced.wall.size(); ++i) {
            wall += traced.wall[i];
            cpu += traced.cpu[i];
        }
        layers.push_back({"common.parallel.lane_util",
                          wall > 0 ? cpu / (wall * wl->lanes()) : 0.0,
                          "frac"});
    }

    // --------------------------------------------------------- report
    ResultValue metrics = ResultValue::object();
    const auto emit = [&](const std::string &name, double value,
                          const std::string &unit, const char *kind) {
        std::printf("%s %s %.6g %s\n", kind, name.c_str(), value,
                    unit.c_str());
        metrics.set(name, ResultValue::object()
                              .set("value", value)
                              .set("unit", unit));
    };

    std::vector<double> rates;
    for (std::size_t i = 0; i < plain.wall.size(); ++i)
        rates.push_back(plain.instrs[i] / plain.wall[i] / 1e6);
    const double instr_rate = median(rates);
    if (!opts.trace) {
        emit("wall_s", median(plain.wall), "s", "metric");
        emit("cpu_s", median(plain.cpu), "s", "metric");
        emit("setup_s", median(plain.setup), "s", "metric");
        emit("peak_rss_mb", median(plain.rss), "MiB", "metric");
    } else {
        for (const Metric &m : layers)
            emit(m.name, m.value, m.unit, "layer");
    }
    if (instr_rate > 0.0)
        std::printf("info sim_minstr_per_s %.6g Minstr/s (median over %zu "
                    "passes)\n",
                    instr_rate, plain.wall.size());
    std::printf("info passes %zu timed%s, each after its own set-up\n",
                plain.wall.size(),
                opts.trace ? (" + " + std::to_string(traced.wall.size()) +
                              " traced").c_str()
                           : "");
    std::printf("info fail_frac %.6g (%llu of %llu checks failed)\n",
                checks.attempted ? static_cast<double>(checks.failed) /
                                       static_cast<double>(checks.attempted)
                                 : 0.0,
                static_cast<unsigned long long>(checks.failed),
                static_cast<unsigned long long>(checks.attempted));
    for (const std::string &m : checks.messages)
        std::printf("FAIL %s\n", m.c_str());
    std::printf("digest %s %s over %zu passes (simulated statistics of a "
                "model not validated against hardware; no error figure)\n",
                opts.workload.c_str(), hex(digest).c_str(),
                plain.wall.size() + traced.wall.size() + 1);

    std::string trace_path;
    if (opts.trace) {
        trace_path = out_dir + "/" + tag + ".trace.json";
        const auto totals = tracer.totals();
        std::vector<std::pair<double, std::string>> by_self;
        for (const auto &[name, t] : totals)
            by_self.emplace_back(t.selfNs, name);
        std::sort(by_self.rbegin(), by_self.rend());
        for (std::size_t i = 0; i < by_self.size() && i < 12; ++i) {
            const SpanTotals &t = totals.at(by_self[i].second);
            std::printf("span %-34s n=%-7llu total_ms=%.3f self_ms=%.3f\n",
                        by_self[i].second.c_str(),
                        static_cast<unsigned long long>(t.count),
                        t.totalNs * 1e-6, t.selfNs * 1e-6);
        }
        if (!tracer.writeChromeTrace(trace_path, "simbench " + tag)) {
            checks.expect(false, "cannot write " + trace_path);
            trace_path.clear();
        } else {
            std::printf("trace %s (open in ui.perfetto.dev)\n",
                        trace_path.c_str());
        }
    }

    // The run record: everything above, for later comparison.
    {
        ResultValue rec = ResultValue::object();
        rec.set("provenance", provenance);
        rec.set("digest", hex(digest));
        rec.set("setup_s", toArray(plain.setup));
        rec.set("pass_wall_s", toArray(plain.wall));
        rec.set("pass_cpu_s", toArray(plain.cpu));
        rec.set("pass_peak_rss_mb", toArray(plain.rss));
        rec.set("traced_pass_wall_s", toArray(traced.wall));
        rec.set("attempted", checks.attempted);
        rec.set("failed", checks.failed);
        ResultValue fails = ResultValue::array();
        for (const std::string &m : checks.messages)
            fails.push(m);
        rec.set("failures", std::move(fails));
        rec.set("metrics", metrics);
        if (!trace_path.empty())
            rec.set("trace", trace_path);
        const std::string path = out_dir + "/" + tag + ".json";
        std::ofstream os(path);
        os << pifetch::toJson(rec, 2) << "\n";
        if (os)
            std::printf("record %s\n", path.c_str());
    }

    ResultValue result = ResultValue::object();
    result.set("correct", checks.failed == 0);
    result.set("attempted", checks.attempted);
    result.set("failed", checks.failed);
    result.set("metrics", std::move(metrics));
    std::printf("%s\n", pifetch::toJson(result, 0).c_str());
    return checks.failed == 0 ? 0 : 1;
}
