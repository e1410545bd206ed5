/**
 * @file
 * pifetch: the unified experiment CLI over the registry.
 *
 * Commands:
 *   pifetch list
 *       Enumerate every registered experiment.
 *   pifetch run <experiment> [options]
 *       Run one experiment; print the human report and optionally
 *       write structured output.
 *   pifetch sweep <experiment> --param key=v1,v2[,...] [options]
 *       Run a parameter grid (cartesian product; one experiment run
 *       per point, the points fanned over the worker pool).
 *   pifetch golden [--list | <experiment>]
 *       Canonical golden-fixture JSON (see scripts/regold.sh).
 *   pifetch check [options]
 *       Fuzz randomized scenarios through the differential and
 *       metamorphic oracle battery (docs/validation.md); failing
 *       scenarios shrink to a minimal replayable JSON repro.
 *   pifetch query [options]
 *       Record one run into the columnar event store (or reload a
 *       saved event dump) and answer select/where/group-by/window
 *       queries over it without re-simulating (docs/query.md).
 *   pifetch lint [paths...] [options]
 *       Run the project static-analysis rules (docs/linting.md)
 *       over the source tree and report violations as canonical
 *       JSON; exits 1 on any unsuppressed error.
 *
 * Options (run and sweep):
 *   --workload W       restrict to workload W (repeatable);
 *                      a server preset (db2|oracle|qry2|qry17|
 *                      apache|zeus or 0..5) or a workload-zoo spec
 *                      name (see `pifetch list`)
 *   --workload-file F  load a JSON workload spec file (repeatable);
 *                      see docs/workloads.md for the schema
 *   --json FILE|-      write the result document as JSON
 *                      ("-" = stdout, which suppresses the report)
 *   --csv FILE|-       write the result tables as CSV
 *   --threads N        worker threads (0 = auto / PIFETCH_THREADS)
 *   --warmup N         warmup instructions
 *   --measure N        measured instructions
 *   --seed N           master seed
 *   --set key=value    configuration override (repeatable);
 *                      see `pifetch list` for the supported keys
 *   --quiet            suppress the human-readable report
 *
 * The JSON document layout is documented in docs/cli.md and
 * src/sim/registry.hh.
 */

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "check/checker.hh"
#include "lint/driver.hh"
#include "query/event_store.hh"
#include "query/query.hh"
#include "sim/cycle_engine.hh"
#include "sim/registry.hh"
#include "sim/trace_engine.hh"

using namespace pifetch;

namespace {

int
usage(std::FILE *out)
{
    std::fputs(
        "usage: pifetch <command> [options]\n"
        "\n"
        "commands:\n"
        "  list                      enumerate registered experiments\n"
        "  run <experiment>          run one experiment\n"
        "  sweep <experiment> --param key=v1,v2,...\n"
        "                            run a parameter grid\n"
        "  golden [--list|<exp>]     emit canonical golden JSON\n"
        "  check [options]           fuzz + differential validation\n"
        "  query [options]           event-store recording + queries\n"
        "  lint [paths...] [options] project static-analysis rules\n"
        "  help                      this message\n"
        "\n"
        "run/sweep options:\n"
        "  --workload W   a server preset (db2|oracle|qry2|qry17|\n"
        "                 apache|zeus or 0..5) or a zoo spec name\n"
        "                 (repeatable; default: the experiment's set)\n"
        "  --workload-file F  load a JSON workload spec (repeatable;\n"
        "                 schema in docs/workloads.md)\n"
        "  --json FILE|-  write the JSON document (- = stdout,\n"
        "                 suppressing the human report)\n"
        "  --csv FILE|-   write the tables as CSV\n"
        "  --threads N    worker threads (0 = auto)\n"
        "  --warmup N     warmup instructions\n"
        "  --measure N    measured instructions\n"
        "  --seed N       master seed\n"
        "  --set k=v      config override (repeatable)\n"
        "  --quiet        no human-readable report\n"
        "\n"
        "check options:\n"
        "  --seeds N      scenarios to fuzz (default 25)\n"
        "  --seed N       first fuzz seed (default 1)\n"
        "  --replay-seed N  run exactly one fuzz seed\n"
        "  --replay FILE  run the scenario in a repro JSON file\n"
        "  --repro FILE   failing-scenario JSON path\n"
        "                 (default pifetch-check-repro.json)\n"
        "  --threads N    worker lanes over scenarios (0 = auto)\n"
        "  --no-shrink    keep failing scenarios unshrunk\n"
        "  --inject-fault K  deliberate break for self-tests\n"
        "                 (degree-miscount | coverage-drop |\n"
        "                 window-miscount)\n"
        "  --workload-file F  run every fuzzed scenario over this\n"
        "                 JSON workload spec\n"
        "  --json/--quiet as above\n"
        "\n"
        "query options:\n"
        "  --workload W   record one run of this workload (a preset\n"
        "                 or zoo spec name, as for run)\n"
        "  --workload-file F  record one run of this JSON spec\n"
        "  --load FILE    query a saved event dump instead of\n"
        "                 recording a run (see --dump)\n"
        "  --prefetcher K prefetcher for the recorded run (none |\n"
        "                 nextline | tifs | discontinuity | pif |\n"
        "                 perfect; default pif)\n"
        "  --engine E     trace | cycle (default trace)\n"
        "  --warmup N     warmup instructions (default 50000)\n"
        "  --measure N    recorded instructions (default 200000)\n"
        "  --seed N / --set k=v  as above\n"
        "  --window N     counter-sample stride in retired\n"
        "                 instructions (default 4096)\n"
        "  --retires      also record one slice per retired\n"
        "                 instruction (large!)\n"
        "  --max-slices N slice-row cap; excess rows are dropped\n"
        "                 and counted (default 2^22)\n"
        "  --dump FILE|-  write the store as a reloadable JSON\n"
        "                 event dump (schema pifetch-events-v1)\n"
        "  --query Q      run one query (repeatable); grammar in\n"
        "                 docs/query.md\n"
        "  --streams      emit the Fig. 2-style miss-stream-length\n"
        "                 table\n"
        "  --json/--csv/--quiet as above\n"
        "\n"
        "lint options:\n"
        "  paths...       repo-relative path prefixes to scan\n"
        "                 (default: src examples tests)\n"
        "  --rule ID      run only rule ID (repeatable)\n"
        "  --root DIR     repository root (default: the checkout\n"
        "                 this binary was built from)\n"
        "  --list-rules   print the rule catalog and exit\n"
        "  --self-test    replay every rule's planted-violation\n"
        "                 fixture and exit\n"
        "  --json/--quiet as above\n",
        out);
    return out == stderr ? 2 : 0;
}

struct CliOptions
{
    RunOptions run;
    std::string jsonPath;
    std::string csvPath;
    bool quiet = false;
    /** --seed or --set appeared (invalid for analysis-only specs). */
    bool configTouched = false;
    /** --warmup appeared (invalid for analysis-only specs too). */
    bool warmupTouched = false;
    /** sweep only: one axis per --param, in command-line order. */
    std::vector<SweepAxis> grid;
};

bool
parseU64Arg(const char *s, std::uint64_t &out)
{
    return parseU64Value(s, out);  // registry's strict parser
}

/** Every accepted --workload name: presets first, then the zoo. */
std::string
knownWorkloadNames()
{
    std::string out;
    for (ServerWorkload w : allServerWorkloads()) {
        if (!out.empty())
            out += ", ";
        out += workloadKey(w);
    }
    for (const WorkloadZooEntry &e : workloadZoo()) {
        if (!out.empty())
            out += ", ";
        out += e.key;
    }
    return out;
}

/** Every accepted --inject-fault name, in declaration order. */
std::string
knownFaultNames()
{
    std::string out;
    for (FaultInjection f : allFaultInjections()) {
        if (!out.empty())
            out += ", ";
        out += faultKey(f);
    }
    return out;
}

/**
 * Resolve a --workload name: server preset, else zoo spec key.
 * Prints its own diagnostic (with the full list of valid names for
 * the unknown-name case) and returns nullopt on failure.
 */
std::optional<WorkloadRef>
resolveWorkload(const char *name, const char *prog)
{
    if (const std::optional<ServerWorkload> w = workloadFromName(name))
        return WorkloadRef(*w);
    if (const auto entry = findZooEntry(name)) {
        std::string err;
        auto spec = loadWorkloadSpecFile(entry->path, &err);
        if (!spec) {
            std::fprintf(stderr, "%s: %s\n", prog, err.c_str());
            return std::nullopt;
        }
        return workloadRefFromSpec(std::move(*spec));
    }
    std::fprintf(stderr,
                 "%s: unknown workload '%s' (known: %s)\n", prog, name,
                 knownWorkloadNames().c_str());
    return std::nullopt;
}

/** Load a --workload-file spec (diagnostic printed on failure). */
std::optional<WorkloadRef>
loadWorkloadFile(const char *path, const char *prog)
{
    std::string err;
    auto spec = loadWorkloadSpecFile(path, &err);
    if (!spec) {
        std::fprintf(stderr, "%s: %s\n", prog, err.c_str());
        return std::nullopt;
    }
    return workloadRefFromSpec(std::move(*spec));
}

/** Parse run/sweep options from argv[from..). Returns false on error. */
bool
parseOptions(int argc, char **argv, int from, bool allow_param,
             CliOptions &opts)
{
    ExperimentBudget budget;
    bool budget_set = false;
    if (opts.run.budget) {
        budget = *opts.run.budget;
        budget_set = true;
    }

    for (int i = from; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "pifetch: %s needs a value\n",
                             arg.c_str());
                return nullptr;
            }
            return argv[++i];
        };

        const auto badValue = [&](const char *v) {
            std::fprintf(stderr,
                         "pifetch: bad value '%s' for %s\n",
                         v ? v : "<missing>", arg.c_str());
            return false;
        };

        if (arg == "--workload") {
            const char *v = next();
            if (!v)
                return false;
            const auto w = resolveWorkload(v, "pifetch");
            if (!w)
                return false;
            opts.run.workloads.push_back(*w);
        } else if (arg == "--workload-file") {
            const char *v = next();
            if (!v)
                return false;
            const auto w = loadWorkloadFile(v, "pifetch");
            if (!w)
                return false;
            opts.run.workloads.push_back(*w);
        } else if (arg == "--json") {
            const char *v = next();
            if (!v)
                return false;
            opts.jsonPath = v;
        } else if (arg == "--csv") {
            const char *v = next();
            if (!v)
                return false;
            opts.csvPath = v;
        } else if (arg == "--threads") {
            const char *v = next();
            if (!v || !applyConfigOverride(opts.run.cfg, "threads", v))
                return badValue(v);
        } else if (arg == "--warmup") {
            const char *v = next();
            std::uint64_t n = 0;
            if (!v || !parseU64Arg(v, n))
                return badValue(v);
            budget.warmup = n;
            budget_set = true;
            opts.warmupTouched = true;
        } else if (arg == "--measure") {
            const char *v = next();
            std::uint64_t n = 0;
            if (!v || !parseU64Arg(v, n))
                return badValue(v);
            budget.measure = n;
            budget_set = true;
        } else if (arg == "--seed") {
            const char *v = next();
            std::uint64_t n = 0;
            if (!v || !parseU64Arg(v, n))
                return badValue(v);
            opts.run.cfg.seed = n;
            opts.configTouched = true;
        } else if (arg == "--set") {
            const char *v = next();
            if (!v)
                return false;
            const char *eq = std::strchr(v, '=');
            if (!eq) {
                std::fprintf(stderr,
                             "pifetch: --set expects key=value\n");
                return false;
            }
            const std::string key(v, eq);
            if (!applyConfigOverride(opts.run.cfg, key, eq + 1)) {
                std::fprintf(stderr,
                             "pifetch: bad override '%s' (see "
                             "`pifetch list` for keys)\n", v);
                return false;
            }
            opts.configTouched = true;
        } else if (allow_param && arg == "--param") {
            const char *v = next();
            if (!v)
                return false;
            const char *eq = std::strchr(v, '=');
            if (!eq || eq[1] == '\0') {
                std::fprintf(stderr,
                             "pifetch: --param expects "
                             "key=v1,v2,...\n");
                return false;
            }
            std::vector<std::string> values;
            std::string cur;
            for (const char *p = eq + 1;; ++p) {
                if (*p == ',' || *p == '\0') {
                    values.push_back(cur);
                    cur.clear();
                    if (*p == '\0')
                        break;
                } else {
                    cur += *p;
                }
            }
            opts.grid.push_back(
                SweepAxis{std::string(v, eq), std::move(values)});
        } else if (arg == "--quiet") {
            opts.quiet = true;
        } else {
            std::fprintf(stderr, "pifetch: unknown option '%s'\n",
                         arg.c_str());
            return false;
        }
    }
    if (budget_set)
        opts.run.budget = budget;
    if (opts.jsonPath == "-" && opts.csvPath == "-") {
        std::fprintf(stderr,
                     "pifetch: --json - and --csv - would interleave "
                     "on stdout; write at least one to a file\n");
        return false;
    }
    return true;
}

/** Write @p text to @p path, or stdout when path is "-". */
bool
writeOutput(const std::string &path, const std::string &text)
{
    if (path == "-") {
        std::fputs(text.c_str(), stdout);
        return true;
    }
    std::ofstream os(path, std::ios::binary);
    os << text;
    os.close();
    if (!os) {
        std::fprintf(stderr, "pifetch: cannot write %s\n",
                     path.c_str());
        return false;
    }
    return true;
}

/** Human report wanted? Not when structured output owns stdout. */
bool
wantReport(const CliOptions &opts)
{
    return !opts.quiet && opts.jsonPath != "-" && opts.csvPath != "-";
}

bool
emitOutputs(const CliOptions &opts, const ResultValue &doc)
{
    if (wantReport(opts))
        std::fputs(renderText(doc).c_str(), stdout);
    if (!opts.jsonPath.empty() &&
        !writeOutput(opts.jsonPath, toJson(doc, 2) + "\n"))
        return false;
    if (!opts.csvPath.empty() && !writeOutput(opts.csvPath, toCsv(doc)))
        return false;
    return true;
}

int
cmdList(int argc, char **argv)
{
    if (argc > 2) {
        std::fprintf(stderr, "pifetch list: unexpected argument '%s'\n",
                     argv[2]);
        return 2;
    }
    std::printf("%-16s %s\n", "name", "description");
    for (const ExperimentSpec &spec : experimentRegistry())
        std::printf("%-16s %s\n", spec.name.c_str(),
                    spec.description.c_str());
    std::printf("\nworkloads (--workload):\n");
    for (ServerWorkload w : allServerWorkloads())
        std::printf("  %-22s %s (%s preset)\n", workloadKey(w).c_str(),
                    workloadName(w).c_str(), workloadGroup(w).c_str());
    const std::vector<WorkloadZooEntry> zoo = workloadZoo();
    for (const WorkloadZooEntry &e : zoo)
        std::printf("  %-22s %s%s%s\n", e.key.c_str(), e.title.c_str(),
                    e.description.empty() ? "" : " -- ",
                    e.description.c_str());
    if (zoo.empty()) {
        std::printf("  (no zoo specs found under %s)\n",
                    workloadZooDir().c_str());
    }
    std::printf("\nconfig override keys (--set / --param):\n ");
    for (const std::string &k : configOverrideKeys())
        std::printf(" %s", k.c_str());
    std::printf("\n");
    return 0;
}

int
cmdRun(int argc, char **argv)
{
    if (argc < 3) {
        std::fprintf(stderr, "pifetch run: missing experiment name\n");
        return 2;
    }
    const ExperimentSpec *spec = findExperiment(argv[2]);
    if (!spec) {
        std::fprintf(stderr,
                     "pifetch: unknown experiment '%s' "
                     "(try `pifetch list`)\n", argv[2]);
        return 2;
    }
    CliOptions opts;
    // Seed from the experiment's own defaults so a lone --warmup or
    // --measure adjusts one half without resetting the other.
    opts.run.budget = spec->defaultBudget;
    if (!parseOptions(argc, argv, 3, false, opts))
        return 2;
    if (!spec->usesConfig && (opts.configTouched || opts.warmupTouched)) {
        std::fprintf(stderr,
                     "pifetch: '%s' is an analysis-only study: one "
                     "pass of --measure instructions; "
                     "--seed/--set/--warmup have no effect on it\n",
                     spec->name.c_str());
        return 2;
    }
    if (const auto err = validateSystemConfig(opts.run.cfg)) {
        std::fprintf(stderr, "pifetch: %s\n", err->c_str());
        return 2;
    }
    const ResultValue doc = runExperiment(*spec, opts.run);
    return emitOutputs(opts, doc) ? 0 : 1;
}

/** Per-point report for an assembled sweep document. */
void
printSweepReport(const ResultValue &doc)
{
    const ResultValue *runs = doc.find("runs");
    if (!runs)
        return;
    for (std::size_t p = 0; p < runs->size(); ++p) {
        std::printf("--- point %zu/%zu:", p + 1, runs->size());
        const ResultValue *params = runs->at(p).find("params");
        for (std::size_t j = 0; params && j < params->size(); ++j) {
            const auto &[key, value] = params->member(j);
            std::printf(" %s=%s", key.c_str(), value.str().c_str());
        }
        std::printf(" ---\n");
        if (const ResultValue *result = runs->at(p).find("result"))
            std::fputs(renderText(*result).c_str(), stdout);
    }
}

int
cmdSweep(int argc, char **argv)
{
    if (argc < 3) {
        std::fprintf(stderr,
                     "pifetch sweep: missing experiment name\n");
        return 2;
    }
    const ExperimentSpec *spec = findExperiment(argv[2]);
    if (!spec) {
        std::fprintf(stderr,
                     "pifetch: unknown experiment '%s' "
                     "(try `pifetch list`)\n", argv[2]);
        return 2;
    }
    CliOptions opts;
    opts.run.budget = spec->defaultBudget;
    if (!parseOptions(argc, argv, 3, true, opts))
        return 2;
    if (opts.grid.empty()) {
        std::fprintf(stderr,
                     "pifetch sweep: need at least one --param\n");
        return 2;
    }
    if (!spec->usesConfig) {
        // Every sweepable parameter is a config override, and this
        // runner never reads the config — the grid would rerun the
        // identical study labeled as varied.
        std::fprintf(stderr,
                     "pifetch sweep: '%s' is an analysis-only study "
                     "that ignores configuration parameters\n",
                     spec->name.c_str());
        return 2;
    }
    if (!opts.csvPath.empty()) {
        std::fprintf(stderr,
                     "pifetch sweep: --csv is not supported; use "
                     "--json\n");
        return 2;
    }
    // Every point is checked up front, so a typo fails before hours
    // of simulation.
    if (const auto err = validateSweepGrid(opts.grid, opts.run.cfg)) {
        std::fprintf(stderr, "pifetch sweep: %s\n", err->c_str());
        return 2;
    }

    const ResultValue doc = runSweep(*spec, opts.run, opts.grid);
    if (wantReport(opts))
        printSweepReport(doc);
    if (!opts.jsonPath.empty() &&
        !writeOutput(opts.jsonPath, toJson(doc, 2) + "\n"))
        return 1;
    return 0;
}

int
cmdGolden(int argc, char **argv)
{
    if (argc < 3) {
        std::fprintf(stderr,
                     "pifetch golden: expected --list or a "
                     "fixture name\n");
        return 2;
    }
    if (argc > 3) {
        std::fprintf(stderr,
                     "pifetch golden: unexpected argument '%s'\n",
                     argv[3]);
        return 2;
    }
    if (std::strcmp(argv[2], "--list") == 0) {
        for (const GoldenEntry &e : goldenSuite())
            std::printf("%s\n", goldenFixtureName(e).c_str());
        return 0;
    }
    for (const GoldenEntry &e : goldenSuite()) {
        if (goldenFixtureName(e) == argv[2]) {
            std::fputs(goldenJson(e).c_str(), stdout);
            return 0;
        }
    }
    std::fprintf(stderr,
                 "pifetch golden: '%s' is not in the golden suite "
                 "(see --list)\n", argv[2]);
    return 2;
}

/** Print one failing scenario of a check report. */
void
printCheckFailure(const ScenarioReport &r)
{
    std::printf("FAIL seed %llu:\n",
                static_cast<unsigned long long>(r.scenario.seed));
    for (const CheckFailure &f : r.failures)
        std::printf("  [%s] %s\n", f.invariant.c_str(),
                    f.detail.c_str());
    if (r.shrunkValid) {
        std::printf("  shrunk in %u steps to: workload '%s', kind %s, "
                    "warmup %llu, measure %llu\n",
                    r.shrinkSteps, r.shrunk.params.name.c_str(),
                    prefetcherKey(r.shrunk.kind).c_str(),
                    static_cast<unsigned long long>(r.shrunk.warmup),
                    static_cast<unsigned long long>(r.shrunk.measure));
    }
}

int
cmdCheck(int argc, char **argv)
{
    CheckOptions opts;
    std::string jsonPath;
    std::string reproPath = "pifetch-check-repro.json";
    bool reproExplicit = false;
    std::string replayPath;
    bool haveReplaySeed = false;
    std::uint64_t replaySeed = 0;
    bool quiet = false;
    /** Last fuzz-only option seen, for the replay-conflict check. */
    std::string fuzzOnlyOption;

    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr,
                             "pifetch check: %s needs a value\n",
                             arg.c_str());
                return nullptr;
            }
            return argv[++i];
        };
        const auto badValue = [&](const char *v) {
            std::fprintf(stderr,
                         "pifetch check: bad value '%s' for %s\n",
                         v ? v : "<missing>", arg.c_str());
            return 2;
        };

        if (arg == "--seeds" || arg == "--seed" ||
            arg == "--replay-seed" || arg == "--threads") {
            const char *v = next();
            std::uint64_t n = 0;
            if (!v || !parseU64Arg(v, n))
                return badValue(v);
            if (arg == "--seeds") {
                if (n == 0 || n > 100'000) {
                    std::fprintf(stderr,
                                 "pifetch check: --seeds must be in "
                                 "1..100000\n");
                    return 2;
                }
                opts.seeds = static_cast<unsigned>(n);
                fuzzOnlyOption = arg;
            } else if (arg == "--seed") {
                opts.baseSeed = n;
                fuzzOnlyOption = arg;
            } else if (arg == "--replay-seed") {
                haveReplaySeed = true;
                replaySeed = n;
            } else {
                if (n > 256) {
                    // Truncating would silently turn e.g. 2^32 into 0
                    // ("auto"); resolveThreads caps at 256 anyway.
                    std::fprintf(stderr,
                                 "pifetch check: --threads must be "
                                 "<= 256\n");
                    return 2;
                }
                opts.threads = static_cast<unsigned>(n);
                // Replay runs one scenario whose fan-out shape is the
                // scenario's own `threads` field, not this option.
                fuzzOnlyOption = arg;
            }
        } else if (arg == "--replay") {
            const char *v = next();
            if (!v)
                return 2;
            replayPath = v;
        } else if (arg == "--repro") {
            const char *v = next();
            if (!v)
                return 2;
            reproPath = v;
            reproExplicit = true;
        } else if (arg == "--inject-fault") {
            const char *v = next();
            if (!v)
                return 2;
            const auto fault = faultFromKey(v);
            if (!fault) {
                std::fprintf(stderr,
                             "pifetch check: unknown fault '%s' "
                             "(known: %s)\n", v,
                             knownFaultNames().c_str());
                return 2;
            }
            opts.inject = *fault;
        } else if (arg == "--workload-file") {
            const char *v = next();
            if (!v)
                return 2;
            std::string err;
            auto spec = loadWorkloadSpecFile(v, &err);
            if (!spec) {
                std::fprintf(stderr, "pifetch check: %s\n",
                             err.c_str());
                return 2;
            }
            opts.spec =
                std::make_shared<const WorkloadSpec>(std::move(*spec));
            // Replay runs the repro's own recorded workload.
            fuzzOnlyOption = arg;
        } else if (arg == "--no-shrink") {
            opts.shrink = false;
            fuzzOnlyOption = arg;
        } else if (arg == "--json") {
            const char *v = next();
            if (!v)
                return 2;
            jsonPath = v;
        } else if (arg == "--quiet") {
            quiet = true;
        } else {
            std::fprintf(stderr,
                         "pifetch check: unknown option '%s'\n",
                         arg.c_str());
            return 2;
        }
    }
    if (!replayPath.empty() && haveReplaySeed) {
        std::fprintf(stderr,
                     "pifetch check: --replay and --replay-seed are "
                     "mutually exclusive\n");
        return 2;
    }
    if ((!replayPath.empty() || haveReplaySeed) &&
        !fuzzOnlyOption.empty()) {
        // Accepting-and-ignoring would let "--replay x --seeds 100"
        // report success for a sweep that never ran.
        std::fprintf(stderr,
                     "pifetch check: %s has no effect in replay mode\n",
                     fuzzOnlyOption.c_str());
        return 2;
    }
    if (!replayPath.empty()) {
        // Replaying must never clobber the repro being replayed (the
        // rewritten file would lose the shrunk scenario); only write
        // one when explicitly asked to, somewhere else.
        if (!reproExplicit)
            reproPath.clear();
        else if (reproPath == replayPath) {
            std::fprintf(stderr,
                         "pifetch check: --repro would overwrite the "
                         "--replay input; pick another path\n");
            return 2;
        }
    }

    CheckReport report;
    if (!replayPath.empty() || haveReplaySeed) {
        // Replay mode: exactly one scenario, from a repro file or a
        // fuzz seed.
        Scenario scenario;
        if (haveReplaySeed) {
            scenario = scenarioFromSeed(replaySeed);
        } else {
            std::ifstream is(replayPath, std::ios::binary);
            std::ostringstream text;
            text << is.rdbuf();
            if (!is) {
                std::fprintf(stderr,
                             "pifetch check: cannot read %s\n",
                             replayPath.c_str());
                return 2;
            }
            std::string err;
            const auto doc = parseJson(text.str(), &err);
            if (!doc) {
                std::fprintf(stderr,
                             "pifetch check: %s: %s\n",
                             replayPath.c_str(), err.c_str());
                return 2;
            }
            const auto parsed = scenarioFromResult(*doc, &err);
            if (!parsed) {
                std::fprintf(stderr,
                             "pifetch check: %s: %s\n",
                             replayPath.c_str(), err.c_str());
                return 2;
            }
            scenario = *parsed;
        }
        report.baseSeed = scenario.seed;
        report.seedsRun = 1;
        std::vector<CheckFailure> failures =
            runScenario(scenario, opts.inject);
        if (!failures.empty()) {
            ScenarioReport entry;
            entry.scenario = scenario;
            entry.failures = std::move(failures);
            entry.shrunk = scenario;
            report.failures.push_back(std::move(entry));
        }
    } else {
        report = runCheck(opts);
    }

    const ResultValue doc = toResult(report);
    if (!quiet && jsonPath != "-") {
        for (const ScenarioReport &r : report.failures)
            printCheckFailure(r);
        std::printf("check: %u scenario%s, %zu failed%s\n",
                    report.seedsRun, report.seedsRun == 1 ? "" : "s",
                    report.failures.size(),
                    report.passed() ? " -- all invariants hold" : "");
    }
    // The repro is the artifact CI needs most, so it is written
    // before (and regardless of) the report, and an I/O error never
    // masks a violation verdict: "invariants broken" stays exit 1.
    bool io_failed = false;
    if (!report.passed() && !reproPath.empty()) {
        // Ship the first failure (shrunk when available) as a
        // self-contained repro for `pifetch check --replay`; same
        // schema as one entry of the report's "failures" array.
        if (writeOutput(reproPath,
                        toJson(toResult(report.failures.front()), 2) +
                            "\n")) {
            // Keep a `--json -` stdout stream pure JSON: route the
            // notice to stderr there, like run/sweep keep their
            // reports off it.
            if (!quiet) {
                std::fprintf(jsonPath == "-" ? stderr : stdout,
                             "repro written to %s\n",
                             reproPath.c_str());
            }
        } else {
            io_failed = true;
        }
    }
    if (!jsonPath.empty() &&
        !writeOutput(jsonPath, toJson(doc, 2) + "\n"))
        io_failed = true;
    // Exit contract (docs/cli.md): 2 is reserved for usage errors;
    // output-write failures report 1, matching run/sweep.
    return (!report.passed() || io_failed) ? 1 : 0;
}

int
cmdQuery(int argc, char **argv)
{
    std::optional<WorkloadRef> workload;
    std::string loadPath;
    PrefetcherKind kind = PrefetcherKind::Pif;
    bool engineCycle = false;
    std::uint64_t warmup = 50'000;
    std::uint64_t measure = 200'000;
    SystemConfig cfg;
    EventStoreOptions storeOpts;
    std::string dumpPath;
    bool streams = false;
    std::vector<Query> queries;
    CliOptions out;  // only jsonPath/csvPath/quiet are used
    /** Last record-only option seen, for the --load conflict check. */
    std::string recordOnlyOption;

    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr,
                             "pifetch query: %s needs a value\n",
                             arg.c_str());
                return nullptr;
            }
            return argv[++i];
        };
        const auto badValue = [&](const char *v) {
            std::fprintf(stderr,
                         "pifetch query: bad value '%s' for %s\n",
                         v ? v : "<missing>", arg.c_str());
            return 2;
        };
        const auto oneSource = [&]() {
            if (!workload && loadPath.empty())
                return true;
            std::fprintf(stderr,
                         "pifetch query: multiple sources; pass "
                         "exactly one of --workload, --workload-file "
                         "or --load\n");
            return false;
        };

        if (arg == "--workload") {
            const char *v = next();
            if (!v || !oneSource())
                return 2;
            const auto w = resolveWorkload(v, "pifetch query");
            if (!w)
                return 2;
            workload = *w;
        } else if (arg == "--workload-file") {
            const char *v = next();
            if (!v || !oneSource())
                return 2;
            const auto w = loadWorkloadFile(v, "pifetch query");
            if (!w)
                return 2;
            workload = *w;
        } else if (arg == "--load") {
            const char *v = next();
            if (!v || !oneSource())
                return 2;
            loadPath = v;
        } else if (arg == "--prefetcher") {
            const char *v = next();
            if (!v)
                return 2;
            const auto k = prefetcherFromKey(v);
            if (!k) {
                std::string known;
                for (PrefetcherKind p :
                     {PrefetcherKind::None, PrefetcherKind::NextLine,
                      PrefetcherKind::Tifs,
                      PrefetcherKind::Discontinuity,
                      PrefetcherKind::Pif, PrefetcherKind::Perfect}) {
                    if (!known.empty())
                        known += ", ";
                    known += prefetcherKey(p);
                }
                std::fprintf(stderr,
                             "pifetch query: unknown prefetcher '%s' "
                             "(known: %s)\n", v, known.c_str());
                return 2;
            }
            kind = *k;
            recordOnlyOption = arg;
        } else if (arg == "--engine") {
            const char *v = next();
            if (!v)
                return 2;
            if (std::strcmp(v, "trace") == 0)
                engineCycle = false;
            else if (std::strcmp(v, "cycle") == 0)
                engineCycle = true;
            else
                return badValue(v);
            recordOnlyOption = arg;
        } else if (arg == "--warmup" || arg == "--measure" ||
                   arg == "--seed" || arg == "--window" ||
                   arg == "--max-slices") {
            const char *v = next();
            std::uint64_t n = 0;
            if (!v || !parseU64Arg(v, n))
                return badValue(v);
            if (arg == "--warmup") {
                warmup = n;
            } else if (arg == "--measure") {
                measure = n;
            } else if (arg == "--seed") {
                cfg.seed = n;
            } else if (arg == "--window") {
                if (n == 0) {
                    // 0 is the "sampling disabled" encoding in
                    // EventStoreOptions; as a CLI request it would
                    // silently empty the counters table.
                    std::fprintf(stderr,
                                 "pifetch query: --window must be "
                                 ">= 1\n");
                    return 2;
                }
                storeOpts.counterWindow = n;
            } else {
                storeOpts.maxSlices = n;
            }
            recordOnlyOption = arg;
        } else if (arg == "--set") {
            const char *v = next();
            if (!v)
                return 2;
            const char *eq = std::strchr(v, '=');
            if (!eq ||
                !applyConfigOverride(cfg, std::string(v, eq), eq + 1)) {
                std::fprintf(stderr,
                             "pifetch query: bad override '%s' (see "
                             "`pifetch list` for keys)\n", v);
                return 2;
            }
            recordOnlyOption = arg;
        } else if (arg == "--retires") {
            storeOpts.recordRetires = true;
            recordOnlyOption = arg;
        } else if (arg == "--dump") {
            const char *v = next();
            if (!v)
                return 2;
            dumpPath = v;
            recordOnlyOption = arg;
        } else if (arg == "--streams") {
            streams = true;
        } else if (arg == "--query") {
            const char *v = next();
            if (!v)
                return 2;
            std::string err;
            const auto q = parseQuery(v, &err);
            if (!q) {
                std::fprintf(stderr, "pifetch query: %s\n",
                             err.c_str());
                return 2;
            }
            queries.push_back(*q);
        } else if (arg == "--json") {
            const char *v = next();
            if (!v)
                return 2;
            out.jsonPath = v;
        } else if (arg == "--csv") {
            const char *v = next();
            if (!v)
                return 2;
            out.csvPath = v;
        } else if (arg == "--quiet") {
            out.quiet = true;
        } else {
            std::fprintf(stderr,
                         "pifetch query: unknown option '%s'\n",
                         arg.c_str());
            return 2;
        }
    }
    if (!workload && loadPath.empty()) {
        std::fprintf(stderr,
                     "pifetch query: need a source: --workload, "
                     "--workload-file or --load\n");
        return 2;
    }
    if (const auto err = validateSystemConfig(cfg)) {
        std::fprintf(stderr, "pifetch query: %s\n", err->c_str());
        return 2;
    }
    if (!loadPath.empty() && !recordOnlyOption.empty()) {
        // A dump is immutable data: accepting-and-ignoring run knobs
        // would report results for a run that never happened.
        std::fprintf(stderr,
                     "pifetch query: %s has no effect with --load\n",
                     recordOnlyOption.c_str());
        return 2;
    }
    if (queries.empty() && !streams && dumpPath.empty()) {
        std::fprintf(stderr,
                     "pifetch query: nothing to do; pass --query, "
                     "--streams and/or --dump\n");
        return 2;
    }
    int dashes = dumpPath == "-" ? 1 : 0;
    dashes += out.jsonPath == "-" ? 1 : 0;
    dashes += out.csvPath == "-" ? 1 : 0;
    if (dashes > 1) {
        std::fprintf(stderr,
                     "pifetch query: only one of --dump/--json/--csv "
                     "may write to stdout\n");
        return 2;
    }
    if (dumpPath == "-")
        out.quiet = true;  // keep the stdout dump pure JSON

    EventStore store(storeOpts);
    ResultValue meta = ResultValue::object();
    if (!loadPath.empty()) {
        std::ifstream is(loadPath, std::ios::binary);
        std::ostringstream text;
        text << is.rdbuf();
        if (!is) {
            std::fprintf(stderr, "pifetch query: cannot read %s\n",
                         loadPath.c_str());
            return 2;
        }
        std::string err;
        const auto doc = parseJson(text.str(), &err);
        if (!doc) {
            std::fprintf(stderr, "pifetch query: %s: %s\n",
                         loadPath.c_str(), err.c_str());
            return 2;
        }
        auto loaded = eventStoreFromResult(*doc, &err);
        if (!loaded) {
            std::fprintf(stderr, "pifetch query: %s: %s\n",
                         loadPath.c_str(), err.c_str());
            return 2;
        }
        store = std::move(*loaded);
        meta.set("load", loadPath);
    } else {
        const Program prog = workload->buildProgram();
        const ExecutorConfig exec = workload->executorConfig();
        ObserverConfig obs;
        obs.events = &store;
        if (engineCycle) {
            CycleEngine engine(cfg, prog, exec, kind);
            engine.attachObservers(obs);
            engine.run(warmup, measure);
        } else {
            TraceEngine engine(cfg, prog, exec,
                               makePrefetcher(kind, cfg));
            engine.attachObservers(obs);
            engine.run(warmup, measure);
        }
        meta.set("workload", workload->key());
        meta.set("prefetcher", prefetcherKey(kind));
        meta.set("engine", engineCycle ? "cycle" : "trace");
        meta.set("warmup", warmup);
        meta.set("measure", measure);
        meta.set("seed", cfg.seed);
    }
    meta.set("slices", store.sliceCount());
    meta.set("counters", store.counterCount());
    meta.set("dropped_slices", store.droppedSlices());
    std::uint64_t retired = 0;
    for (unsigned c = 0; c < store.coresSeen(); ++c)
        retired += store.retired(c);
    meta.set("retired", retired);
    meta.set("cores", store.coresSeen());

    ResultValue tables = ResultValue::array();
    for (const Query &q : queries) {
        std::string err;
        auto table = runQuery(store, q, &err);
        if (!table) {
            std::fprintf(stderr, "pifetch query: %s\n", err.c_str());
            return 2;
        }
        tables.push(std::move(*table));
    }
    if (streams)
        tables.push(missStreamLengthTable(store));

    ResultValue doc = ResultValue::object();
    doc.set("experiment", "query");
    doc.set("description", "columnar event-store queries");
    doc.set("meta", std::move(meta));
    doc.set("tables", std::move(tables));

    bool ok = true;
    if (!dumpPath.empty() &&
        !writeOutput(dumpPath, toJson(toResult(store), 2) + "\n"))
        ok = false;
    if (!emitOutputs(out, doc))
        ok = false;
    return ok ? 0 : 1;
}

int
cmdLint(int argc, char **argv)
{
    lint::LintOptions opts;
    std::string jsonPath;
    bool quiet = false;
    bool listRules = false;
    bool selfTest = false;

    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr,
                             "pifetch lint: %s needs a value\n",
                             arg.c_str());
                return nullptr;
            }
            return argv[++i];
        };

        if (arg == "--rule") {
            const char *v = next();
            if (!v)
                return 2;
            if (!lint::findRule(v)) {
                std::fprintf(stderr,
                             "pifetch lint: unknown rule '%s' "
                             "(try `pifetch lint --list-rules`)\n", v);
                return 2;
            }
            opts.rules.push_back(v);
        } else if (arg == "--root") {
            const char *v = next();
            if (!v)
                return 2;
            opts.root = v;
        } else if (arg == "--json") {
            const char *v = next();
            if (!v)
                return 2;
            jsonPath = v;
        } else if (arg == "--list-rules") {
            listRules = true;
        } else if (arg == "--self-test") {
            selfTest = true;
        } else if (arg == "--quiet") {
            quiet = true;
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr,
                         "pifetch lint: unknown option '%s'\n",
                         arg.c_str());
            return 2;
        } else {
            opts.paths.push_back(arg);
        }
    }

    if (listRules) {
        std::printf("%-24s %-12s %-8s %s\n", "rule", "class",
                    "severity", "summary");
        for (const lint::Rule &r : lint::ruleCatalog())
            std::printf("%-24s %-12s %-8s %s\n", r.id.c_str(),
                        r.category.c_str(),
                        lint::severityKey(r.severity).c_str(),
                        r.summary.c_str());
        return 0;
    }

    if (selfTest) {
        const std::vector<std::string> failures =
            lint::runRuleSelfTest();
        for (const std::string &f : failures)
            std::fprintf(stderr, "pifetch lint: self-test: %s\n",
                         f.c_str());
        if (!quiet) {
            std::printf("lint self-test: %zu rules, %zu failure%s\n",
                        lint::ruleCatalog().size(), failures.size(),
                        failures.size() == 1 ? "" : "s");
        }
        return failures.empty() ? 0 : 1;
    }

    std::string err;
    const lint::LintReport report = lint::runLint(opts, &err);
    if (!err.empty()) {
        std::fprintf(stderr, "pifetch lint: %s\n", err.c_str());
        return 2;
    }

    const std::string root =
        opts.root.empty() ? lint::defaultRoot() : opts.root;
    if (!quiet && jsonPath != "-") {
        for (const lint::Finding &f : report.findings) {
            if (f.suppressed)
                continue;
            std::printf("%s:%u: [%s] %s: %s\n", f.file.c_str(),
                        f.violation.line,
                        lint::severityKey(f.violation.severity)
                            .c_str(),
                        f.violation.rule.c_str(),
                        f.violation.message.c_str());
        }
        std::printf("lint: %u files, %u error%s, %u warning%s "
                    "(%u suppressed)\n",
                    report.filesScanned, report.errors(),
                    report.errors() == 1 ? "" : "s",
                    report.warnings(),
                    report.warnings() == 1 ? "" : "s",
                    report.suppressedCount());
    }
    if (!jsonPath.empty() &&
        !writeOutput(jsonPath,
                     toJson(lint::toResult(report, root), 2) + "\n"))
        return 1;
    return report.clean() ? 0 : 1;
}

int
dispatch(int argc, char **argv)
{
    if (argc < 2)
        return usage(stderr);
    const std::string cmd = argv[1];
    if (cmd == "list")
        return cmdList(argc, argv);
    if (cmd == "run")
        return cmdRun(argc, argv);
    if (cmd == "sweep")
        return cmdSweep(argc, argv);
    if (cmd == "golden")
        return cmdGolden(argc, argv);
    if (cmd == "check")
        return cmdCheck(argc, argv);
    if (cmd == "query")
        return cmdQuery(argc, argv);
    if (cmd == "lint")
        return cmdLint(argc, argv);
    if (cmd == "help" || cmd == "--help" || cmd == "-h")
        return usage(stdout);
    std::fprintf(stderr, "pifetch: unknown command '%s'\n",
                 cmd.c_str());
    return usage(stderr);
}

} // namespace

int
main(int argc, char **argv)
{
    int rc = dispatch(argc, argv);
    // A failed write to stdout (`--json -` into a full disk) fails the
    // run like a file's, unless the command already failed on its own.
    if (std::fflush(stdout) != 0 || std::ferror(stdout)) {
        std::fprintf(stderr, "pifetch: cannot write stdout\n");
        if (rc == 0)
            rc = 1;
    }
    return rc;
}
