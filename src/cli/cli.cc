/**
 * @file
 * The `pifetch` verbs over one option parser.
 *
 * The verb table (`verbs`) drives dispatch, help and the
 * unknown-command error. Every verb steps through its options with
 * Cli::parse(), the one argument loop. It matches the options several
 * verbs share (output, workload, config, budget) in one function per
 * group, hands the rest to the verb, and reports a missing value, a
 * bad number or an unknown option once, as `pifetch VERB: ...`.
 */

#include "cli/cli.hh"

#include <algorithm>
#include <cstdarg>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <optional>
#include <sstream>
#include <utility>

#include "check/checker.hh"
#include "lint/driver.hh"
#include "query/event_store.hh"
#include "query/query.hh"
#include "sim/cycle_engine.hh"
#include "sim/registry.hh"
#include "sim/trace_engine.hh"

namespace pifetch {
namespace {

/** The options several verbs share; Verb::shared names a verb's. */
enum SharedOption : unsigned
{
    OptJson = 1u << 0,
    OptCsv = 1u << 1,
    OptQuiet = 1u << 2,
    OptWorkload = 1u << 3,
    OptWorkloadFile = 1u << 4,
    OptSeed = 1u << 5,
    OptSet = 1u << 6,
    OptThreads = 1u << 7,
    OptWarmup = 1u << 8,
    OptMeasure = 1u << 9,
};

/** "a, b, c": the names a "(known: ...)" diagnostic lists. */
std::string
joinNames(const std::vector<std::string> &names)
{
    std::string out;
    for (const std::string &n : names)
        out += (out.empty() ? "" : ", ") + n;
    return out;
}

/** One command line: its argument cursor and the shared options. */
struct Cli
{
    const char *verb;
    std::vector<std::string> args;  //!< the arguments after the verb
    std::FILE *out;
    std::FILE *err;
    unsigned shared;  //!< the shared options this verb takes

    Cli(const char *verb_, std::vector<std::string> args_, std::FILE *out_,
        std::FILE *err_, unsigned shared_)
        : verb(verb_), args(std::move(args_)), out(out_), err(err_),
          shared(shared_)
    {}

    std::size_t pos = 0;  //!< next argument to read
    std::string opt;      //!< the option being parsed
    /** Every option parsed, with its shared-option flag (0 if own). */
    std::vector<std::pair<std::string, unsigned>> given;
    bool failed = false;

    // What the shared options set. `dump` is query's, kept here so the
    // one-writer-on-stdout rule covers it.
    std::string json, csv, dump;
    bool quiet = false;
    RunOptions run;  //!< workloads, config and budget

    /** Report one diagnostic as `pifetch VERB: ...`; returns false. */
    [[gnu::format(printf, 2, 3)]] bool fail(const char *fmt, ...);
    /** fail() for a usage error found after parsing: returns 2. */
    [[gnu::format(printf, 2, 3)]] int usage(const char *fmt, ...);

    bool badValue(const char *v)
    {
        return fail("bad value '%s' for %s", v, opt.c_str());
    }

    /** The current option's value; nullptr (reported) when missing. */
    const char *value()
    {
        if (pos < args.size())
            return args[pos++].c_str();
        fail("%s needs a value", opt.c_str());
        return nullptr;
    }

    /** The current option's value as a number (reported if not). */
    bool number(std::uint64_t &n)
    {
        const char *v = value();
        return v && (parseU64Value(v, n) || badValue(v));
    }

    /**
     * Step through args[pos..]: the shared options this verb takes,
     * then @p own, which returns false for an option it does not know.
     * Then check the outputs and the config. Returns false once
     * something was reported.
     */
    bool parse(const std::function<bool()> &own);

    /**
     * The one rule for options that would be accepted and ignored:
     * report the first one given (a shared option in @p sharedFlags or
     * an own option in @p ownNames) as having no effect @p where.
     */
    bool noEffect(unsigned sharedFlags,
                  const std::vector<std::string> &ownNames,
                  const std::string &where);

    /** Human report wanted? Not when structured output owns stdout. */
    bool report() const
    {
        return !quiet && json != "-" && csv != "-" && dump != "-";
    }

    /** The report, --json and --csv of @p doc; false if a write failed. */
    bool emit(const ResultValue &doc)
    {
        if (report())
            std::fputs(renderText(doc).c_str(), out);
        return (json.empty() || writeJson(json, doc)) &&
               (csv.empty() || write(csv, toCsv(doc)));
    }

    /** Write @p text to @p path, or to `out` when path is "-". */
    bool write(const std::string &path, const std::string &text);

    bool writeJson(const std::string &path, const ResultValue &doc)
    {
        return write(path, toJson(doc, 2) + "\n");
    }

    /** Read the JSON file at @p path and convert it (reported if not). */
    template <typename T>
    std::optional<T> load(const std::string &path,
                          std::optional<T> (*convert)(const ResultValue &,
                                                      std::string *));

  private:
    void vfail(const char *fmt, std::va_list ap);

    /** @p flag when this verb takes option @p name and it is current. */
    unsigned is(unsigned flag, const char *name) const
    {
        return (shared & flag) && opt == name ? flag : 0;
    }

    // The shared option groups; each returns the flag it matched, or 0.
    unsigned takeOutput();
    unsigned takeWorkload();
    unsigned takeConfig();
    unsigned takeBudget();
};

void
Cli::vfail(const char *fmt, std::va_list ap)
{
    std::fprintf(err, "pifetch %s: ", verb);
    std::vfprintf(err, fmt, ap);
    std::fputc('\n', err);
    failed = true;
}

bool
Cli::fail(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    vfail(fmt, ap);
    va_end(ap);
    return false;
}

int
Cli::usage(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    vfail(fmt, ap);
    va_end(ap);
    return 2;
}

bool
Cli::parse(const std::function<bool()> &own)
{
    while (!failed && pos < args.size()) {
        opt = args[pos++];
        // At most one group knows the option; the others return 0.
        const unsigned flag =
            takeOutput() | takeWorkload() | takeConfig() | takeBudget();
        given.emplace_back(opt, flag);
        if (!flag && !own() && !failed)
            fail("unknown option '%s'", opt.c_str());
    }
    if (failed)
        return false;
    if ((json == "-") + (csv == "-") + (dump == "-") > 1)
        return fail("two outputs would interleave on stdout; write all "
                    "but one to a file");
    // Bounds hold for the config as a whole, once every override is in.
    if (const auto bad = validateSystemConfig(run.cfg))
        return fail("%s", bad->c_str());
    return true;
}

bool
Cli::noEffect(unsigned sharedFlags,
              const std::vector<std::string> &ownNames,
              const std::string &where)
{
    for (const auto &[name, flag] : given) {
        bool hit = (flag & sharedFlags) != 0;
        for (const std::string &own : ownNames)
            hit = hit || (!flag && name == own);
        if (hit) {
            fail("%s has no effect %s", name.c_str(), where.c_str());
            return true;
        }
    }
    return false;
}

bool
Cli::write(const std::string &path, const std::string &text)
{
    if (path == "-") {
        std::fputs(text.c_str(), out);
        return true;
    }
    std::ofstream os(path, std::ios::binary);
    os << text;
    os.close();
    return os || fail("cannot write %s", path.c_str());
}

template <typename T>
std::optional<T>
Cli::load(const std::string &path,
          std::optional<T> (*convert)(const ResultValue &, std::string *))
{
    std::ifstream is(path, std::ios::binary);
    std::ostringstream text;
    text << is.rdbuf();
    if (!is) {
        fail("cannot read %s", path.c_str());
        return std::nullopt;
    }
    std::string why;
    std::optional<T> value;
    if (const auto doc = parseJson(text.str(), &why))
        value = convert(*doc, &why);
    if (!value)
        fail("%s: %s", path.c_str(), why.c_str());
    return value;
}

unsigned
Cli::takeOutput()
{
    const unsigned flag = is(OptJson, "--json") | is(OptCsv, "--csv") |
                          is(OptQuiet, "--quiet");
    const char *v = flag & (OptJson | OptCsv) ? value() : nullptr;
    if (flag == OptQuiet)
        quiet = true;
    else if (v)
        (flag == OptJson ? json : csv) = v;
    return flag;
}

unsigned
Cli::takeWorkload()
{
    const unsigned flag = is(OptWorkload, "--workload") |
                          is(OptWorkloadFile, "--workload-file");
    const char *v = flag ? value() : nullptr;
    if (!v)
        return flag;
    std::string file = v;
    if (flag == OptWorkload) {
        // A server preset, else a zoo spec key.
        if (const auto preset = workloadFromName(v)) {
            run.workloads.push_back(*preset);
            return flag;
        }
        const auto entry = findZooEntry(v);
        if (!entry) {
            std::vector<std::string> known;
            for (ServerWorkload w : allServerWorkloads())
                known.push_back(workloadKey(w));
            for (const WorkloadZooEntry &e : workloadZoo())
                known.push_back(e.key);
            fail("unknown workload '%s' (known: %s)", v,
                 joinNames(known).c_str());
            return flag;
        }
        file = entry->path;
    }
    std::string why;
    auto spec = loadWorkloadSpecFile(file, &why);
    if (spec)
        run.workloads.push_back(workloadRefFromSpec(std::move(*spec)));
    else
        fail("%s", why.c_str());
    return flag;
}

unsigned
Cli::takeConfig()
{
    const unsigned flag = is(OptSeed, "--seed") | is(OptSet, "--set") |
                          is(OptThreads, "--threads");
    const char *v = flag ? value() : nullptr;
    if (!v)
        return flag;
    std::string why;
    const char *eq = std::strchr(v, '=');
    if (flag == OptSeed) {
        if (!parseU64Value(v, run.cfg.seed))
            badValue(v);
    } else if (flag == OptThreads) {
        std::uint64_t n = 0;
        if (!parseU64Value(v, n) || n > std::numeric_limits<unsigned>::max())
            badValue(v);
        else
            run.cfg.threads = static_cast<unsigned>(n);
    } else if (!eq) {
        fail("--set expects key=value");
    } else if (!applyConfigOverride(run.cfg, std::string(v, eq), eq + 1,
                                    &why)) {
        fail("%s", why.c_str());
    }
    return flag;
}

unsigned
Cli::takeBudget()
{
    // Every verb that takes these sets run.budget's defaults first.
    const unsigned flag =
        is(OptWarmup, "--warmup") | is(OptMeasure, "--measure");
    std::uint64_t n = 0;
    if (flag && number(n)) {
        ExperimentBudget &budget = run.budget.value();
        (flag == OptWarmup ? budget.warmup : budget.measure) = n;
    }
    return flag;
}

// ------------------------------------------------------------- verbs

int
cmdList(Cli &c)
{
    if (!c.args.empty())
        return c.usage("unexpected argument '%s'", c.args[0].c_str());
    std::fprintf(c.out, "%-16s %s\n", "name", "description");
    for (const ExperimentSpec &spec : experimentRegistry())
        std::fprintf(c.out, "%-16s %s\n", spec.name.c_str(),
                     spec.description.c_str());
    std::fprintf(c.out, "\nworkloads (--workload):\n");
    for (ServerWorkload w : allServerWorkloads())
        std::fprintf(c.out, "  %-22s %s (%s preset)\n",
                     workloadKey(w).c_str(), workloadName(w).c_str(),
                     workloadGroup(w).c_str());
    const std::vector<WorkloadZooEntry> zoo = workloadZoo();
    for (const WorkloadZooEntry &e : zoo)
        std::fprintf(c.out, "  %-22s %s%s%s\n", e.key.c_str(),
                     e.title.c_str(), e.description.empty() ? "" : " -- ",
                     e.description.c_str());
    if (zoo.empty()) {
        std::fprintf(c.out, "  (no zoo specs found under %s)\n",
                     workloadZooDir().c_str());
    }
    std::fprintf(c.out, "\nconfig override keys (--set / --param):\n ");
    for (const std::string &k : configKeys())
        std::fprintf(c.out, " %s", k.c_str());
    std::fprintf(c.out, "\n");
    return 0;
}

/**
 * run and sweep: the experiment named first, then the options, with
 * sweep's --param axes into @p grid. Returns null once reported.
 */
const ExperimentSpec *
parseExperiment(Cli &c, std::vector<SweepAxis> *grid)
{
    if (c.args.empty()) {
        c.fail("missing experiment name");
        return nullptr;
    }
    const ExperimentSpec *spec = findExperiment(c.args[0]);
    if (!spec) {
        c.fail("unknown experiment '%s' (try `pifetch list`)",
               c.args[0].c_str());
        return nullptr;
    }
    c.pos = 1;
    // Seed from the experiment's own defaults so a lone --warmup or
    // --measure adjusts one half without resetting the other.
    c.run.budget = spec->defaultBudget;
    const bool parsed = c.parse([&] {
        if (!grid || c.opt != "--param")
            return false;
        const char *v = c.value();
        const char *eq = v ? std::strchr(v, '=') : nullptr;
        if (v && (!eq || eq[1] == '\0')) {
            c.fail("--param expects key=v1,v2,...");
        } else if (v) {
            SweepAxis axis{std::string(v, eq), {}};
            const std::string values = eq + 1;
            for (std::size_t at = 0;; ++at) {
                const std::size_t comma = values.find(',', at);
                axis.values.push_back(values.substr(at, comma - at));
                if (comma == std::string::npos)
                    break;
                at = comma;
            }
            grid->push_back(std::move(axis));
        }
        return true;
    });
    if (!parsed)
        return nullptr;
    if (grid && grid->empty()) {
        c.fail("need at least one --param");
        return nullptr;
    }
    // Analysis-only runners make one pass of --measure instructions
    // and never read the config: a sweep would rerun the identical
    // study under labels that claim it varied.
    if (!spec->usesConfig &&
        c.noEffect(OptSeed | OptSet | OptWarmup, {"--param"},
                   "on '" + spec->name +
                       "', an analysis-only study (one pass of "
                       "--measure instructions)"))
        return nullptr;
    return spec;
}

int
cmdRun(Cli &c)
{
    const ExperimentSpec *spec = parseExperiment(c, nullptr);
    if (!spec)
        return 2;
    return c.emit(runExperiment(*spec, c.run)) ? 0 : 1;
}

int
cmdSweep(Cli &c)
{
    std::vector<SweepAxis> grid;
    const ExperimentSpec *spec = parseExperiment(c, &grid);
    if (!spec || c.noEffect(OptCsv, {}, "on a sweep (use --json)"))
        return 2;
    // Every point is checked up front, so a typo fails before hours
    // of simulation.
    if (const auto bad = validateSweepGrid(grid, c.run.cfg))
        return c.usage("%s", bad->c_str());
    const ResultValue doc = runSweep(*spec, c.run, grid);
    const ResultValue *runs = doc.find("runs");
    for (std::size_t p = 0; c.report() && runs && p < runs->size(); ++p) {
        std::fprintf(c.out, "--- point %zu/%zu:", p + 1, runs->size());
        const ResultValue *params = runs->at(p).find("params");
        for (std::size_t j = 0; params && j < params->size(); ++j) {
            const auto &[key, value] = params->member(j);
            std::fprintf(c.out, " %s=%s", key.c_str(), value.str().c_str());
        }
        std::fprintf(c.out, " ---\n");
        if (const ResultValue *result = runs->at(p).find("result"))
            std::fputs(renderText(*result).c_str(), c.out);
    }
    return c.json.empty() || c.writeJson(c.json, doc) ? 0 : 1;
}

int
cmdGolden(Cli &c)
{
    if (c.args.empty())
        return c.usage("expected --list or a fixture name");
    if (c.args.size() > 1)
        return c.usage("unexpected argument '%s'", c.args[1].c_str());
    const std::string &name = c.args[0];
    for (const GoldenEntry &e : goldenSuite()) {
        if (name == "--list") {
            std::fprintf(c.out, "%s\n", goldenFixtureName(e).c_str());
        } else if (goldenFixtureName(e) == name) {
            std::fputs(goldenJson(e).c_str(), c.out);
            return 0;
        }
    }
    if (name == "--list")
        return 0;
    return c.usage("'%s' is not in the golden suite (see --list)",
                   name.c_str());
}

/** Print one failing scenario of a check report. */
void
printCheckFailure(std::FILE *out, const ScenarioReport &r)
{
    std::fprintf(out, "FAIL seed %llu:\n",
                 static_cast<unsigned long long>(r.scenario.seed));
    for (const CheckFailure &f : r.failures)
        std::fprintf(out, "  [%s] %s\n", f.invariant.c_str(),
                     f.detail.c_str());
    if (r.shrunkValid) {
        std::fprintf(out,
                     "  shrunk in %u steps to: workload '%s', kind %s, "
                     "warmup %llu, measure %llu\n",
                     r.shrinkSteps, r.shrunk.params.name.c_str(),
                     prefetcherKey(r.shrunk.kind).c_str(),
                     static_cast<unsigned long long>(r.shrunk.warmup),
                     static_cast<unsigned long long>(r.shrunk.measure));
    }
}

int
cmdCheck(Cli &c)
{
    CheckOptions opts;
    std::string reproPath = "pifetch-check-repro.json";
    bool reproExplicit = false;
    std::string replayPath;
    std::optional<std::uint64_t> replaySeed;
    c.run.cfg.seed = opts.baseSeed;
    const bool parsed = c.parse([&] {
        std::uint64_t n = 0;
        const char *v = nullptr;
        if (c.opt == "--seeds") {
            if (c.number(n) && (n == 0 || n > 100'000))
                c.fail("--seeds must be in 1..100000");
            opts.seeds = static_cast<unsigned>(n);
        } else if (c.opt == "--replay-seed") {
            if (c.number(n))
                replaySeed = n;
        } else if (c.opt == "--replay") {
            if ((v = c.value()))
                replayPath = v;
        } else if (c.opt == "--repro") {
            if ((v = c.value()))
                reproPath = v;
            reproExplicit = true;
        } else if (c.opt == "--inject-fault") {
            const auto fault = (v = c.value()) ? faultFromKey(v)
                                               : std::nullopt;
            if (fault) {
                opts.inject = *fault;
            } else if (v) {
                std::vector<std::string> known;
                for (FaultInjection f : allFaultInjections())
                    known.push_back(faultKey(f));
                c.fail("unknown fault '%s' (known: %s)", v,
                       joinNames(known).c_str());
            }
        } else if (c.opt == "--no-shrink") {
            opts.shrink = false;
        } else {
            return false;
        }
        return true;
    });
    if (!parsed)
        return 2;
    opts.baseSeed = c.run.cfg.seed;
    opts.threads = c.run.cfg.threads;
    if (!c.run.workloads.empty()) {
        opts.spec = std::make_shared<const WorkloadSpec>(
            c.run.workloads.back().lowered()->spec);
    }
    const bool replay = !replayPath.empty() || replaySeed;
    if (!replayPath.empty() && replaySeed)
        return c.usage("--replay and --replay-seed are mutually exclusive");
    // Accepting-and-ignoring would let "--replay x --seeds 100" report
    // success for a sweep that never ran. A replay runs the repro's own
    // workload, and its fan-out is the scenario's `threads` field.
    if (replay && c.noEffect(OptSeed | OptThreads | OptWorkloadFile,
                             {"--seeds", "--no-shrink"}, "in replay mode"))
        return 2;
    if (!replayPath.empty()) {
        // Replaying must never clobber the repro being replayed (the
        // rewritten file would lose the shrunk scenario); only write
        // one when explicitly asked to, somewhere else.
        if (!reproExplicit)
            reproPath.clear();
        else if (reproPath == replayPath)
            return c.usage("--repro would overwrite the --replay input; "
                           "pick another path");
    }

    CheckReport report;
    if (replay) {
        // Exactly one scenario, from a fuzz seed or a repro file.
        std::optional<Scenario> scenario;
        if (replaySeed)
            scenario = scenarioFromSeed(*replaySeed);
        else if (!(scenario = c.load(replayPath, scenarioFromResult)))
            return 2;
        report.baseSeed = scenario->seed;
        report.seedsRun = 1;
        std::vector<CheckFailure> failures =
            runScenario(*scenario, opts.inject);
        if (!failures.empty()) {
            ScenarioReport entry;
            entry.scenario = *scenario;
            entry.failures = std::move(failures);
            entry.shrunk = *scenario;
            report.failures.push_back(std::move(entry));
        }
    } else {
        report = runCheck(opts);
    }

    if (c.report()) {
        for (const ScenarioReport &r : report.failures)
            printCheckFailure(c.out, r);
        std::fprintf(c.out, "check: %u scenario%s, %zu failed%s\n",
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
        if (!c.writeJson(reproPath, toResult(report.failures.front())))
            io_failed = true;
        else if (!c.quiet)
            // Keep a `--json -` stdout stream pure JSON.
            std::fprintf(c.json == "-" ? c.err : c.out,
                         "repro written to %s\n", reproPath.c_str());
    }
    if (!c.json.empty() && !c.writeJson(c.json, toResult(report)))
        io_failed = true;
    // Exit contract (docs/cli.md): 2 is reserved for usage errors;
    // output-write failures report 1, matching run/sweep.
    return (!report.passed() || io_failed) ? 1 : 0;
}

int
cmdQuery(Cli &c)
{
    std::vector<std::string> loads;
    PrefetcherKind kind = PrefetcherKind::Pif;
    bool engineCycle = false;
    EventStoreOptions storeOpts;
    bool streams = false;
    std::vector<Query> queries;
    c.run.budget = ExperimentBudget{50'000, 200'000};
    const bool parsed = c.parse([&] {
        std::uint64_t n = 0;
        const char *v = nullptr;
        std::string why;
        if (c.opt == "--load") {
            if ((v = c.value()))
                loads.push_back(v);
        } else if (c.opt == "--prefetcher") {
            const auto k = (v = c.value()) ? prefetcherFromKey(v)
                                           : std::nullopt;
            if (k) {
                kind = *k;
            } else if (v) {
                std::vector<std::string> known;
                for (PrefetcherKind p :
                     {PrefetcherKind::None, PrefetcherKind::NextLine,
                      PrefetcherKind::Tifs, PrefetcherKind::Discontinuity,
                      PrefetcherKind::Pif, PrefetcherKind::Perfect})
                    known.push_back(prefetcherKey(p));
                c.fail("unknown prefetcher '%s' (known: %s)", v,
                       joinNames(known).c_str());
            }
        } else if (c.opt == "--engine") {
            if ((v = c.value()) && std::strcmp(v, "trace") != 0 &&
                std::strcmp(v, "cycle") != 0)
                c.badValue(v);
            engineCycle = v && std::strcmp(v, "cycle") == 0;
        } else if (c.opt == "--window") {
            // 0 is EventStoreOptions' "sampling disabled"; asked for
            // here it would silently empty the counters table.
            if (c.number(n) && n == 0)
                c.fail("--window must be >= 1");
            storeOpts.counterWindow = n;
        } else if (c.opt == "--max-slices") {
            if (c.number(n))
                storeOpts.maxSlices = n;
        } else if (c.opt == "--retires") {
            storeOpts.recordRetires = true;
        } else if (c.opt == "--dump") {
            if ((v = c.value()))
                c.dump = v;
        } else if (c.opt == "--streams") {
            streams = true;
        } else if (c.opt == "--query") {
            auto q = (v = c.value()) ? parseQuery(v, &why) : std::nullopt;
            if (q)
                queries.push_back(std::move(*q));
            else if (v)
                c.fail("%s", why.c_str());
        } else {
            return false;
        }
        return true;
    });
    if (!parsed)
        return 2;
    const std::vector<WorkloadRef> &workloads = c.run.workloads;
    if (workloads.size() + loads.size() > 1)
        return c.usage("multiple sources; pass exactly one of --workload, "
                       "--workload-file or --load");
    if (workloads.empty() && loads.empty())
        return c.usage("need a source: --workload, --workload-file or "
                       "--load");
    // A dump is immutable data: accepting-and-ignoring run knobs would
    // report results for a run that never happened.
    if (!loads.empty() &&
        c.noEffect(OptSeed | OptSet | OptWarmup | OptMeasure,
                   {"--prefetcher", "--engine", "--window", "--max-slices",
                    "--retires", "--dump"},
                   "with --load"))
        return 2;
    if (queries.empty() && !streams && c.dump.empty())
        return c.usage("nothing to do; pass --query, --streams and/or "
                       "--dump");

    EventStore store(storeOpts);
    ResultValue meta = ResultValue::object();
    const SystemConfig &cfg = c.run.cfg;
    if (!loads.empty()) {
        auto loaded = c.load(loads[0], eventStoreFromResult);
        if (!loaded)
            return 2;
        store = std::move(*loaded);
        meta.set("load", loads[0]);
    } else {
        const WorkloadRef &workload = workloads[0];
        const ExperimentBudget budget = *c.run.budget;
        const Program prog = workload.buildProgram();
        const ExecutorConfig exec = workload.executorConfig();
        ObserverConfig obs;
        obs.events = &store;
        if (engineCycle) {
            CycleEngine engine(cfg, prog, exec, kind);
            engine.attachObservers(obs);
            engine.run(budget.warmup, budget.measure);
        } else {
            TraceEngine engine(cfg, prog, exec, makePrefetcher(kind, cfg));
            engine.attachObservers(obs);
            engine.run(budget.warmup, budget.measure);
        }
        meta.set("workload", workload.key());
        meta.set("prefetcher", prefetcherKey(kind));
        meta.set("engine", engineCycle ? "cycle" : "trace");
        meta.set("warmup", budget.warmup);
        meta.set("measure", budget.measure);
        meta.set("seed", cfg.seed);
    }
    meta.set("slices", store.sliceCount());
    meta.set("counters", store.counterCount());
    meta.set("dropped_slices", store.droppedSlices());
    std::uint64_t retired = 0;
    for (unsigned core = 0; core < store.coresSeen(); ++core)
        retired += store.retired(core);
    meta.set("retired", retired);
    meta.set("cores", store.coresSeen());

    ResultValue tables = ResultValue::array();
    for (const Query &q : queries) {
        std::string why;
        auto table = runQuery(store, q, &why);
        if (!table)
            return c.usage("%s", why.c_str());
        tables.push(std::move(*table));
    }
    if (streams)
        tables.push(missStreamLengthTable(store));

    ResultValue doc = ResultValue::object();
    doc.set("experiment", "query");
    doc.set("description", "columnar event-store queries");
    doc.set("meta", std::move(meta));
    doc.set("tables", std::move(tables));

    const bool dumped =
        c.dump.empty() || c.writeJson(c.dump, toResult(store));
    return c.emit(doc) && dumped ? 0 : 1;
}

int
cmdLint(Cli &c)
{
    lint::LintOptions opts;
    bool listRules = false;
    bool selfTest = false;
    const bool parsed = c.parse([&] {
        const char *v = nullptr;
        if (c.opt == "--rule") {
            if ((v = c.value()) && !lint::findRule(v))
                c.fail("unknown rule '%s' (try `pifetch lint "
                       "--list-rules`)", v);
            else if (v)
                opts.rules.push_back(v);
        } else if (c.opt == "--root") {
            if ((v = c.value()))
                opts.root = v;
        } else if (c.opt == "--list-rules") {
            listRules = true;
        } else if (c.opt == "--self-test") {
            selfTest = true;
        } else if (c.opt.empty() || c.opt[0] != '-') {
            opts.paths.push_back(c.opt);
        } else {
            return false;
        }
        return true;
    });
    if (!parsed)
        return 2;
    // Both modes print and exit before any scan, so the scan's options
    // (and the other mode) would be accepted and ignored.
    std::vector<std::string> scanOptions = {"--rule", "--root"};
    scanOptions.insert(scanOptions.end(), opts.paths.begin(),
                       opts.paths.end());
    if (listRules) {
        scanOptions.push_back("--self-test");
        if (c.noEffect(OptJson | OptQuiet, scanOptions, "with --list-rules"))
            return 2;
        std::fprintf(c.out, "%-24s %-12s %-8s %s\n", "rule", "class",
                     "severity", "summary");
        for (const lint::Rule &r : lint::ruleCatalog())
            std::fprintf(c.out, "%-24s %-12s %-8s %s\n", r.id.c_str(),
                         r.category.c_str(),
                         lint::severityKey(r.severity).c_str(),
                         r.summary.c_str());
        return 0;
    }

    if (selfTest) {
        if (c.noEffect(OptJson, scanOptions, "with --self-test"))
            return 2;
        const std::vector<std::string> failures = lint::runRuleSelfTest();
        for (const std::string &f : failures)
            c.fail("self-test: %s", f.c_str());
        if (!c.quiet) {
            std::fprintf(c.out, "lint self-test: %zu rules, %zu failure%s\n",
                         lint::ruleCatalog().size(), failures.size(),
                         failures.size() == 1 ? "" : "s");
        }
        return failures.empty() ? 0 : 1;
    }

    std::string why;
    const lint::LintReport report = lint::runLint(opts, &why);
    if (!why.empty())
        return c.usage("%s", why.c_str());
    if (c.report()) {
        for (const lint::Finding &f : report.findings) {
            if (f.suppressed)
                continue;
            std::fprintf(c.out, "%s:%u: [%s] %s: %s\n", f.file.c_str(),
                         f.violation.line,
                         lint::severityKey(f.violation.severity).c_str(),
                         f.violation.rule.c_str(),
                         f.violation.message.c_str());
        }
        std::fprintf(c.out,
                     "lint: %u files, %u error%s, %u warning%s "
                     "(%u suppressed)\n",
                     report.filesScanned, report.errors(),
                     report.errors() == 1 ? "" : "s", report.warnings(),
                     report.warnings() == 1 ? "" : "s",
                     report.suppressedCount());
    }
    const std::string root =
        opts.root.empty() ? lint::defaultRoot() : opts.root;
    if (!c.json.empty() &&
        !c.writeJson(c.json, lint::toResult(report, root)))
        return 1;
    return report.clean() ? 0 : 1;
}

int cmdHelp(Cli &c);

/** One `pifetch` verb. */
struct Verb
{
    const char *name;
    const char *synopsis;  //!< what follows the name
    const char *help;      //!< one line
    unsigned shared;       //!< the shared options it takes
    int (*run)(Cli &);
    const char *options;   //!< help for its options, or null
};

constexpr unsigned runOptions = OptJson | OptCsv | OptQuiet |
                                 OptWorkload | OptWorkloadFile | OptSeed |
                                 OptSet | OptThreads | OptWarmup |
                                 OptMeasure;

constexpr Verb verbs[] = {
    {"list", "", "enumerate registered experiments", 0, cmdList, nullptr},
    {"run", "<experiment>", "run one experiment", runOptions, cmdRun,
     "  --workload W       preset (db2|oracle|qry2|qry17|apache|zeus or\n"
     "                     0..5) or zoo spec name (repeatable)\n"
     "  --workload-file F  JSON workload spec (repeatable)\n"
     "  --json FILE|-      JSON document (- = stdout, no report)\n"
     "  --csv FILE|-       the tables as CSV\n"
     "  --threads N        worker threads (0 = auto)\n"
     "  --warmup N, --measure N  instruction budget\n"
     "  --seed N           master seed\n"
     "  --set k=v          config override (repeatable)\n"
     "  --quiet            no human-readable report\n"},
    {"sweep", "<experiment> --param", "run a parameter grid",
     runOptions, cmdSweep,
     "  --param k=v1,v2    one grid axis (repeatable)\n"
     "  and the run options but --csv\n"},
    {"golden", "[--list|<exp>]", "emit canonical golden JSON", 0,
     cmdGolden, nullptr},
    {"check", "[options]", "fuzz + differential validation",
     OptJson | OptQuiet | OptWorkloadFile | OptSeed | OptThreads, cmdCheck,
     "  --seeds N          scenarios to fuzz (default 25)\n"
     "  --seed N           first fuzz seed (default 1)\n"
     "  --replay-seed N    run exactly one fuzz seed\n"
     "  --replay FILE      run the scenario in a repro JSON file\n"
     "  --repro FILE       failing-scenario JSON path\n"
     "                     (default pifetch-check-repro.json)\n"
     "  --threads N        worker lanes over scenarios (0 = auto)\n"
     "  --no-shrink        keep failing scenarios unshrunk\n"
     "  --inject-fault K   planted break for self-tests (degree-\n"
     "                     miscount|coverage-drop|window-miscount)\n"
     "  --workload-file F  fuzz every scenario over this JSON spec\n"
     "  --json, --quiet    as for run\n"},
    {"query", "[options]", "event-store recording + queries",
     OptJson | OptCsv | OptQuiet | OptWorkload | OptWorkloadFile |
         OptSeed | OptSet | OptWarmup | OptMeasure,
     cmdQuery,
     "  --workload W, --workload-file F  record one run of it\n"
     "  --load FILE        query a saved event dump instead\n"
     "  --prefetcher K     none|nextline|tifs|discontinuity|pif|\n"
     "                     perfect (default pif)\n"
     "  --engine E         trace|cycle (default trace)\n"
     "  --warmup N, --measure N  budget (default 50000, 200000)\n"
     "  --seed N, --set k=v  as for run\n"
     "  --window N         counter stride in instructions (4096)\n"
     "  --retires          also a slice per retired instruction\n"
     "  --max-slices N     slice-row cap; excess dropped (2^22)\n"
     "  --dump FILE|-      write the store as a JSON event dump\n"
     "  --query Q          run one query (repeatable; docs/query.md)\n"
     "  --streams          add the Fig. 2 miss-stream-length table\n"
     "  --json, --csv, --quiet  as for run\n"},
    {"lint", "[paths...] [options]", "project static-analysis rules",
     OptJson | OptQuiet, cmdLint,
     "  paths...           path prefixes (default src examples tests)\n"
     "  --rule ID          run only rule ID (repeatable)\n"
     "  --root DIR         repository root (default: this checkout)\n"
     "  --list-rules       print the rule catalog and exit\n"
     "  --self-test        replay every rule's planted fixture, exit\n"
     "  --json, --quiet    as for run\n"},
    {"help", "", "this message", 0, cmdHelp, nullptr},
};

void
printUsage(std::FILE *f)
{
    std::fputs("usage: pifetch <command> [options]\n\ncommands:\n", f);
    for (const Verb &v : verbs) {
        const std::string head = std::string(v.name) + " " + v.synopsis;
        std::fprintf(f, "  %-26s %s\n", head.c_str(), v.help);
    }
    for (const Verb &v : verbs) {
        if (v.options)
            std::fprintf(f, "\n%s options:\n%s", v.name, v.options);
    }
}

int
cmdHelp(Cli &c)
{
    printUsage(c.out);
    return 0;
}

} // namespace

int
runCli(const std::vector<std::string> &args, std::FILE *out,
       std::FILE *err)
{
    std::string cmd = args.empty() ? "" : args[0];
    if (cmd == "--help" || cmd == "-h")
        cmd = "help";
    const Verb *verb = std::find_if(
        std::begin(verbs), std::end(verbs),
        [&](const Verb &v) { return cmd == v.name; });
    int rc = 2;
    if (verb != std::end(verbs)) {
        Cli c{verb->name, {args.begin() + 1, args.end()}, out, err,
              verb->shared};
        rc = verb->run(c);
    } else {
        if (!args.empty())
            std::fprintf(err, "pifetch: unknown command '%s'\n",
                         cmd.c_str());
        printUsage(err);
    }
    // A failed write to stdout (`--json -` into a full disk) fails the
    // run like a file's, unless the command already failed on its own.
    if (std::fflush(out) != 0 || std::ferror(out)) {
        std::fprintf(err, "pifetch: cannot write stdout\n");
        if (rc == 0)
            rc = 1;
    }
    return rc;
}

} // namespace pifetch
