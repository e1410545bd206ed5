/**
 * @file
 * The `pifetch` command line, driven in-process through runCli() with
 * temporary files as its streams: the failure exits, one diagnostic
 * per error, the override and empty-lint messages, the `--json -`
 * bytes and the help text.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "cli/cli.hh"
#include "sim/registry.hh"

namespace pifetch {
namespace {

/** Everything one command line did. */
struct Outcome
{
    int rc;
    std::string out, err;
};

/** Rewind @p f, read it whole and close it. */
std::string
drain(std::FILE *f)
{
    std::string text;
    std::rewind(f);
    char buf[4096];
    for (std::size_t n; (n = std::fread(buf, 1, sizeof buf, f)) > 0;)
        text.append(buf, n);
    std::fclose(f);
    return text;
}

Outcome
cli(const std::vector<std::string> &args)
{
    std::FILE *out = std::tmpfile();
    std::FILE *err = std::tmpfile();
    const int rc = runCli(args, out, err);
    return {rc, drain(out), drain(err)};
}

TEST(Cli, FailureExits)
{
    const std::vector<std::string> sweep = {
        "sweep",    "fig10-coverage", "--workload", "db2",    "--warmup",
        "2000",     "--measure",      "5000",       "--quiet"};
    const auto swept = [&](std::vector<std::string> extra) {
        extra.insert(extra.begin(), sweep.begin(), sweep.end());
        return extra;
    };
    const struct
    {
        std::vector<std::string> args;
        int rc;
    } cases[] = {
        {{"run", "fig2-streams", "--set", "l1i.assoc=0"}, 2},
        {{"run", "fig2-streams", "--set", "pif.numSabs=4294967300"}, 2},
        {swept({"--param", "pif.blocksBefore=1,zzz"}), 2},
        {swept({"--param", "pif.numSabs=1,2", "--param", "pif.numSabs=4,8"}),
         2},
        {swept({"--param", "pif.numSabs=1,2", "--shards", "2", "--dir", "d"}),
         2},
        {{"list", "--json", "out.json"}, 2},
        {{"golden", "fig2-streams", "extra"}, 2},
        {{"golden", "--list", "extra"}, 2},
        {{"run", "fig2-streams", "--set", "trap.handlerCount=1"}, 2},
        {swept({"--param", "trap.perInstrProbability=0,1"}), 2},
        {{"run", "fig10-coverage", "--set", "numCores=4"}, 2},
        {swept({"--param", "numCores=1,16"}), 2},
        {{"run", "fig3-regions", "--warmup", "5"}, 2},
        // A lint run that scans no file is a usage error, not clean.
        {{"lint", "src/cahce"}, 2},
        {{"lint", "--root", "/nonexistent"}, 2},
        // The lint modes print and exit: a scan option, a path, the
        // other mode or (with --list-rules) --quiet would be ignored.
        {{"lint", "--self-test", "--json", "x.json"}, 2},
        {{"lint", "--self-test", "--rule", "D-rand"}, 2},
        {{"lint", "--self-test", "--root", "."}, 2},
        {{"lint", "--self-test", "src"}, 2},
        {{"lint", "--list-rules", "--json", "x.json"}, 2},
        {{"lint", "--list-rules", "--rule", "D-rand"}, 2},
        {{"lint", "--list-rules", "--root", "."}, 2},
        {{"lint", "--list-rules", "src"}, 2},
        {{"lint", "--list-rules", "--quiet"}, 2},
        {{"lint", "--list-rules", "--self-test"}, 2},
        {{"lint", "--self-test", "--list-rules"}, 2},
        {{"bogus"}, 2},
        {{}, 2},
    };
    for (const auto &c : cases) {
        const Outcome o = cli(c.args);
        EXPECT_EQ(o.rc, c.rc) << (c.args.empty() ? "" : c.args[0]) << " "
                              << o.err;
        EXPECT_FALSE(o.err.empty());
    }

    // A failed write to stdout is a runtime failure, as a file's is.
    std::FILE *full = std::fopen("/dev/full", "w");
    ASSERT_NE(full, nullptr);
    std::FILE *err = std::tmpfile();
    EXPECT_EQ(runCli({"run", "table1", "--json", "-"}, full, err), 1);
    std::fclose(full);
    EXPECT_NE(drain(err).find("cannot write stdout"), std::string::npos);
}

TEST(Cli, MissingNumberIsOneDiagnostic)
{
    const struct
    {
        std::vector<std::string> verb;
        std::vector<std::string> options;
    } verbs[] = {
        {{"run", "fig10-coverage"},
         {"--warmup", "--measure", "--seed", "--threads"}},
        {{"sweep", "fig10-coverage"},
         {"--warmup", "--measure", "--seed", "--threads"}},
        {{"check"}, {"--seeds", "--seed", "--replay-seed", "--threads"}},
        {{"query", "--workload", "db2"},
         {"--warmup", "--measure", "--seed", "--window", "--max-slices"}},
    };
    for (const auto &v : verbs) {
        for (const std::string &option : v.options) {
            std::vector<std::string> args = v.verb;
            args.push_back(option);
            const Outcome o = cli(args);
            EXPECT_EQ(o.rc, 2) << args[0] << " " << option;
            EXPECT_EQ(o.err, "pifetch " + args[0] + ": " + option +
                                 " needs a value\n");
        }
    }
}

TEST(Cli, OverrideMessagesNameTheFault)
{
    Outcome o = cli({"run", "fig10-coverage", "--set", "numCores=4"});
    EXPECT_EQ(o.err, "pifetch run: unknown override key 'numCores' (see "
                     "`pifetch list` for keys)\n");
    o = cli({"query", "--workload", "db2", "--streams", "--set",
             "pif.blocksBefore=zzz"});
    EXPECT_EQ(o.rc, 2);
    EXPECT_EQ(o.err.find("pifetch query: bad value 'zzz' for override "
                         "'pif.blocksBefore'"),
              0u)
        << o.err;
}

TEST(Cli, LintModesRefuseIgnoredOptions)
{
    Outcome o = cli({"lint", "--self-test", "--json", "x.json"});
    EXPECT_EQ(o.err, "pifetch lint: --json has no effect with --self-test\n");
    EXPECT_TRUE(o.out.empty());
    o = cli({"lint", "--self-test", "--list-rules"});
    EXPECT_EQ(o.err,
              "pifetch lint: --self-test has no effect with --list-rules\n");
    // scripts/check.sh runs the self-test quietly.
    o = cli({"lint", "--self-test", "--quiet"});
    EXPECT_EQ(o.rc, 0) << o.err;
    EXPECT_TRUE(o.out.empty());
}

TEST(Cli, JsonToStdoutIsTheDocument)
{
    const Outcome o = cli({"run", "fig10-coverage", "--workload", "db2",
                           "--warmup", "2000", "--measure", "5000",
                           "--json", "-"});
    ASSERT_EQ(o.rc, 0) << o.err;
    RunOptions opts;
    opts.workloads = {ServerWorkload::OltpDb2};
    opts.budget = ExperimentBudget{2000, 5000};
    EXPECT_EQ(o.out,
              toJson(runExperiment(*findExperiment("fig10-coverage"), opts),
                     2) +
                  "\n");
    EXPECT_TRUE(o.err.empty()) << o.err;
}

TEST(Cli, HelpNamesEveryVerb)
{
    const Outcome o = cli({"help"});
    EXPECT_EQ(o.rc, 0);
    for (const char *verb :
         {"list", "run", "sweep", "golden", "check", "query", "lint"})
        EXPECT_NE(o.out.find(std::string("\n  ") + verb + " "),
                  std::string::npos)
            << verb;
    EXPECT_EQ(cli({"--help"}).out, o.out);
}

} // namespace
} // namespace pifetch
