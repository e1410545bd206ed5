/**
 * @file
 * Experiment-registry tests: lookup, document shape, config
 * overrides, parameter sweeps, and the thread-count invariance the
 * CLI and golden suite rely on.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "sim/registry.hh"

namespace pifetch {
namespace {

RunOptions
tinyOptions()
{
    RunOptions opts;
    ExperimentBudget b;
    b.warmup = 60'000;
    b.measure = 120'000;
    opts.budget = b;
    opts.workloads = {ServerWorkload::OltpDb2};
    return opts;
}

TEST(Registry, NamesAreUniqueAndFindable)
{
    std::set<std::string> names;
    for (const ExperimentSpec &spec : experimentRegistry()) {
        EXPECT_FALSE(spec.name.empty());
        EXPECT_FALSE(spec.description.empty());
        EXPECT_TRUE(names.insert(spec.name).second)
            << "duplicate " << spec.name;
        EXPECT_EQ(findExperiment(spec.name), &spec);
        EXPECT_FALSE(spec.defaultWorkloads.empty());
        ASSERT_TRUE(static_cast<bool>(spec.run));
    }
    EXPECT_EQ(findExperiment("no-such-experiment"), nullptr);
    // The paper's full evaluation: figures, the table, the ablation.
    for (const char *required :
         {"table1", "fig2-streams", "fig3-regions", "fig7-jumpdist",
          "fig8-offsets", "fig8-regionsize", "fig9-streamlen",
          "fig9-history", "fig10-coverage", "fig10-speedup",
          "ablation"}) {
        EXPECT_NE(findExperiment(required), nullptr) << required;
    }
}

TEST(Registry, DocumentHasTheConventionShape)
{
    const ExperimentSpec *spec = findExperiment("fig2-streams");
    ASSERT_NE(spec, nullptr);
    const ResultValue doc = runExperiment(*spec, tinyOptions());

    EXPECT_EQ(doc.find("experiment")->str(), "fig2-streams");
    EXPECT_FALSE(doc.find("description")->str().empty());
    const ResultValue *meta = doc.find("meta");
    ASSERT_NE(meta, nullptr);
    EXPECT_EQ(meta->find("seed")->uintValue(), 42u);
    EXPECT_EQ(meta->find("warmup")->uintValue(), 60'000u);
    EXPECT_EQ(meta->find("measure")->uintValue(), 120'000u);
    EXPECT_GE(meta->find("threads")->uintValue(), 1u);
    EXPECT_FALSE(meta->find("git")->str().empty());
    ASSERT_NE(meta->find("config"), nullptr);
    EXPECT_EQ(meta->find("workloads")->at(0).str(), "db2");

    const ResultValue *tables = doc.find("tables");
    ASSERT_NE(tables, nullptr);
    ASSERT_GT(tables->size(), 0u);
    const ResultValue &t = tables->at(0);
    ASSERT_NE(t.find("columns"), nullptr);
    const ResultValue *rows = t.find("rows");
    ASSERT_NE(rows, nullptr);
    ASSERT_EQ(rows->size(), 1u);  // one selected workload
    EXPECT_EQ(rows->at(0).size(), t.find("columns")->size());
    EXPECT_EQ(rows->at(0).at(1).str(), "DB2");
}

TEST(Registry, AnalysisExperimentRunsFromMeasureBudget)
{
    const ExperimentSpec *spec = findExperiment("fig3-regions");
    ASSERT_NE(spec, nullptr);
    const ResultValue doc = runExperiment(*spec, tinyOptions());
    const ResultValue *tables = doc.find("tables");
    ASSERT_NE(tables, nullptr);
    EXPECT_EQ(tables->size(), 2u);  // density + groups
}

TEST(Registry, ResultsAreThreadCountInvariant)
{
    const ExperimentSpec *spec = findExperiment("fig10-coverage");
    ASSERT_NE(spec, nullptr);
    RunOptions serial = tinyOptions();
    serial.cfg.threads = 1;
    RunOptions pooled = tinyOptions();
    pooled.cfg.threads = 4;

    ResultValue a = runExperiment(*spec, serial);
    ResultValue b = runExperiment(*spec, pooled);
    // The resolved thread count is the only legitimate difference.
    a.find("meta")->set("threads", 0u);
    b.find("meta")->set("threads", 0u);
    EXPECT_EQ(toJson(a), toJson(b));
}

TEST(ConfigOverrides, ApplyParseAndReject)
{
    SystemConfig cfg;
    EXPECT_TRUE(applyConfigOverride(cfg, "pif.historyRegions", "1024"));
    EXPECT_EQ(cfg.pif.historyRegions, 1024u);
    EXPECT_TRUE(applyConfigOverride(cfg, "seed", "0x10"));
    EXPECT_EQ(cfg.seed, 16u);
    EXPECT_TRUE(applyConfigOverride(cfg, "pif.separateTrapLevels",
                                    "off"));
    EXPECT_FALSE(cfg.pif.separateTrapLevels);
    EXPECT_TRUE(applyConfigOverride(cfg, "nextLine.degree", "8"));
    EXPECT_EQ(cfg.nextLine.degree, 8u);

    EXPECT_FALSE(applyConfigOverride(cfg, "no.such.key", "1"));
    // Interrupt rates are workload parameters: no trap.* key exists.
    EXPECT_FALSE(applyConfigOverride(cfg, "trap.perInstrProbability",
                                     "1e-4"));
    EXPECT_FALSE(applyConfigOverride(cfg, "trap.handlerCount", "1"));
    // The engines model one core, so no numCores key exists either.
    EXPECT_FALSE(applyConfigOverride(cfg, "numCores", "1"));
    EXPECT_FALSE(applyConfigOverride(cfg, "seed", "notanumber"));
    EXPECT_FALSE(applyConfigOverride(cfg, "pif.separateTrapLevels",
                                     "maybe"));

    // Every advertised key accepts at least one sensible value.
    for (const std::string &key : configOverrideKeys()) {
        SystemConfig scratch;
        const bool ok = applyConfigOverride(scratch, key, "1") ||
                        applyConfigOverride(scratch, key, "true");
        EXPECT_TRUE(ok) << key;
    }
}

TEST(ConfigOverrides, EveryKeyChangesSomeResultTable)
{
    // A key that is accepted and read by no engine would run every
    // point of a sweep under a label that changes nothing. Each key's
    // second value must move the tables of some experiment that reads
    // the config. Table I echoes the config, so it does not count.
    const std::map<std::string, std::string> second = {
        {"seed", "7"},
        {"l1i.sizeBytes", "16384"},
        {"l1i.assoc", "4"},
        {"l1i.mshrs", "1"},
        {"memory.memLatency", "300"},
        {"memory.l2HitLatency", "40"},
        {"core.robEntries", "24"},
        {"core.dispatchWidth", "1"},
        {"core.retireWidth", "1"},
        {"pif.blocksBefore", "0"},
        {"pif.blocksAfter", "1"},
        {"pif.temporalEntries", "1"},
        {"pif.historyRegions", "64"},
        {"pif.indexEntries", "64"},
        {"pif.numSabs", "1"},
        {"pif.sabWindowRegions", "1"},
        {"pif.separateTrapLevels", "0"},
        {"tifs.historyEntries", "64"},
        {"tifs.sabWindowBlocks", "1"},
        {"nextLine.degree", "1"},
    };
    // Results are thread-invariant, so threads alone is exempt. A new
    // key fails here until it has a reader and a value above.
    std::set<std::string> keys(configOverrideKeys().begin(),
                               configOverrideKeys().end());
    keys.erase("threads");
    std::set<std::string> valued;
    for (const auto &kv : second)
        valued.insert(kv.first);
    EXPECT_EQ(keys, valued);

    RunOptions base = tinyOptions();
    base.budget = ExperimentBudget{20'000, 50'000};
    const auto tablesOf = [](const ExperimentSpec &spec,
                             const RunOptions &opts) {
        return toJson(*runExperiment(spec, opts).find("tables"));
    };
    std::map<std::string, std::string> baseline;
    for (const auto &[key, value] : second) {
        RunOptions changed = base;
        ASSERT_TRUE(applyConfigOverride(changed.cfg, key, value)) << key;
        ASSERT_FALSE(validateSystemConfig(changed.cfg).has_value())
            << key;
        bool moved = false;
        for (const ExperimentSpec &spec : experimentRegistry()) {
            if (!spec.usesConfig || spec.name == "table1")
                continue;
            auto [it, fresh] = baseline.try_emplace(spec.name);
            if (fresh)
                it->second = tablesOf(spec, base);
            if (tablesOf(spec, changed) != it->second) {
                moved = true;
                break;
            }
        }
        EXPECT_TRUE(moved) << key << "=" << value
                           << " changes no result table";
    }
}

TEST(ConfigOverrides, RefuseValuesWiderThanTheirField)
{
    SystemConfig cfg;
    // 2^32 + 4 SABs would run as 4, and 2^32 + 1 threads as 1.
    EXPECT_FALSE(applyConfigOverride(cfg, "pif.numSabs", "4294967300"));
    EXPECT_FALSE(applyConfigOverride(cfg, "threads", "4294967297"));
    EXPECT_EQ(cfg.pif.numSabs, SystemConfig{}.pif.numSabs);
    EXPECT_EQ(cfg.threads, 0u);
    EXPECT_TRUE(applyConfigOverride(cfg, "seed", "18446744073709551615"));
    EXPECT_TRUE(applyConfigOverride(cfg, "l1i.assoc", "4294967295"));
}

TEST(ConfigOverrides, ValidateRejectsWhatTheSimulatorCannotRun)
{
    EXPECT_FALSE(validateSystemConfig(SystemConfig{}).has_value());
    // Before the bounds, each invalid value crashed, hung, stopped in a
    // constructor's fatalError() mid-run, or ran as another value.
    // Zero stays legal where it means unbounded.
    const struct
    {
        const char *key, *value;
        bool valid;
    } cases[] = {
        {"l1i.assoc", "0", false},
        {"core.retireWidth", "0", false},
        {"core.dispatchWidth", "0", false},
        {"pif.numSabs", "0", false},
        {"l1i.mshrs", "4294967295", false},
        {"pif.historyRegions", "4294967295", false},
        {"tifs.historyEntries", "4294967295", false},
        {"tifs.historyEntries", "0", false},
        {"nextLine.degree", "4294967295", false},
        {"l1i.sizeBytes", "1000", false},
        {"pif.blocksBefore", "31", false},
        {"threads", "257", false},
        {"pif.historyRegions", "0", true},
        {"pif.indexEntries", "0", true},
    };
    for (const auto &c : cases) {
        SystemConfig cfg;
        ASSERT_TRUE(applyConfigOverride(cfg, c.key, c.value)) << c.key;
        EXPECT_EQ(validateSystemConfig(cfg).has_value(), !c.valid)
            << c.key << "=" << c.value;
    }
}

TEST(Sweep, PointParamsEnumerateFirstAxisOutermost)
{
    const std::vector<SweepAxis> axes = {
        {"pif.blocksBefore", {"1", "2", "3"}},
        {"pif.blocksAfter", {"2", "4"}},
        {"l1i.assoc", {"2", "4"}}};
    ASSERT_EQ(sweepPointCount(axes), 12u);
    EXPECT_EQ(sweepPointCount({}), 0u);
    // Manual cartesian enumeration, last axis fastest.
    std::uint64_t p = 0;
    for (const std::string &a : axes[0].values) {
        for (const std::string &b : axes[1].values) {
            for (const std::string &c : axes[2].values) {
                const std::vector<std::pair<std::string, std::string>>
                    want = {{"pif.blocksBefore", a},
                            {"pif.blocksAfter", b},
                            {"l1i.assoc", c}};
                EXPECT_EQ(sweepPointParams(axes, p), want)
                    << "point " << p;
                ++p;
            }
        }
    }
}

TEST(Sweep, ValidateGridRefusesPointsThatWouldNotRunAsLabelled)
{
    const SystemConfig base;
    EXPECT_FALSE(validateSweepGrid({{"pif.blocksBefore", {"1", "2"}},
                                    {"pif.blocksAfter", {"2", "4"}}},
                                   base)
                     .has_value());

    const std::vector<std::string> ones(1025, "1");
    const struct
    {
        std::vector<SweepAxis> axes;
        const char *why;
    } cases[] = {
        // An unparsable value would run the default under its label.
        {{{"pif.blocksBefore", {"1", "zzz"}}}, "pif.blocksBefore=zzz"},
        // A point the simulator cannot run would stop the sweep midway.
        {{{"pif.numSabs", {"1", "0"}}}, "pif.numSabs=0"},
        {{{"threads", {"1", "2"}}}, "threads"},
        // The later override wins, so the first axis would vanish.
        {{{"pif.numSabs", {"1", "2"}}, {"pif.numSabs", {"4", "8"}}},
         "sweep axis pif.numSabs given twice"},
        {{{"pif.blocksBefore", ones},
          {"pif.blocksAfter", {ones.begin(), ones.end() - 1}}},
         "above 2^20 points"},
        // An unknown key gets the --set message, not a value's blame.
        {{{"numCores", {"1", "16"}}},
         "bad override 'numCores=1' (see `pifetch list` for keys)"},
    };
    for (const auto &c : cases) {
        const auto err = validateSweepGrid(c.axes, base);
        ASSERT_TRUE(err.has_value()) << c.why;
        EXPECT_NE(err->find(c.why), std::string::npos) << *err;
    }

    // Exactly 2^20 points is within the cap: the points are checked.
    const auto at_cap = validateSweepGrid(
        {{"pif.blocksBefore", std::vector<std::string>(1024, "zzz")},
         {"pif.blocksAfter", std::vector<std::string>(1024, "1")}},
        base);
    ASSERT_TRUE(at_cap.has_value());
    EXPECT_NE(at_cap->find("bad override"), std::string::npos)
        << *at_cap;
}

TEST(Sweep, DocumentIsThreadInvariantAndEachRunIsItsPoint)
{
    const ExperimentSpec *spec = findExperiment("fig10-coverage");
    ASSERT_NE(spec, nullptr);
    const std::vector<SweepAxis> axes = {
        {"pif.blocksBefore", {"1", "2"}}, {"pif.blocksAfter", {"2", "4"}}};
    RunOptions base = tinyOptions();
    base.budget = ExperimentBudget{20'000, 50'000};
    ASSERT_FALSE(validateSweepGrid(axes, base.cfg).has_value());

    base.cfg.threads = 1;
    const ResultValue doc = runSweep(*spec, base, axes);
    base.cfg.threads = 4;
    EXPECT_EQ(toJson(runSweep(*spec, base, axes), 2), toJson(doc, 2));

    EXPECT_EQ(doc.find("experiment")->str(), "fig10-coverage");
    EXPECT_EQ(doc.find("points")->uintValue(), 4u);
    const ResultValue *runs = doc.find("runs");
    ASSERT_NE(runs, nullptr);
    ASSERT_EQ(runs->size(), 4u);
    for (std::uint64_t p = 0; p < 4; ++p) {
        const auto params = sweepPointParams(axes, p);
        RunOptions point = base;
        point.cfg.threads = 1;
        for (const auto &[key, value] : params)
            ASSERT_TRUE(applyConfigOverride(point.cfg, key, value));
        const ResultValue &run = runs->at(p);
        EXPECT_EQ(toJson(*run.find("result")),
                  toJson(runExperiment(*spec, point)))
            << "point " << p;
        const ResultValue *labels = run.find("params");
        ASSERT_EQ(labels->size(), params.size());
        for (std::size_t j = 0; j < params.size(); ++j) {
            EXPECT_EQ(labels->member(j).first, params[j].first);
            EXPECT_EQ(labels->member(j).second.str(), params[j].second);
        }
    }
}

TEST(GoldenEntries, ReferenceRegisteredExperiments)
{
    ASSERT_FALSE(goldenSuite().empty());
    for (const GoldenEntry &e : goldenSuite()) {
        EXPECT_NE(findExperiment(e.experiment), nullptr)
            << e.experiment;
        ASSERT_TRUE(e.options.budget.has_value());
        EXPECT_LE(e.options.budget->measure, 1'000'000u);
        EXPECT_FALSE(e.options.workloads.empty());
    }
}

} // namespace
} // namespace pifetch
