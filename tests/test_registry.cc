/**
 * @file
 * Experiment-registry tests: lookup, document shape, config
 * overrides, and the thread-count invariance the CLI and golden
 * suite rely on.
 */

#include <gtest/gtest.h>

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
    EXPECT_TRUE(applyConfigOverride(cfg, "trap.perInstrProbability",
                                    "1e-4"));
    EXPECT_DOUBLE_EQ(cfg.trap.perInstrProbability, 1e-4);
    EXPECT_TRUE(applyConfigOverride(cfg, "nextLine.degree", "8"));
    EXPECT_EQ(cfg.nextLine.degree, 8u);

    EXPECT_FALSE(applyConfigOverride(cfg, "no.such.key", "1"));
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
