/**
 * @file
 * Golden-snapshot regression suite.
 *
 * Locks the registry's structured output for Fig. 2, Fig. 8 (right),
 * Fig. 9 (right), Fig. 10 (coverage and speedup) and the ablation at
 * small pinned budgets against committed fixtures
 * (tests/golden/<experiment>.json). The
 * serialization must be byte-identical to the fixture at worker
 * thread counts 1 and 4 — the determinism contract of the worker
 * pool plus the canonical-JSON contract of common/results.hh.
 *
 * To regenerate intentionally (after a simulator behavior change),
 * run scripts/regold.sh and commit the diff with an explanation.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "sim/registry.hh"

#ifndef PIFETCH_GOLDEN_DIR
#error "PIFETCH_GOLDEN_DIR must point at tests/golden"
#endif

namespace pifetch {
namespace {

std::string
fixturePath(const GoldenEntry &e)
{
    return std::string(PIFETCH_GOLDEN_DIR) + "/" + goldenFixtureName(e) +
           ".json";
}

bool
readFile(const std::string &path, std::string &out)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        return false;
    std::ostringstream ss;
    ss << is.rdbuf();
    out = ss.str();
    return true;
}

/** Point the first mismatching line out instead of dumping both docs. */
void
expectSameBytes(const std::string &fixture, const std::string &got,
                const std::string &what)
{
    if (fixture == got)
        return;
    std::istringstream a(fixture);
    std::istringstream b(got);
    std::string la;
    std::string lb;
    unsigned line = 0;
    while (true) {
        const bool ha = static_cast<bool>(std::getline(a, la));
        const bool hb = static_cast<bool>(std::getline(b, lb));
        ++line;
        if (!ha && !hb)
            break;
        if (la != lb || ha != hb) {
            FAIL() << what << ": first difference at line " << line
                   << "\n  fixture: " << (ha ? la : "<eof>")
                   << "\n  got:     " << (hb ? lb : "<eof>")
                   << "\nIf the simulator change is intentional, "
                      "regenerate with scripts/regold.sh.";
        }
    }
    FAIL() << what << ": documents differ";  // unreachable safety net
}

TEST(GoldenSuite, CoversTheIssueExperiments)
{
    // The suite must keep locking at least these six documents.
    std::set<std::string> locked;
    for (const GoldenEntry &e : goldenSuite()) {
        locked.insert(goldenFixtureName(e));
        ASSERT_NE(findExperiment(e.experiment), nullptr)
            << e.experiment;
    }
    for (const char *name : {"fig2-streams", "fig8-regionsize",
                             "fig9-history", "fig10-coverage",
                             "fig10-speedup", "ablation"}) {
        EXPECT_EQ(locked.count(name), 1u) << name;
    }
}

TEST(GoldenSuite, CoversTheWorkloadZoo)
{
    // The spec-driven fixtures lock the declarative-workload pipeline
    // (lower -> link -> phase schedule) end to end; fixture names must
    // stay unique or two entries would race on one file.
    bool fanout = false;
    bool storm = false;
    std::set<std::string> names;
    for (const GoldenEntry &e : goldenSuite()) {
        fanout |= goldenFixtureName(e) == "zoo-microservice-fanout";
        storm |= goldenFixtureName(e) == "zoo-cold-start-storm";
        EXPECT_TRUE(names.insert(goldenFixtureName(e)).second)
            << "duplicate fixture name " << goldenFixtureName(e);
    }
    EXPECT_TRUE(fanout && storm);
}

TEST(GoldenSuite, MatchesFixturesAtOneAndFourThreads)
{
    for (const GoldenEntry &e : goldenSuite()) {
        SCOPED_TRACE(e.experiment);
        std::string fixture;
        ASSERT_TRUE(readFile(fixturePath(e), fixture))
            << "missing fixture " << fixturePath(e)
            << " — generate it with scripts/regold.sh";

        const std::string serial = goldenJson(e, 1);
        expectSameBytes(fixture, serial, e.experiment + " (threads=1)");

        const std::string pooled = goldenJson(e, 4);
        expectSameBytes(fixture, pooled, e.experiment + " (threads=4)");
    }
}

TEST(GoldenSuite, FixturesAreValidCanonicalJson)
{
    for (const GoldenEntry &e : goldenSuite()) {
        SCOPED_TRACE(e.experiment);
        std::string fixture;
        ASSERT_TRUE(readFile(fixturePath(e), fixture));
        std::string err;
        const auto doc = parseJson(fixture, &err);
        ASSERT_TRUE(doc.has_value()) << err;
        EXPECT_EQ(doc->find("experiment")->str(), e.experiment);
        EXPECT_EQ(doc->find("meta")->find("mode")->str(), "golden");
        ASSERT_NE(doc->find("tables"), nullptr);
        EXPECT_GT(doc->find("tables")->size(), 0u);
        // Canonical form: re-serializing the parsed document yields
        // the fixture bytes again.
        EXPECT_EQ(toJson(*doc, 2) + "\n", fixture);
    }
}

} // namespace
} // namespace pifetch
