/**
 * @file
 * Lint-subsystem tests: the tokenizer, every catalog rule via its
 * embedded fixtures (the planted-violation self-check), suppression
 * parsing and the meta rules, the canonical JSON report, and a scan
 * of the real tree that must come back clean.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/results.hh"
#include "lint/driver.hh"
#include "lint/lexer.hh"
#include "lint/rules.hh"

namespace pifetch {
namespace lint {
namespace {

// -------------------------------------------------------------- lexer

TEST(LintLexer, StringsAndCommentsAreNotTokens)
{
    const LexedSource lx =
        lex("int a = 1; // rand()\n"
            "const char *s = \"rand()\";\n"
            "/* std::endl */ int b;\n");
    for (const Token &t : lx.tokens) {
        EXPECT_NE(t.text, "rand");
        EXPECT_NE(t.text, "endl");
    }
    ASSERT_EQ(lx.comments.size(), 2u);
    EXPECT_FALSE(lx.comments[0].block);
    EXPECT_TRUE(lx.comments[1].block);
    EXPECT_EQ(lx.comments[0].line, 1u);
    EXPECT_EQ(lx.comments[1].line, 3u);
}

TEST(LintLexer, RawStringsSwallowDelimiters)
{
    const LexedSource lx =
        lex("auto s = R\"x(rand(); // not a comment)x\"; int tail;\n");
    ASSERT_FALSE(lx.tokens.empty());
    EXPECT_TRUE(lx.comments.empty());
    EXPECT_EQ(lx.tokens.back().text, ";");
    const bool sawTail = std::any_of(
        lx.tokens.begin(), lx.tokens.end(),
        [](const Token &t) { return t.text == "tail"; });
    EXPECT_TRUE(sawTail);
}

TEST(LintLexer, DirectivesFoldContinuations)
{
    const LexedSource lx =
        lex("#define WIDE(a) \\\n    ((a) + 1)\nint x;\n");
    ASSERT_FALSE(lx.tokens.empty());
    EXPECT_EQ(lx.tokens[0].kind, Token::Kind::Directive);
    // The body after the continuation stays inside the directive
    // token, not in the ordinary stream.
    for (std::size_t i = 1; i < lx.tokens.size(); ++i)
        EXPECT_NE(lx.tokens[i].text, "a");
}

TEST(LintLexer, LineNumbersTrackNewlines)
{
    const LexedSource lx = lex("int a;\n\nint b;\n");
    ASSERT_GE(lx.tokens.size(), 6u);
    EXPECT_EQ(lx.tokens[0].line, 1u);
    EXPECT_EQ(lx.tokens[3].line, 3u);
    EXPECT_EQ(lx.lines, 3u);
}

// -------------------------------------------- per-rule fixture replay

TEST(LintRules, SelfTestPasses)
{
    const std::vector<std::string> failures = runRuleSelfTest();
    for (const std::string &f : failures)
        ADD_FAILURE() << f;
    EXPECT_TRUE(failures.empty());
}

TEST(LintRules, EveryBadFixtureFiresItsOwnRule)
{
    for (const Rule &rule : ruleCatalog()) {
        if (rule.check == nullptr)
            continue;  // meta rules are driver-enforced
        const std::vector<Finding> bad =
            lintSource(rule.fixture.path, rule.fixture.bad, {rule.id});
        const bool fired = std::any_of(
            bad.begin(), bad.end(), [&](const Finding &f) {
                return f.violation.rule == rule.id && !f.suppressed;
            });
        EXPECT_TRUE(fired) << rule.id << ": bad fixture did not fire";

        const std::vector<Finding> good =
            lintSource(rule.fixture.path, rule.fixture.good, {rule.id});
        for (const Finding &f : good)
            EXPECT_TRUE(f.suppressed)
                << rule.id << ": good fixture fired at line "
                << f.violation.line;
    }
}

TEST(LintRules, CatalogIsWellFormed)
{
    std::set<std::string> ids;
    for (const Rule &rule : ruleCatalog()) {
        EXPECT_TRUE(ids.insert(rule.id).second)
            << "duplicate rule id " << rule.id;
        EXPECT_FALSE(rule.summary.empty()) << rule.id;
        EXPECT_FALSE(rule.rationale.empty()) << rule.id;
        EXPECT_EQ(findRule(rule.id), &rule);
    }
    EXPECT_EQ(findRule("no-such-rule"), nullptr);
    // The two driver-enforced meta rules must be present.
    EXPECT_NE(findRule("lint-bad-suppression"), nullptr);
    EXPECT_NE(findRule("lint-unused-suppression"), nullptr);
}

// ------------------------------------------------------- suppressions

namespace {

/** Unsuppressed findings for @p rule in @p findings. */
unsigned
countOpen(const std::vector<Finding> &findings, const std::string &rule)
{
    unsigned n = 0;
    for (const Finding &f : findings)
        if (f.violation.rule == rule && !f.suppressed)
            ++n;
    return n;
}

} // namespace

TEST(LintSuppression, TrailingCommentSuppresses)
{
    const std::vector<Finding> fs = lintSource(
        "src/x/y.cc",
        "int f() { return rand(); }  // lint:allow(D-rand): fixture\n");
    ASSERT_EQ(fs.size(), 1u);
    EXPECT_EQ(fs[0].violation.rule, "D-rand");
    EXPECT_TRUE(fs[0].suppressed);
    EXPECT_EQ(fs[0].justification, "fixture");
}

TEST(LintSuppression, LineAboveSuppresses)
{
    const std::vector<Finding> fs = lintSource(
        "src/x/y.cc",
        "// lint:allow(D-rand): fixture\n"
        "int f() { return rand(); }\n");
    ASSERT_EQ(fs.size(), 1u);
    EXPECT_TRUE(fs[0].suppressed);
}

TEST(LintSuppression, WindowIsOnlyOneLine)
{
    // Two lines of distance: the waiver misses, so the violation
    // stays open and the waiver itself is reported as unused.
    const std::vector<Finding> fs = lintSource(
        "src/x/y.cc",
        "// lint:allow(D-rand): fixture\n"
        "\n"
        "int f() { return rand(); }\n");
    EXPECT_EQ(countOpen(fs, "D-rand"), 1u);
    EXPECT_EQ(countOpen(fs, "lint-unused-suppression"), 1u);
}

TEST(LintSuppression, MissingJustificationIsAViolation)
{
    const std::vector<Finding> fs = lintSource(
        "src/x/y.cc",
        "int f() { return rand(); }  // lint:allow(D-rand)\n");
    EXPECT_EQ(countOpen(fs, "lint-bad-suppression"), 1u);
    EXPECT_EQ(countOpen(fs, "D-rand"), 1u);

    const std::vector<Finding> colonOnly = lintSource(
        "src/x/y.cc",
        "int f() { return rand(); }  // lint:allow(D-rand):   \n");
    EXPECT_EQ(countOpen(colonOnly, "lint-bad-suppression"), 1u);
}

TEST(LintSuppression, UnknownRuleIdIsAViolation)
{
    const std::vector<Finding> fs = lintSource(
        "src/x/y.cc",
        "int v = 1;  // lint:allow(D-bogus): no such rule\n");
    EXPECT_EQ(countOpen(fs, "lint-bad-suppression"), 1u);
}

TEST(LintSuppression, UnusedSuppressionIsAViolation)
{
    const std::vector<Finding> fs = lintSource(
        "src/x/y.cc",
        "int v = 1;  // lint:allow(D-rand): nothing here\n");
    EXPECT_EQ(countOpen(fs, "lint-unused-suppression"), 1u);
}

TEST(LintSuppression, BlockCommentsAreDocumentationOnly)
{
    // The syntax inside a block comment neither suppresses nor
    // malfunctions (driver.hh's own doc block depends on this).
    const std::vector<Finding> fs = lintSource(
        "src/x/y.cc",
        "/* lint:allow(D-rand): not a waiver */\n"
        "int f() { return rand(); }\n");
    EXPECT_EQ(countOpen(fs, "D-rand"), 1u);
    EXPECT_EQ(countOpen(fs, "lint-bad-suppression"), 0u);
    EXPECT_EQ(countOpen(fs, "lint-unused-suppression"), 0u);
}

TEST(LintSuppression, MultipleIdsInOneWaiver)
{
    const std::vector<Finding> fs = lintSource(
        "src/x/y.cc",
        "// lint:allow(D-rand, H-endl): fixture\n"
        "int f() { std::cout << std::endl; return rand(); }\n");
    EXPECT_EQ(countOpen(fs, "D-rand"), 0u);
    EXPECT_EQ(countOpen(fs, "H-endl"), 0u);
    EXPECT_EQ(countOpen(fs, "lint-unused-suppression"), 0u);
}

// -------------------------------------------------------- JSON report

TEST(LintReportJson, RoundTripsThroughParseJson)
{
    LintReport report;
    report.filesScanned = 1;
    report.findings = lintSource(
        "src/x/y.cc",
        "int f() { return rand(); }\n"
        "int g() { return rand(); }  // lint:allow(D-rand): fixture\n");
    ASSERT_EQ(report.findings.size(), 2u);
    EXPECT_EQ(report.errors(), 1u);
    EXPECT_EQ(report.suppressedCount(), 1u);
    EXPECT_FALSE(report.clean());

    const ResultValue out = toResult(report, "/tmp/repo");
    const std::string json = toJson(out);
    std::string err;
    const auto parsed = parseJson(json, &err);
    ASSERT_TRUE(parsed.has_value()) << err;
    EXPECT_EQ(*parsed, out);

    const ResultValue *summary = parsed->find("summary");
    ASSERT_NE(summary, nullptr);
    EXPECT_EQ(summary->find("errors")->uintValue(), 1u);
    EXPECT_EQ(summary->find("suppressed")->uintValue(), 1u);
    EXPECT_FALSE(summary->find("clean")->boolean());

    const ResultValue *violations = parsed->find("violations");
    ASSERT_NE(violations, nullptr);
    ASSERT_EQ(violations->size(), 2u);
    const ResultValue &first = violations->at(0);
    EXPECT_EQ(first.find("file")->str(), "src/x/y.cc");
    EXPECT_EQ(first.find("rule")->str(), "D-rand");
    EXPECT_EQ(first.find("severity")->str(), "error");
    EXPECT_EQ(first.find("line")->uintValue(), 1u);
    const ResultValue &second = violations->at(1);
    EXPECT_TRUE(second.find("suppressed")->boolean());
    EXPECT_EQ(second.find("justification")->str(), "fixture");
}

TEST(LintReportJson, ReportIsDeterministic)
{
    LintReport report;
    report.filesScanned = 1;
    report.findings =
        lintSource("src/x/y.cc", "int f() { return rand(); }\n");
    const std::string a = toJson(toResult(report, "/r"));
    const std::string b = toJson(toResult(report, "/r"));
    EXPECT_EQ(a, b);
}

// ---------------------------------------------------- the tree itself

#ifdef PIFETCH_LINT_ROOT
TEST(LintTree, RepositoryLintsClean)
{
    LintOptions opts;
    opts.root = PIFETCH_LINT_ROOT;
    std::string err;
    const LintReport report = runLint(opts, &err);
    EXPECT_TRUE(err.empty()) << err;
    EXPECT_GT(report.filesScanned, 100u);
    for (const Finding &f : report.findings) {
        if (!f.suppressed) {
            ADD_FAILURE()
                << f.file << ":" << f.violation.line << ": "
                << f.violation.rule << ": " << f.violation.message;
        }
    }
    EXPECT_TRUE(report.clean());
    EXPECT_EQ(report.warnings(), 0u);
    // Every waiver in the tree carries its review record.
    for (const Finding &f : report.findings) {
        if (f.suppressed) {
            EXPECT_FALSE(f.justification.empty())
                << f.file << ":" << f.violation.line;
        }
    }
}

TEST(LintTree, PathFiltersNarrowTheScan)
{
    LintOptions all;
    all.root = PIFETCH_LINT_ROOT;
    LintOptions some = all;
    some.paths = {"src/lint"};
    std::string err;
    const LintReport rAll = runLint(all, &err);
    const LintReport rSome = runLint(some, &err);
    EXPECT_TRUE(err.empty()) << err;
    EXPECT_LT(rSome.filesScanned, rAll.filesScanned);
    EXPECT_GE(rSome.filesScanned, 6u);  // the lint subsystem itself

    // A filter that matches nothing (a typo) is an error, not clean.
    LintOptions none = all;
    none.paths = {"src/cahce"};
    const LintReport rNone = runLint(none, &err);
    EXPECT_EQ(rNone.filesScanned, 0u);
    EXPECT_NE(err.find("src/cahce"), std::string::npos) << err;
}
#endif

} // namespace
} // namespace lint
} // namespace pifetch
