/**
 * @file
 * The lint driver: file discovery, suppression handling, and the
 * canonical JSON report for `pifetch lint`.
 *
 * Suppression syntax (parsed from the comment side channel):
 *
 *     // lint:allow(rule-id[, rule-id...]): justification
 *
 * A suppression applies to its own line and the line directly below
 * it, so it works both trailing a statement and on the line above.
 * Only line comments are recognized — block comments (like this one)
 * may document the syntax freely.
 * The justification is mandatory — it is the review record for why
 * the invariant is waived — and the ids must exist in the catalog;
 * anything else is itself a violation (`lint-bad-suppression`). A
 * suppression that no longer suppresses anything is reported too
 * (`lint-unused-suppression`), so stale waivers cannot accumulate.
 */

#pragma once

#include <string>
#include <vector>

#include "common/results.hh"
#include "lint/rules.hh"

namespace pifetch {
namespace lint {

/** What to scan and with which rules. */
struct LintOptions
{
    /** Absolute path of the repository root. Empty -> defaultRoot(). */
    std::string root;
    /**
     * Repo-relative path filters (prefix match after normalization,
     * so "src/pif" selects the directory). Empty -> the default
     * scan set: src/, examples/, tests/ (minus third-party).
     */
    std::vector<std::string> paths;
    /** Restrict to these rule ids. Empty -> the full catalog. */
    std::vector<std::string> rules;
};

/** One reported violation, file attached, suppression resolved. */
struct Finding
{
    std::string file;
    Violation violation;
    bool suppressed = false;
    /** Justification text when @ref suppressed. */
    std::string justification;
};

/** The outcome of one lint run. */
struct LintReport
{
    unsigned filesScanned = 0;
    /** All findings, suppressed ones included, in scan order. */
    std::vector<Finding> findings;

    unsigned errors() const;      ///< unsuppressed errors
    unsigned warnings() const;    ///< unsuppressed warnings
    unsigned suppressedCount() const;
    /** True when no unsuppressed error remains. */
    bool clean() const { return errors() == 0; }
};

/**
 * The repository root this binary was built from, overridable with
 * the PIFETCH_LINT_ROOT environment variable (useful when running a
 * relocated binary against a checkout elsewhere).
 */
std::string defaultRoot();

/**
 * Enumerate the scan set under @p root honoring @p filters
 * (LintOptions::paths semantics). Returns sorted repo-relative
 * paths; on I/O failure returns empty and sets @p err.
 */
std::vector<std::string> discoverSources(
    const std::string &root, const std::vector<std::string> &filters,
    std::string *err);

/**
 * Lint one in-memory source. Runs the full pipeline — context
 * collection, every catalog rule (or @p ruleFilter), suppression
 * resolution, the meta rules — exactly as runLint() would for a
 * file on disk. This is the seam tests and the fixture self-test
 * drive.
 */
std::vector<Finding> lintSource(
    const std::string &path, const std::string &content,
    const std::vector<std::string> &ruleFilter = {});

/**
 * Scan the tree. On I/O failure, or when nothing matches the root and
 * filters, sets @p err (report still partial).
 */
LintReport runLint(const LintOptions &opts, std::string *err);

/** Render a report as the canonical result tree (docs/linting.md). */
ResultValue toResult(const LintReport &report,
                     const std::string &root);

/**
 * Replay every catalog fixture: the bad snippet must fire its rule,
 * the good snippet must lint clean. Returns the per-rule failures
 * (empty means the self-test passed), mirroring the planted-fault
 * pattern of `pifetch check`.
 */
std::vector<std::string> runRuleSelfTest();

} // namespace lint
} // namespace pifetch
