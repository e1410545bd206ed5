/**
 * @file
 * The project rule catalog for `pifetch lint`.
 *
 * Each rule encodes one invariant this reproduction depends on but
 * that the compiler cannot enforce, in three classes:
 *
 *  - D (determinism): results must be bit-identical across runs,
 *    thread counts and standard-library implementations. The golden
 *    suite catches a violation only after the nondeterminism fires;
 *    these rules reject the *sources* of nondeterminism outright.
 *  - H (hot path): the replay loop stays allocation-free and
 *    devirtualized (the PR 4 speedup), and concrete prefetcher /
 *    predictor types stay `final` so engine dispatch keeps
 *    monomorphizing.
 *  - S (structure): header hygiene.
 *
 * Every rule ships with a positive and a negative fixture snippet;
 * `pifetch lint --self-test` (and tests/test_lint.cc) replays them
 * so a rule that silently stops firing fails the build, mirroring
 * the planted-fault self-check of `pifetch check`.
 *
 * Rules match the token stream from src/lint/lexer.hh, so banned
 * names inside strings or comments are never flagged. Suppression
 * syntax and policy live in src/lint/driver.hh.
 */

#pragma once

#include <string>
#include <vector>

#include "lint/lexer.hh"

namespace pifetch {
namespace lint {

enum class Severity { Error, Warning };

/** Severity as its canonical report key. */
std::string severityKey(Severity s);

/** One rule hit inside a single file. */
struct Violation
{
    std::string rule;
    Severity severity = Severity::Error;
    unsigned line = 0;
    std::string message;
};

/** One source file presented to the rules. */
struct SourceFile
{
    /** Repo-relative path with '/' separators, e.g. "src/pif/sab.cc". */
    std::string path;
    LexedSource lex;
};

/**
 * Cross-file facts collected in a pre-pass over every scanned file.
 * Today: the names of variables/members declared with an unordered
 * container type, so iteration in a .cc over a member declared in
 * its header is still caught. A declaration only applies to files
 * sharing its path stem (cycle_engine.cc <-> cycle_engine.hh):
 * matching on the bare name repo-wide would flag every same-named
 * vector elsewhere.
 */
struct LintContext
{
    /** Variable name -> path stem (path minus extension) declaring
     *  it as unordered_{map,set}. */
    std::vector<std::pair<std::string, std::string>> unorderedVars;

    bool isUnorderedVar(const std::string &name,
                        const std::string &stem) const;
};

/** @p path without its extension: "src/sim/trace_engine.cc" ->
 *  ".../trace_engine". */
std::string pathStem(const std::string &path);

/** Self-test fixture: @p bad must fire the rule, @p good must not. */
struct RuleFixture
{
    /** Pretend path, so path-scoped rules exercise their scope. */
    std::string path;
    std::string bad;
    std::string good;
};

/** One entry of the catalog. */
struct Rule
{
    std::string id;         ///< e.g. "D-rand"
    std::string category;   ///< determinism | hot-path | structure
    Severity severity = Severity::Error;
    std::string summary;    ///< one line, for --list-rules
    std::string rationale;  ///< why the project needs it
    RuleFixture fixture;
    /** nullptr for rules the driver enforces itself (suppressions). */
    void (*check)(const SourceFile &, const LintContext &,
                  const Rule &, std::vector<Violation> &) = nullptr;
};

/** The full catalog, stable order (D*, H*, S*). */
const std::vector<Rule> &ruleCatalog();

/** Catalog lookup; nullptr for unknown ids. */
const Rule *findRule(const std::string &id);

/** Pre-pass: record @p file's unordered-container declarations. */
void collectContext(const SourceFile &file, LintContext &ctx);

/**
 * Run @p rules over one file. Suppressions are *not* applied here —
 * that is the driver's job (src/lint/driver.hh) so rule logic stays
 * purely syntactic.
 */
std::vector<Violation> runRules(const SourceFile &file,
                                const LintContext &ctx,
                                const std::vector<const Rule *> &rules);

} // namespace lint
} // namespace pifetch
