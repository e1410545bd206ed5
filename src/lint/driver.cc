/**
 * @file
 * Lint driver implementation.
 */

#include "lint/driver.hh"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace pifetch {
namespace lint {

namespace {

namespace fs = std::filesystem;

/** One parsed `lint:allow` annotation. */
struct Suppression
{
    unsigned line = 0;
    std::vector<std::string> ids;
    std::string justification;
    bool used = false;
};

std::string
trim(const std::string &s)
{
    std::size_t b = s.find_first_not_of(" \t");
    if (b == std::string::npos)
        return "";
    std::size_t e = s.find_last_not_of(" \t");
    return s.substr(b, e - b + 1);
}

bool
startsWith(const std::string &s, const std::string &prefix)
{
    return s.compare(0, prefix.size(), prefix) == 0;
}

bool
endsWith(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(),
                     suffix) == 0;
}

void
addMeta(std::vector<Finding> &out, const std::string &file,
        const char *ruleId, unsigned line, std::string message)
{
    Finding f;
    f.file = file;
    f.violation.rule = ruleId;
    f.violation.severity = Severity::Error;
    f.violation.line = line;
    f.violation.message = std::move(message);
    out.push_back(std::move(f));
}

/**
 * Parse the suppressions in @p comments. Malformed annotations are
 * reported straight into @p meta as lint-bad-suppression findings
 * and do not suppress anything.
 */
std::vector<Suppression>
parseSuppressions(const std::string &file,
                  const std::vector<Comment> &comments,
                  std::vector<Finding> &meta)
{
    std::vector<Suppression> sups;
    for (const Comment &cm : comments) {
        // Annotations are line comments only (docs/linting.md), so
        // block-comment documentation of the syntax never parses.
        if (cm.block)
            continue;
        const std::size_t pos = cm.text.find("lint:allow");
        if (pos == std::string::npos)
            continue;
        const std::string rest = cm.text.substr(pos + 10);
        const auto bad = [&](const std::string &why) {
            addMeta(meta, file, "lint-bad-suppression", cm.line,
                    "malformed suppression: " + why +
                        " (expected \"lint:allow(rule-id): "
                        "justification\")");
        };
        if (rest.empty() || rest[0] != '(') {
            bad("missing '(' after lint:allow");
            continue;
        }
        const std::size_t close = rest.find(')');
        if (close == std::string::npos) {
            bad("missing ')'");
            continue;
        }
        Suppression s;
        s.line = cm.line;
        std::stringstream ids(rest.substr(1, close - 1));
        std::string id;
        bool idsOk = true;
        while (std::getline(ids, id, ',')) {
            id = trim(id);
            if (id.empty()) {
                bad("empty rule id");
                idsOk = false;
                break;
            }
            if (!findRule(id)) {
                bad("unknown rule id '" + id + "'");
                idsOk = false;
                break;
            }
            s.ids.push_back(id);
        }
        if (!idsOk || s.ids.empty()) {
            if (idsOk)
                bad("no rule id");
            continue;
        }
        std::string tail = trim(rest.substr(close + 1));
        if (tail.empty() || tail[0] != ':' ||
            trim(tail.substr(1)).empty()) {
            bad("missing justification");
            continue;
        }
        s.justification = trim(tail.substr(1));
        sups.push_back(std::move(s));
    }
    return sups;
}

/** Active rules for a run; sets @p err on an unknown id. */
std::vector<const Rule *>
selectRules(const std::vector<std::string> &filter, std::string *err)
{
    std::vector<const Rule *> rules;
    if (filter.empty()) {
        for (const Rule &r : ruleCatalog())
            rules.push_back(&r);
        return rules;
    }
    for (const std::string &id : filter) {
        const Rule *r = findRule(id);
        if (!r) {
            if (err)
                *err = "unknown rule id '" + id + "'";
            return {};
        }
        rules.push_back(r);
    }
    return rules;
}

/** With a --rule filter the suppression meta rules may be off. */
bool
metaEnabled(const std::vector<std::string> &filter)
{
    if (filter.empty())
        return true;
    for (const std::string &id : filter)
        if (startsWith(id, "lint-"))
            return true;
    return false;
}

/**
 * Rule + suppression resolution for one lexed file. Appends the
 * file's findings (suppressed included, then meta findings) in
 * deterministic order.
 */
void
lintOne(const SourceFile &src, const LintContext &ctx,
        const std::vector<const Rule *> &rules, bool meta,
        std::vector<Finding> &out)
{
    std::vector<Finding> metaFindings;
    std::vector<Suppression> sups =
        parseSuppressions(src.path, src.lex.comments, metaFindings);

    for (Violation &v : runRules(src, ctx, rules)) {
        Finding f;
        f.file = src.path;
        f.violation = std::move(v);
        for (Suppression &s : sups) {
            if (f.violation.line != s.line &&
                f.violation.line != s.line + 1)
                continue;
            if (std::find(s.ids.begin(), s.ids.end(),
                          f.violation.rule) == s.ids.end())
                continue;
            f.suppressed = true;
            f.justification = s.justification;
            s.used = true;
            break;
        }
        out.push_back(std::move(f));
    }

    if (!meta)
        return;
    for (const Suppression &s : sups) {
        if (s.used)
            continue;
        std::string idList;
        for (const std::string &id : s.ids)
            idList += (idList.empty() ? "" : ", ") + id;
        addMeta(metaFindings, src.path, "lint-unused-suppression",
                s.line,
                "suppression for " + idList +
                    " no longer matches any violation; delete it");
    }
    std::stable_sort(metaFindings.begin(), metaFindings.end(),
                     [](const Finding &a, const Finding &b) {
                         return a.violation.line < b.violation.line;
                     });
    for (Finding &f : metaFindings)
        out.push_back(std::move(f));
}

bool
isSourceExtension(const std::string &path)
{
    return endsWith(path, ".hh") || endsWith(path, ".h") ||
           endsWith(path, ".cc") || endsWith(path, ".cpp");
}

bool
matchesFilters(const std::string &rel,
               const std::vector<std::string> &filters)
{
    if (filters.empty())
        return true;
    for (std::string f : filters) {
        while (startsWith(f, "./"))
            f = f.substr(2);
        while (!f.empty() && f.back() == '/')
            f.pop_back();
        if (rel == f || startsWith(rel, f + "/") || startsWith(rel, f))
            return true;
    }
    return false;
}

} // namespace

unsigned
LintReport::errors() const
{
    unsigned n = 0;
    for (const Finding &f : findings)
        n += !f.suppressed &&
             f.violation.severity == Severity::Error;
    return n;
}

unsigned
LintReport::warnings() const
{
    unsigned n = 0;
    for (const Finding &f : findings)
        n += !f.suppressed &&
             f.violation.severity == Severity::Warning;
    return n;
}

unsigned
LintReport::suppressedCount() const
{
    unsigned n = 0;
    for (const Finding &f : findings)
        n += f.suppressed;
    return n;
}

std::string
defaultRoot()
{
    if (const char *env = std::getenv("PIFETCH_LINT_ROOT"))
        return env;
#ifdef PIFETCH_SOURCE_ROOT
    return PIFETCH_SOURCE_ROOT;
#else
    return ".";
#endif
}

std::vector<std::string>
discoverSources(const std::string &root,
                const std::vector<std::string> &filters,
                std::string *err)
{
    static const char *scanDirs[] = {"src", "examples", "tests"};
    std::vector<std::string> out;
    std::error_code ec;
    for (const char *dir : scanDirs) {
        const fs::path base = fs::path(root) / dir;
        if (!fs::is_directory(base, ec))
            continue;
        for (fs::recursive_directory_iterator
                 it(base, fs::directory_options::skip_permission_denied,
                    ec),
             end;
             it != end; it.increment(ec)) {
            if (ec) {
                if (err)
                    *err = "scan failed under " + base.string() +
                           ": " + ec.message();
                return {};
            }
            if (it->is_directory()) {
                const std::string name = it->path().filename().string();
                if (name == "third_party" || name == "build")
                    it.disable_recursion_pending();
                continue;
            }
            if (!it->is_regular_file())
                continue;
            std::string rel =
                fs::path(it->path())
                    .lexically_relative(fs::path(root))
                    .generic_string();
            if (!isSourceExtension(rel))
                continue;
            if (!matchesFilters(rel, filters))
                continue;
            out.push_back(std::move(rel));
        }
    }
    std::sort(out.begin(), out.end());
    return out;
}

std::vector<Finding>
lintSource(const std::string &path, const std::string &content,
           const std::vector<std::string> &ruleFilter)
{
    SourceFile src;
    src.path = path;
    src.lex = lex(content);

    LintContext ctx;
    collectContext(src, ctx);

    std::string err;
    const std::vector<const Rule *> rules =
        selectRules(ruleFilter, &err);

    std::vector<Finding> out;
    lintOne(src, ctx, rules, metaEnabled(ruleFilter), out);
    return out;
}

LintReport
runLint(const LintOptions &opts, std::string *err)
{
    LintReport report;
    const std::string root =
        opts.root.empty() ? defaultRoot() : opts.root;

    std::vector<const Rule *> rules = selectRules(opts.rules, err);
    if (err && !err->empty())
        return report;

    const std::vector<std::string> paths =
        discoverSources(root, opts.paths, err);
    if (err && !err->empty())
        return report;
    // A mistyped path or root scans nothing; that is not a clean tree.
    if (paths.empty()) {
        if (err) {
            *err = "no source files under " + root;
            for (std::size_t i = 0; i < opts.paths.size(); ++i)
                *err += (i ? ", " : " match ") + opts.paths[i];
        }
        return report;
    }

    // Pass 1: lex everything and gather the cross-file context, so
    // a .cc iterating a member its header declares unordered is
    // still caught.
    std::vector<SourceFile> files;
    files.reserve(paths.size());
    LintContext ctx;
    for (const std::string &rel : paths) {
        std::ifstream in(fs::path(root) / rel,
                         std::ios::in | std::ios::binary);
        if (!in) {
            if (err)
                *err = "cannot read " + rel;
            return report;
        }
        std::ostringstream buf;
        buf << in.rdbuf();
        SourceFile src;
        src.path = rel;
        src.lex = lex(buf.str());
        collectContext(src, ctx);
        files.push_back(std::move(src));
    }

    // Pass 2: rules + suppressions per file, in sorted file order.
    const bool meta = metaEnabled(opts.rules);
    for (const SourceFile &src : files)
        lintOne(src, ctx, rules, meta, report.findings);
    report.filesScanned = static_cast<unsigned>(files.size());
    return report;
}

ResultValue
toResult(const LintReport &report, const std::string &root)
{
    ResultValue doc = ResultValue::object();

    ResultValue meta = ResultValue::object();
    meta.set("tool", "pifetch lint");
    meta.set("root", root);
    meta.set("rules", static_cast<unsigned>(ruleCatalog().size()));
    doc.set("meta", std::move(meta));

    ResultValue summary = ResultValue::object();
    summary.set("files", report.filesScanned);
    summary.set("findings",
                static_cast<unsigned>(report.findings.size()));
    summary.set("errors", report.errors());
    summary.set("warnings", report.warnings());
    summary.set("suppressed", report.suppressedCount());
    summary.set("clean", report.clean());
    doc.set("summary", std::move(summary));

    ResultValue violations = ResultValue::array();
    for (const Finding &f : report.findings) {
        ResultValue v = ResultValue::object();
        v.set("file", f.file);
        v.set("line", f.violation.line);
        v.set("rule", f.violation.rule);
        const Rule *rule = findRule(f.violation.rule);
        v.set("category", rule ? rule->category : "unknown");
        v.set("severity", severityKey(f.violation.severity));
        v.set("message", f.violation.message);
        v.set("suppressed", f.suppressed);
        if (f.suppressed)
            v.set("justification", f.justification);
        violations.push(std::move(v));
    }
    doc.set("violations", std::move(violations));
    return doc;
}

std::vector<std::string>
runRuleSelfTest()
{
    std::vector<std::string> failures;
    for (const Rule &rule : ruleCatalog()) {
        bool fired = false;
        for (const Finding &f :
             lintSource(rule.fixture.path, rule.fixture.bad)) {
            fired = fired ||
                    (!f.suppressed && f.violation.rule == rule.id);
        }
        if (!fired) {
            failures.push_back(rule.id +
                               ": bad fixture did not fire the rule");
        }
        for (const Finding &f :
             lintSource(rule.fixture.path, rule.fixture.good)) {
            if (!f.suppressed) {
                failures.push_back(rule.id +
                                   ": good fixture not clean (" +
                                   f.violation.rule + " at line " +
                                   std::to_string(f.violation.line) +
                                   ")");
            }
        }
    }
    return failures;
}

} // namespace lint
} // namespace pifetch
