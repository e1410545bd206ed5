/**
 * @file
 * Rule catalog implementation.
 *
 * The checks are deliberately syntactic: they walk the token stream
 * (plus a small brace-scope tracker) instead of building an AST.
 * That keeps every rule a page of code, makes false positives cheap
 * to reason about, and — because matching is token-based — means a
 * banned name inside a string literal (like the fixtures below) or a
 * comment never fires.
 */

#include "lint/rules.hh"

#include <algorithm>
#include <array>
#include <cstddef>

namespace pifetch {
namespace lint {

namespace {

using Tokens = std::vector<Token>;

bool
isIdent(const Token &t, const char *text)
{
    return t.kind == Token::Kind::Ident && t.text == text;
}

bool
isPunct(const Token &t, const char *text)
{
    return t.kind == Token::Kind::Punct && t.text == text;
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

bool
isHeaderPath(const std::string &path)
{
    return endsWith(path, ".hh") || endsWith(path, ".h");
}

/**
 * Replay hot-path files (the PR 4 optimization surface): per-fetch /
 * per-instruction code whose steady state must stay allocation-free
 * and devirtualized.
 */
bool
isHotPathFile(const std::string &path)
{
    static const char *prefixes[] = {
        "src/pif/", "src/prefetch/", "src/cache/",
        "src/core/", "src/branch/",
    };
    static const char *files[] = {
        "src/sim/trace_engine.hh",        "src/sim/trace_engine.cc",
        "src/sim/cycle_engine.hh",        "src/sim/cycle_engine.cc",
        "src/sim/prefetcher_dispatch.hh", "src/common/flat_hash.hh",
        "src/common/digest.hh",           "src/sim/observer.hh",
        "src/sim/run_counters.hh",        "src/trace/record.hh",
    };
    for (const char *p : prefixes)
        if (startsWith(path, p))
            return true;
    for (const char *f : files)
        if (path == f)
            return true;
    return false;
}

/** Engine replay-loop files: no virtual dispatch may appear here. */
bool
isEngineFile(const std::string &path)
{
    static const char *files[] = {
        "src/sim/trace_engine.hh",        "src/sim/trace_engine.cc",
        "src/sim/cycle_engine.hh",        "src/sim/cycle_engine.cc",
        "src/sim/prefetcher_dispatch.hh", "src/core/frontend.hh",
        "src/core/frontend.cc",           "src/core/cycle_core.hh",
        "src/core/cycle_core.cc",         "src/sim/observer.hh",
    };
    for (const char *f : files)
        if (path == f)
            return true;
    return false;
}

/** Files holding concrete prefetcher/predictor/policy types. */
bool
isConcreteTypeFile(const std::string &path)
{
    static const char *prefixes[] = {
        "src/prefetch/", "src/branch/", "src/pif/",
    };
    for (const char *p : prefixes)
        if (startsWith(path, p))
            return true;
    return path == "src/cache/replacement.hh" ||
           path == "src/cache/replacement.cc";
}

void
addViolation(std::vector<Violation> &out, const Rule &rule,
             unsigned line, std::string message)
{
    Violation v;
    v.rule = rule.id;
    v.severity = rule.severity;
    v.line = line;
    v.message = std::move(message);
    out.push_back(std::move(v));
}

/**
 * Skip a balanced template-argument list. @p i must index the '<';
 * returns the index just past the matching '>'. Treats '>>' as two
 * closers (C++11 semantics).
 */
std::size_t
skipAngles(const Tokens &toks, std::size_t i)
{
    int depth = 0;
    for (; i < toks.size(); ++i) {
        if (isPunct(toks[i], "<")) {
            ++depth;
        } else if (isPunct(toks[i], ">")) {
            if (--depth == 0)
                return i + 1;
        } else if (isPunct(toks[i], ">>")) {
            depth -= 2;
            if (depth <= 0)
                return i + 1;
        } else if (isPunct(toks[i], ";")) {
            break;  // malformed; bail at statement end
        }
    }
    return i;
}

// ------------------------------------------------------ scope tracking

/**
 * A coarse brace-scope tracker: classifies every '{' as namespace,
 * class, function or "other" (control statement, initializer, enum)
 * from the statement head preceding it. Good enough to answer the
 * three questions rules ask: "am I at namespace scope?", "am I in a
 * class body?", "which function am I in?".
 */
struct Scope
{
    enum class Kind { Namespace, Class, Func, Other };

    Kind kind = Kind::Other;
    /** Class name / function name (empty for lambdas, namespaces). */
    std::string name;
    /** Foo for a `Foo::bar` out-of-line definition head. */
    std::string qualifier;
};

class ScopeTracker
{
  public:
    explicit ScopeTracker(const Tokens &toks) : toks_(toks) {}

    /**
     * Consume token @p i (call once per index, in order). Returns
     * true when the token opened or closed a scope, i.e. statement
     * boundaries for scans that segment on them.
     */
    bool
    step(std::size_t i)
    {
        const Token &t = toks_[i];
        if (t.kind == Token::Kind::Directive) {
            // A directive is a whole line; never part of a head.
            headStart_ = i + 1;
            return false;
        }
        if (isPunct(t, "{")) {
            stack_.push_back(classify(i));
            headStart_ = i + 1;
            return true;
        }
        if (isPunct(t, "}")) {
            if (!stack_.empty())
                stack_.pop_back();
            headStart_ = i + 1;
            return true;
        }
        if (isPunct(t, ";"))
            headStart_ = i + 1;
        return false;
    }

    /** True when every enclosing brace is a namespace (or none). */
    bool
    atNamespaceScope() const
    {
        for (const Scope &s : stack_)
            if (s.kind != Scope::Kind::Namespace)
                return false;
        return true;
    }

    /** Innermost scope, or nullptr at top level. */
    const Scope *
    current() const
    {
        return stack_.empty() ? nullptr : &stack_.back();
    }

    /** Innermost *named* enclosing function, or nullptr. */
    const Scope *
    enclosingFunction() const
    {
        for (auto it = stack_.rbegin(); it != stack_.rend(); ++it)
            if (it->kind == Scope::Kind::Func && !it->name.empty())
                return &*it;
        return nullptr;
    }

    /** Innermost enclosing class, or nullptr. */
    const Scope *
    enclosingClass() const
    {
        for (auto it = stack_.rbegin(); it != stack_.rend(); ++it)
            if (it->kind == Scope::Kind::Class)
                return &*it;
        return nullptr;
    }

    std::size_t depth() const { return stack_.size(); }

    /** Index of the first token of the current statement head. */
    std::size_t headStart() const { return headStart_; }

  private:
    /** Classify the '{' at @p open from its statement head. */
    Scope
    classify(std::size_t open) const
    {
        Scope s;
        const std::size_t begin = headStart_;
        if (begin >= open) {
            s.kind = Scope::Kind::Other;
            return s;
        }

        // Control-flow braces.
        static const char *control[] = {"if",     "for",   "while",
                                        "switch", "do",    "else",
                                        "try",    "catch"};
        for (const char *kw : control) {
            if (isIdent(toks_[begin], kw)) {
                s.kind = Scope::Kind::Other;
                return s;
            }
        }

        if (isIdent(toks_[begin], "namespace") ||
            (isIdent(toks_[begin], "inline") && begin + 1 < open &&
             isIdent(toks_[begin + 1], "namespace")) ||
            (isIdent(toks_[begin], "extern") && begin + 1 < open &&
             toks_[begin + 1].kind == Token::Kind::String)) {
            s.kind = Scope::Kind::Namespace;
            return s;
        }

        // class/struct/union at angle depth 0 => type definition;
        // enum bodies hold no members worth scanning.
        int angles = 0;
        for (std::size_t i = begin; i < open; ++i) {
            const Token &t = toks_[i];
            if (isPunct(t, "<"))
                ++angles;
            else if (isPunct(t, ">"))
                angles = std::max(0, angles - 1);
            else if (isPunct(t, ">>"))
                angles = std::max(0, angles - 2);
            if (angles > 0)
                continue;
            if (isIdent(t, "enum")) {
                s.kind = Scope::Kind::Other;
                return s;
            }
            if (isIdent(t, "class") || isIdent(t, "struct") ||
                isIdent(t, "union")) {
                s.kind = Scope::Kind::Class;
                if (i + 1 < open &&
                    toks_[i + 1].kind == Token::Kind::Ident)
                    s.name = toks_[i + 1].text;
                return s;
            }
        }

        // A function (or lambda) head ends with its parameter list,
        // possibly followed by qualifiers or a ctor-init list. Find
        // the end of the signature: a top-level single ':' starts a
        // ctor-init list.
        std::size_t sigEnd = open;
        int parens = 0;
        for (std::size_t i = begin; i < open; ++i) {
            if (isPunct(toks_[i], "(") || isPunct(toks_[i], "["))
                ++parens;
            else if (isPunct(toks_[i], ")") || isPunct(toks_[i], "]"))
                --parens;
            else if (parens == 0 && isPunct(toks_[i], ":")) {
                sigEnd = i;
                break;
            }
        }

        // Walk back to the ')' closing the parameter list.
        std::size_t close = sigEnd;
        while (close > begin && !isPunct(toks_[close - 1], ")")) {
            // Trailing qualifiers: const, noexcept, override, ...
            if (toks_[close - 1].kind != Token::Kind::Ident &&
                !isPunct(toks_[close - 1], "&") &&
                !isPunct(toks_[close - 1], "&&")) {
                s.kind = Scope::Kind::Other;
                return s;
            }
            --close;
        }
        if (close == begin) {
            s.kind = Scope::Kind::Other;
            return s;
        }

        // Match back to the opening '(' of that parameter list.
        int depth = 0;
        std::size_t i = close;  // token index just past ')'
        while (i > begin) {
            --i;
            if (isPunct(toks_[i], ")"))
                ++depth;
            else if (isPunct(toks_[i], "(") && --depth == 0)
                break;
        }
        if (depth != 0 || i == begin) {
            s.kind = Scope::Kind::Other;
            return s;
        }

        s.kind = Scope::Kind::Func;
        if (i > begin && toks_[i - 1].kind == Token::Kind::Ident) {
            s.name = toks_[i - 1].text;
            if (i - 1 > begin && isPunct(toks_[i - 2], "::") &&
                i - 2 > begin &&
                toks_[i - 3].kind == Token::Kind::Ident)
                s.qualifier = toks_[i - 3].text;
        }
        return s;
    }

    const Tokens &toks_;
    std::vector<Scope> stack_;
    std::size_t headStart_ = 0;
};

// ------------------------------------------------------------ D rules

void
checkRand(const SourceFile &f, const LintContext &, const Rule &rule,
          std::vector<Violation> &out)
{
    // Truly nondeterministic sources are banned everywhere; the
    // std engines are deterministic when seeded, so only the
    // simulator proper must route through common/rng.hh.
    static const char *everywhere[] = {"rand", "srand", "rand_r",
                                       "drand48", "random_device"};
    static const char *srcOnly[] = {"mt19937", "mt19937_64",
                                    "default_random_engine",
                                    "minstd_rand", "minstd_rand0"};
    const bool inSrc = startsWith(f.path, "src/");
    for (const Token &t : f.lex.tokens) {
        if (t.kind != Token::Kind::Ident)
            continue;
        for (const char *name : everywhere) {
            if (t.text == name) {
                addViolation(out, rule, t.line,
                             "'" + t.text +
                                 "' is a nondeterministic entropy "
                                 "source; seed a common/rng.hh Rng "
                                 "instead");
            }
        }
        if (!inSrc)
            continue;
        for (const char *name : srcOnly) {
            if (t.text == name) {
                addViolation(out, rule, t.line,
                             "'" + t.text +
                                 "' bypasses the project RNG; "
                                 "simulator code must use "
                                 "common/rng.hh (Rng) so streams "
                                 "replay bit-identically");
            }
        }
    }
}

void
checkClock(const SourceFile &f, const LintContext &, const Rule &rule,
           std::vector<Violation> &out)
{
    // Timing lives in perfbench/, outside the scan set; tests may
    // time themselves freely.
    if (startsWith(f.path, "tests/"))
        return;
    if (!startsWith(f.path, "src/") && !startsWith(f.path, "examples/"))
        return;
    static const char *banned[] = {
        "system_clock",  "steady_clock", "high_resolution_clock",
        "gettimeofday",  "clock_gettime", "timespec_get",
        "localtime",     "gmtime",        "mktime",
    };
    for (const Token &t : f.lex.tokens) {
        if (t.kind != Token::Kind::Ident)
            continue;
        for (const char *name : banned) {
            if (t.text == name) {
                addViolation(out, rule, t.line,
                             "wall-clock read ('" + t.text +
                                 "'); results must not depend on "
                                 "real time (timing lives in "
                                 "perfbench/)");
            }
        }
    }
}

void
checkUnorderedIter(const SourceFile &f, const LintContext &ctx,
                   const Rule &rule, std::vector<Violation> &out)
{
    if (!startsWith(f.path, "src/"))
        return;
    const std::string stem = pathStem(f.path);
    const Tokens &toks = f.lex.tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
        const Token &t = toks[i];
        if (t.kind != Token::Kind::Ident ||
            !ctx.isUnorderedVar(t.text, stem))
            continue;
        // var.begin() / var.cbegin() start a traversal; a lone
        // .end() (the find() != end() idiom) is deterministic.
        if (i + 2 < toks.size() &&
            (isPunct(toks[i + 1], ".") || isPunct(toks[i + 1], "->")) &&
            (isIdent(toks[i + 2], "begin") ||
             isIdent(toks[i + 2], "cbegin"))) {
            addViolation(out, rule, t.line,
                         "iterating unordered container '" + t.text +
                             "': traversal order is implementation-"
                             "defined and must not reach canonical "
                             "results or digests; drain into a "
                             "sorted vector first");
        }
        // Range-for: `for (... : var)`.
        if (i > 0 && i + 1 < toks.size() && isPunct(toks[i - 1], ":") &&
            isPunct(toks[i + 1], ")")) {
            addViolation(out, rule, t.line,
                         "range-for over unordered container '" +
                             t.text +
                             "': traversal order is implementation-"
                             "defined and must not reach canonical "
                             "results or digests");
        }
    }
}

void
checkPtrOrder(const SourceFile &f, const LintContext &,
              const Rule &rule, std::vector<Violation> &out)
{
    const Tokens &toks = f.lex.tokens;

    // (a) Ordered associative containers keyed on a pointer.
    for (std::size_t i = 0; i + 3 < toks.size(); ++i) {
        if (!isIdent(toks[i], "std") || !isPunct(toks[i + 1], "::"))
            continue;
        const Token &name = toks[i + 2];
        if (!(isIdent(name, "map") || isIdent(name, "set") ||
              isIdent(name, "multimap") || isIdent(name, "multiset")))
            continue;
        if (!isPunct(toks[i + 3], "<"))
            continue;
        // First template argument: tokens up to a top-level ',' / '>'.
        int depth = 0;
        std::size_t last = 0;
        for (std::size_t j = i + 3; j < toks.size(); ++j) {
            if (isPunct(toks[j], "<")) {
                ++depth;
            } else if (isPunct(toks[j], ">") ||
                       isPunct(toks[j], ">>")) {
                depth -= isPunct(toks[j], ">>") ? 2 : 1;
                if (depth <= 0)
                    break;
            } else if (depth == 1 && isPunct(toks[j], ",")) {
                break;
            } else {
                last = j;
            }
        }
        if (last != 0 && isPunct(toks[last], "*")) {
            addViolation(out, rule, name.line,
                         "std::" + name.text +
                             " keyed on a pointer orders by address, "
                             "which varies run to run; key on a "
                             "stable id");
        }
    }

    // (b) A comparator lambda over two pointer parameters that
    // compares them directly.
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
        if (!isPunct(toks[i], "["))
            continue;
        // Capture list, then immediately a parameter list.
        std::size_t j = i + 1;
        while (j < toks.size() && !isPunct(toks[j], "]"))
            ++j;
        if (j + 1 >= toks.size() || !isPunct(toks[j + 1], "("))
            continue;
        // Split the parameter list at top level.
        std::vector<std::pair<bool, std::string>> params;  // ptr,name
        bool ptr = false;
        std::string lastIdent;
        int depth = 0;
        std::size_t k = j + 1;
        for (; k < toks.size(); ++k) {
            if (isPunct(toks[k], "(")) {
                if (++depth == 1)
                    continue;
            } else if (isPunct(toks[k], ")")) {
                if (--depth == 0)
                    break;
            }
            if (depth == 1 && isPunct(toks[k], ",")) {
                params.emplace_back(ptr, lastIdent);
                ptr = false;
                lastIdent.clear();
                continue;
            }
            if (isPunct(toks[k], "*"))
                ptr = true;
            if (toks[k].kind == Token::Kind::Ident)
                lastIdent = toks[k].text;
        }
        if (!lastIdent.empty() || ptr)
            params.emplace_back(ptr, lastIdent);
        if (params.size() != 2 || !params[0].first ||
            !params[1].first || params[0].second.empty() ||
            params[1].second.empty())
            continue;
        // Body: the next '{' ... matching '}'.
        while (k < toks.size() && !isPunct(toks[k], "{"))
            ++k;
        int braces = 0;
        for (; k < toks.size(); ++k) {
            if (isPunct(toks[k], "{"))
                ++braces;
            else if (isPunct(toks[k], "}") && --braces == 0)
                break;
            if (k + 2 < toks.size() &&
                toks[k].kind == Token::Kind::Ident &&
                (isPunct(toks[k + 1], "<") ||
                 isPunct(toks[k + 1], ">")) &&
                toks[k + 2].kind == Token::Kind::Ident) {
                const std::string &a = toks[k].text;
                const std::string &b = toks[k + 2].text;
                if ((a == params[0].second && b == params[1].second) ||
                    (a == params[1].second && b == params[0].second)) {
                    addViolation(
                        out, rule, toks[k].line,
                        "comparator orders by raw pointer value "
                        "('" + a + "' vs '" + b +
                            "'), which depends on allocation; "
                            "compare a stable field instead");
                }
            }
        }
    }
}

// ------------------------------------------------------------ H rules

void
checkAlloc(const SourceFile &f, const LintContext &, const Rule &rule,
           std::vector<Violation> &out)
{
    if (!isHotPathFile(f.path))
        return;
    static const char *banned[] = {"new",    "malloc",      "calloc",
                                   "realloc", "make_unique",
                                   "make_shared"};
    const Tokens &toks = f.lex.tokens;
    ScopeTracker scopes(toks);
    for (std::size_t i = 0; i < toks.size(); ++i) {
        scopes.step(i);
        const Token &t = toks[i];
        if (t.kind != Token::Kind::Ident)
            continue;
        bool hit = false;
        for (const char *name : banned)
            hit = hit || t.text == name;
        if (!hit)
            continue;
        // Construction-time allocation is fine: constructors
        // (name == qualifier, or name == enclosing class) and
        // make*/factory helpers. The rule exists for the per-fetch
        // steady state.
        const Scope *fn = scopes.enclosingFunction();
        if (fn) {
            if (!fn->qualifier.empty() && fn->qualifier == fn->name)
                continue;
            const Scope *cls = scopes.enclosingClass();
            if (cls && fn->name == cls->name)
                continue;
            if (startsWith(fn->name, "make"))
                continue;
        }
        addViolation(out, rule, t.line,
                     "heap allocation ('" + t.text +
                         "') in a replay hot-path file outside a "
                         "constructor/factory; preallocate at setup "
                         "(PR 4 keeps the replay loop "
                         "allocation-free)");
    }
}

void
checkStdFunction(const SourceFile &f, const LintContext &,
                 const Rule &rule, std::vector<Violation> &out)
{
    if (!isHotPathFile(f.path))
        return;
    const Tokens &toks = f.lex.tokens;
    for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
        if (isIdent(toks[i], "std") && isPunct(toks[i + 1], "::") &&
            isIdent(toks[i + 2], "function")) {
            addViolation(out, rule, toks[i].line,
                         "std::function in a replay hot-path file: "
                         "type erasure blocks the monomorphized "
                         "dispatch (src/sim/prefetcher_dispatch.hh); "
                         "take a template or function reference");
        }
    }
}

void
checkEndl(const SourceFile &f, const LintContext &, const Rule &rule,
          std::vector<Violation> &out)
{
    const Tokens &toks = f.lex.tokens;
    for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
        if (isIdent(toks[i], "std") && isPunct(toks[i + 1], "::") &&
            isIdent(toks[i + 2], "endl")) {
            addViolation(out, rule, toks[i].line,
                         "std::endl flushes the stream every line; "
                         "write '\\n' (and flush explicitly where it "
                         "matters)");
        }
    }
}

void
checkVirtual(const SourceFile &f, const LintContext &,
             const Rule &rule, std::vector<Violation> &out)
{
    if (!isEngineFile(f.path))
        return;
    for (const Token &t : f.lex.tokens) {
        if (isIdent(t, "virtual")) {
            addViolation(out, rule, t.line,
                         "virtual dispatch inside an engine replay "
                         "file; the loops are monomorphized on the "
                         "concrete prefetcher (PR 4) — dispatch at "
                         "the boundary, not per instruction");
        }
    }
}

void
checkFinal(const SourceFile &f, const LintContext &, const Rule &rule,
           std::vector<Violation> &out)
{
    if (!isConcreteTypeFile(f.path))
        return;
    const Tokens &toks = f.lex.tokens;
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
        if (!(isIdent(toks[i], "class") || isIdent(toks[i], "struct")))
            continue;
        // Not `enum class` and not a template parameter list.
        if (i > 0 && (isIdent(toks[i - 1], "enum") ||
                      isPunct(toks[i - 1], "<") ||
                      isPunct(toks[i - 1], ",")))
            continue;
        if (toks[i + 1].kind != Token::Kind::Ident)
            continue;
        const Token &name = toks[i + 1];
        bool sawFinal = false;
        bool hasBase = false;
        for (std::size_t j = i + 2; j < toks.size(); ++j) {
            if (isPunct(toks[j], ";") || isPunct(toks[j], "{") ||
                isPunct(toks[j], "("))
                break;  // fwd decl, body, or not a class head
            if (isIdent(toks[j], "final"))
                sawFinal = true;
            if (isPunct(toks[j], ":")) {
                hasBase = true;
                break;
            }
        }
        if (hasBase && !sawFinal) {
            addViolation(out, rule, name.line,
                         "concrete type '" + name.text +
                             "' derives from an interface but is not "
                             "'final'; engine dispatch devirtualizes "
                             "only on final types (see "
                             "src/sim/prefetcher_dispatch.hh)");
        }
    }
}

// ------------------------------------------------------------ S rules

std::string
normalizeDirective(const std::string &text)
{
    std::string out;
    bool space = false;
    for (char c : text) {
        if (c == ' ' || c == '\t') {
            space = !out.empty();
            continue;
        }
        if (space) {
            out += ' ';
            space = false;
        }
        out += c;
    }
    return out;
}

void
checkPragmaOnce(const SourceFile &f, const LintContext &,
                const Rule &rule, std::vector<Violation> &out)
{
    if (!isHeaderPath(f.path))
        return;
    const Token *first = nullptr;
    unsigned count = 0;
    for (const Token &t : f.lex.tokens) {
        if (t.kind != Token::Kind::Directive)
            continue;
        if (!first)
            first = &t;
        if (normalizeDirective(t.text) == "#pragma once")
            ++count;
    }
    if (!first) {
        addViolation(out, rule, 1,
                     "header has no #pragma once (it must be the "
                     "first preprocessor directive)");
        return;
    }
    if (normalizeDirective(first->text) != "#pragma once") {
        addViolation(out, rule, first->line,
                     "header must open with #pragma once before any "
                     "other directive (found '" +
                         normalizeDirective(first->text).substr(0, 40) +
                         "'); legacy include guards were retired "
                         "with the lint PR");
    } else if (count > 1) {
        addViolation(out, rule, first->line,
                     "duplicate #pragma once");
    }
}

void
checkUsingNamespace(const SourceFile &f, const LintContext &,
                    const Rule &rule, std::vector<Violation> &out)
{
    if (!isHeaderPath(f.path))
        return;
    const Tokens &toks = f.lex.tokens;
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
        if (isIdent(toks[i], "using") &&
            isIdent(toks[i + 1], "namespace")) {
            addViolation(out, rule, toks[i].line,
                         "'using namespace' in a header leaks the "
                         "namespace into every includer; qualify "
                         "names instead");
        }
    }
}

void
checkGlobalInit(const SourceFile &f, const LintContext &,
                const Rule &rule, std::vector<Violation> &out)
{
    if (!startsWith(f.path, "src/"))
        return;
    static const char *dynTypes[] = {
        "string",        "vector",       "map",
        "set",           "unordered_map", "unordered_set",
        "deque",         "list",          "shared_ptr",
        "unique_ptr",    "function",      "ofstream",
        "ifstream",      "ostringstream", "istringstream",
    };
    const Tokens &toks = f.lex.tokens;
    ScopeTracker scopes(toks);
    std::size_t stmt = 0;  // statement start
    for (std::size_t i = 0; i < toks.size(); ++i) {
        const bool boundary = scopes.step(i);
        if (boundary || isPunct(toks[i], ";") ||
            toks[i].kind == Token::Kind::Directive) {
            stmt = i + 1;
            continue;
        }
        if (i != stmt || !scopes.atNamespaceScope())
            continue;
        // Statement head at namespace scope: skip qualifiers, then
        // look for a dynamically-initialized type.
        std::size_t j = i;
        bool constexprSeen = false;
        while (j < toks.size() &&
               (isIdent(toks[j], "static") ||
                isIdent(toks[j], "inline") ||
                isIdent(toks[j], "const") ||
                isIdent(toks[j], "constexpr") ||
                isIdent(toks[j], "constinit") ||
                isIdent(toks[j], "thread_local") ||
                isIdent(toks[j], "extern"))) {
            constexprSeen = constexprSeen ||
                            isIdent(toks[j], "constexpr") ||
                            isIdent(toks[j], "constinit");
            ++j;
        }
        if (constexprSeen || j + 2 >= toks.size())
            continue;
        std::string typeName;
        if (isIdent(toks[j], "std") && isPunct(toks[j + 1], "::") &&
            toks[j + 2].kind == Token::Kind::Ident) {
            typeName = toks[j + 2].text;
            j += 3;
        } else if (isIdent(toks[j], "ResultValue")) {
            typeName = "ResultValue";
            j += 1;
        } else {
            continue;
        }
        bool dynamic = typeName == "ResultValue";
        for (const char *d : dynTypes)
            dynamic = dynamic || typeName == d;
        if (!dynamic)
            continue;
        if (j < toks.size() && isPunct(toks[j], "<"))
            j = skipAngles(toks, j);
        // A pointer global is constant-initialized; a reference or a
        // value is not.
        if (j < toks.size() && isPunct(toks[j], "*"))
            continue;
        while (j < toks.size() && isPunct(toks[j], "&"))
            ++j;
        if (j >= toks.size() ||
            toks[j].kind != Token::Kind::Ident)
            continue;
        const Token &name = toks[j];
        if (j + 1 >= toks.size())
            continue;
        // `name(` is a function declaration/definition, not a global.
        if (isPunct(toks[j + 1], "("))
            continue;
        if (isPunct(toks[j + 1], "=") || isPunct(toks[j + 1], "{") ||
            isPunct(toks[j + 1], ";") || isPunct(toks[j + 1], "[")) {
            addViolation(out, rule, name.line,
                         "namespace-scope '" + name.text +
                             "' of dynamic type (std::" + typeName +
                             ") runs a constructor before main and "
                             "a destructor after it, in unspecified "
                             "order across TUs; use a function-local "
                             "static");
        }
    }
}

void
checkStatsOrder(const SourceFile &f, const LintContext &,
                const Rule &rule, std::vector<Violation> &out)
{
    if (!startsWith(f.path, "src/"))
        return;
    const Tokens &toks = f.lex.tokens;
    ScopeTracker scopes(toks);

    struct ClassRecord
    {
        std::size_t depth = 0;
        long firstGroup = -1;                       // member order
        std::vector<std::pair<long, unsigned>> counters;  // order,line
        long members = 0;
    };
    std::vector<ClassRecord> classes;

    const auto closeClass = [&](std::size_t depthNow) {
        while (!classes.empty() && classes.back().depth > depthNow) {
            const ClassRecord &c = classes.back();
            if (c.firstGroup >= 0) {
                for (const auto &[order, line] : c.counters) {
                    if (order < c.firstGroup) {
                        addViolation(
                            out, rule, line,
                            "Counter member declared before the "
                            "StatGroup it enrolls in; members "
                            "destroy in reverse order, so the "
                            "group would die first and the "
                            "counter's unenroll would dangle "
                            "(the PR 3 bug)");
                    }
                }
            }
            classes.pop_back();
        }
    };

    std::size_t stmt = 0;
    for (std::size_t i = 0; i < toks.size(); ++i) {
        const std::size_t depthBefore = scopes.depth();
        const bool boundary = scopes.step(i);
        if (boundary) {
            if (scopes.depth() < depthBefore)
                closeClass(scopes.depth());
            else if (scopes.current() &&
                     scopes.current()->kind == Scope::Kind::Class) {
                ClassRecord rec;
                rec.depth = scopes.depth();
                classes.push_back(rec);
            }
            stmt = i + 1;
            continue;
        }
        if (isPunct(toks[i], ";") ||
            toks[i].kind == Token::Kind::Directive) {
            stmt = i + 1;
            continue;
        }
        // Access-specifier labels restart the member statement.
        if (isPunct(toks[i], ":") && i == stmt + 1 &&
            (isIdent(toks[stmt], "public") ||
             isIdent(toks[stmt], "private") ||
             isIdent(toks[stmt], "protected"))) {
            stmt = i + 1;
            continue;
        }
        if (i != stmt)
            continue;

        // Statement head: optional qualifiers, then Counter/StatGroup
        // by value, then a member/variable name.
        std::size_t j = i;
        while (j < toks.size() && (isIdent(toks[j], "mutable") ||
                                   isIdent(toks[j], "static") ||
                                   isIdent(toks[j], "const")))
            ++j;
        if (j + 1 >= toks.size())
            continue;
        const bool isCounter = isIdent(toks[j], "Counter");
        const bool isGroup = isIdent(toks[j], "StatGroup");
        if (!isCounter && !isGroup)
            continue;
        if (toks[j + 1].kind != Token::Kind::Ident)
            continue;  // ctor decl, pointer, reference, ...

        const bool inClass =
            scopes.current() &&
            scopes.current()->kind == Scope::Kind::Class &&
            !classes.empty() && classes.back().depth == scopes.depth();
        if (inClass) {
            ClassRecord &rec = classes.back();
            const long order = rec.members++;
            if (isGroup && rec.firstGroup < 0)
                rec.firstGroup = order;
            if (isCounter)
                rec.counters.emplace_back(order, toks[j].line);
        } else if (scopes.atNamespaceScope()) {
            addViolation(out, rule, toks[j].line,
                         "'" + toks[j + 1].text +
                             "' gives a " + toks[j].text +
                             " static storage duration; enrollment "
                             "would run during static init and "
                             "unenrollment after main — keep stat "
                             "objects inside engine/cache instances");
        }
    }
    closeClass(0);
}

// ------------------------------------------------- catalog assembly

std::vector<Rule>
buildCatalog()
{
    std::vector<Rule> rules;
    const auto add = [&](Rule r) { rules.push_back(std::move(r)); };

    // ---------------------------------------------------- D: determinism
    {
        Rule r;
        r.id = "D-rand";
        r.category = "determinism";
        r.severity = Severity::Error;
        r.summary = "no rand()/random_device; mt19937 only outside src/";
        r.rationale =
            "Results must replay bit-identically from a seed; every "
            "random stream goes through common/rng.hh.";
        r.fixture.path = "src/sim/fixture.cc";
        r.fixture.bad = "int pick() { return rand() % 4; }\n";
        r.fixture.good =
            "#include \"common/rng.hh\"\n"
            "int pick(pifetch::Rng &rng) {\n"
            "    return static_cast<int>(rng.next() % 4);\n"
            "}\n";
        r.check = &checkRand;
        add(r);
    }
    {
        Rule r;
        r.id = "D-clock";
        r.category = "determinism";
        r.severity = Severity::Error;
        r.summary = "no wall-clock reads; timing lives in perfbench/";
        r.rationale =
            "A simulation result that depends on real time cannot be "
            "golden-snapshotted; timing is perfbench's job.";
        r.fixture.path = "src/sim/fixture.cc";
        r.fixture.bad =
            "#include <chrono>\n"
            "long now() {\n"
            "    return std::chrono::steady_clock::now()\n"
            "        .time_since_epoch().count();\n"
            "}\n";
        r.fixture.good =
            "long cycles(long c) { return c + 1; }\n";
        r.check = &checkClock;
        add(r);
    }
    {
        Rule r;
        r.id = "D-unordered-iter";
        r.category = "determinism";
        r.severity = Severity::Error;
        r.summary = "no iteration over unordered containers in src/";
        r.rationale =
            "unordered_{map,set} traversal order is implementation-"
            "defined; iterating one into results, digests or fill "
            "order breaks bit-identical replay across toolchains.";
        r.fixture.path = "src/sim/fixture.cc";
        r.fixture.bad =
            "#include <unordered_map>\n"
            "long sum(const std::unordered_map<long, long> &m);\n"
            "struct S {\n"
            "    std::unordered_map<long, long> pending_;\n"
            "    long drain() {\n"
            "        long s = 0;\n"
            "        for (const auto &kv : pending_)\n"
            "            s += kv.second;\n"
            "        return s;\n"
            "    }\n"
            "};\n";
        r.fixture.good =
            "#include <unordered_map>\n"
            "struct S {\n"
            "    std::unordered_map<long, long> pending_;\n"
            "    long peek(long k) {\n"
            "        auto it = pending_.find(k);\n"
            "        return it == pending_.end() ? 0 : it->second;\n"
            "    }\n"
            "};\n";
        r.check = &checkUnorderedIter;
        add(r);
    }
    {
        Rule r;
        r.id = "D-ptr-order";
        r.category = "determinism";
        r.severity = Severity::Warning;
        r.summary = "no pointer-valued sort keys or map/set keys";
        r.rationale =
            "Pointer order reflects the allocator, not the data; any "
            "container or comparator ordered by address produces a "
            "run-dependent sequence.";
        r.fixture.path = "src/sim/fixture.cc";
        r.fixture.bad =
            "#include <algorithm>\n"
            "#include <vector>\n"
            "struct Node { int id; };\n"
            "void order(std::vector<Node *> &v) {\n"
            "    std::sort(v.begin(), v.end(),\n"
            "              [](const Node *a, const Node *b) {\n"
            "                  return a < b;\n"
            "              });\n"
            "}\n";
        r.fixture.good =
            "#include <algorithm>\n"
            "#include <vector>\n"
            "struct Node { int id; };\n"
            "void order(std::vector<Node *> &v) {\n"
            "    std::sort(v.begin(), v.end(),\n"
            "              [](const Node *a, const Node *b) {\n"
            "                  return a->id < b->id;\n"
            "              });\n"
            "}\n";
        r.check = &checkPtrOrder;
        add(r);
    }

    // ------------------------------------------------------ H: hot path
    {
        Rule r;
        r.id = "H-alloc";
        r.category = "hot-path";
        r.severity = Severity::Error;
        r.summary =
            "no heap allocation in hot-path files outside ctors";
        r.rationale =
            "PR 4's 1.3-1.5x replay win depends on an allocation-free "
            "steady state.";
        r.fixture.path = "src/pif/fixture.cc";
        r.fixture.bad =
            "#include <memory>\n"
            "struct Entry { long v; };\n"
            "struct Table {\n"
            "    void onFetch(long v) {\n"
            "        last_ = std::make_unique<Entry>(Entry{v});\n"
            "    }\n"
            "    std::unique_ptr<Entry> last_;\n"
            "};\n";
        r.fixture.good =
            "#include <memory>\n"
            "struct Entry { long v; };\n"
            "struct Table {\n"
            "    Table() { slab_ = std::make_unique<Entry>(); }\n"
            "    void onFetch(long v) { slab_->v = v; }\n"
            "    std::unique_ptr<Entry> slab_;\n"
            "};\n";
        r.check = &checkAlloc;
        add(r);
    }
    {
        Rule r;
        r.id = "H-function";
        r.category = "hot-path";
        r.severity = Severity::Error;
        r.summary = "no std::function in hot-path files";
        r.rationale =
            "Type-erased callables defeat the monomorphized engine "
            "loops; hot hooks take templates or function references.";
        r.fixture.path = "src/pif/fixture.hh";
        r.fixture.bad =
            "#pragma once\n"
            "#include <functional>\n"
            "struct Hook { std::function<void(long)> fn; };\n";
        r.fixture.good =
            "#pragma once\n"
            "template <typename Fn>\n"
            "void forEach(Fn &&fn) { fn(0); }\n";
        r.check = &checkStdFunction;
        add(r);
    }
    {
        Rule r;
        r.id = "H-endl";
        r.category = "hot-path";
        r.severity = Severity::Error;
        r.summary = "no std::endl anywhere";
        r.rationale =
            "std::endl is a flush per line; the one place that wants "
            "flushing (trace writer close) does it explicitly.";
        r.fixture.path = "src/sim/fixture.cc";
        r.fixture.bad =
            "#include <iostream>\n"
            "void hello() { std::cout << \"hi\" << std::endl; }\n";
        r.fixture.good =
            "#include <iostream>\n"
            "void hello() { std::cout << \"hi\\n\"; }\n";
        r.check = &checkEndl;
        add(r);
    }
    {
        Rule r;
        r.id = "H-virtual";
        r.category = "hot-path";
        r.severity = Severity::Error;
        r.summary = "no virtual dispatch in engine replay files";
        r.rationale =
            "The engines dispatch once on the concrete final "
            "prefetcher and inline the per-instruction hooks; a "
            "virtual call in these files reintroduces the indirect "
            "branch PR 4 removed.";
        r.fixture.path = "src/sim/cycle_engine.hh";
        r.fixture.bad =
            "#pragma once\n"
            "class Engine {\n"
            "  public:\n"
            "    virtual void step() = 0;\n"
            "};\n";
        r.fixture.good =
            "#pragma once\n"
            "class Engine {\n"
            "  public:\n"
            "    void step() {}\n"
            "};\n";
        r.check = &checkVirtual;
        add(r);
    }
    {
        Rule r;
        r.id = "H-final";
        r.category = "hot-path";
        r.severity = Severity::Error;
        r.summary = "concrete prefetcher/predictor types must be final";
        r.rationale =
            "The monomorphized dispatch relies on the compiler "
            "devirtualizing through final; a non-final concrete type "
            "silently falls back to indirect calls.";
        r.fixture.path = "src/prefetch/fixture.hh";
        r.fixture.bad =
            "#pragma once\n"
            "class Prefetcher {\n"
            "  public:\n"
            "    void train();\n"
            "};\n"
            "class NextLine : public Prefetcher {};\n";
        r.fixture.good =
            "#pragma once\n"
            "class Prefetcher {\n"
            "  public:\n"
            "    void train();\n"
            "};\n"
            "class NextLine final : public Prefetcher {};\n";
        r.check = &checkFinal;
        add(r);
    }

    // ----------------------------------------------------- S: structure
    {
        Rule r;
        r.id = "S-pragma-once";
        r.category = "structure";
        r.severity = Severity::Error;
        r.summary = "every header opens with #pragma once";
        r.rationale =
            "One canonical idempotence mechanism; hand-rolled guard "
            "macros drift from their paths and collide on renames.";
        r.fixture.path = "src/sim/fixture.hh";
        r.fixture.bad =
            "#ifndef FIXTURE_HH\n"
            "#define FIXTURE_HH\n"
            "struct S {};\n"
            "#endif\n";
        r.fixture.good = "#pragma once\nstruct S {};\n";
        r.check = &checkPragmaOnce;
        add(r);
    }
    {
        Rule r;
        r.id = "S-using-namespace";
        r.category = "structure";
        r.severity = Severity::Error;
        r.summary = "no using-namespace in headers";
        r.rationale =
            "A header-level using-directive rewrites name lookup in "
            "every includer; only .cc files may flatten namespaces.";
        r.fixture.path = "src/sim/fixture.hh";
        r.fixture.bad =
            "#pragma once\n"
            "#include <string>\n"
            "using namespace std;\n"
            "string name();\n";
        r.fixture.good =
            "#pragma once\n"
            "#include <string>\n"
            "std::string name();\n";
        r.check = &checkUsingNamespace;
        add(r);
    }
    {
        Rule r;
        r.id = "S-global-init";
        r.category = "structure";
        r.severity = Severity::Error;
        r.summary = "no dynamically-initialized namespace-scope globals";
        r.rationale =
            "Cross-TU static init/teardown order is unspecified; "
            "registries and tables are function-local statics in "
            "this codebase (see sim/registry.cc).";
        r.fixture.path = "src/sim/fixture.cc";
        r.fixture.bad =
            "#include <string>\n"
            "#include <vector>\n"
            "namespace pifetch {\n"
            "const std::vector<std::string> kNames = {\"a\", \"b\"};\n"
            "}\n";
        r.fixture.good =
            "#include <string>\n"
            "#include <vector>\n"
            "namespace pifetch {\n"
            "const std::vector<std::string> &names() {\n"
            "    static const std::vector<std::string> kNames = {\n"
            "        \"a\", \"b\"};\n"
            "    return kNames;\n"
            "}\n"
            "}\n";
        r.check = &checkGlobalInit;
        add(r);
    }
    {
        Rule r;
        r.id = "S-stats-order";
        r.category = "structure";
        r.severity = Severity::Error;
        r.summary = "StatGroup before its Counters; never static";
        r.rationale =
            "A Counter unenrolls from its StatGroup on destruction; "
            "declaring the group after a counter (or giving either "
            "static storage) recreates the PR 3 dangling-enrollment "
            "bug.";
        r.fixture.path = "src/sim/fixture.hh";
        r.fixture.bad =
            "#pragma once\n"
            "#include \"common/stats.hh\"\n"
            "class Core {\n"
            "  private:\n"
            "    Counter hits_;\n"
            "    StatGroup stats_;\n"
            "};\n";
        r.fixture.good =
            "#pragma once\n"
            "#include \"common/stats.hh\"\n"
            "class Core {\n"
            "  private:\n"
            "    StatGroup stats_;\n"
            "    Counter hits_;\n"
            "};\n";
        r.check = &checkStatsOrder;
        add(r);
    }

    // ------------------------------------- driver-level (meta) rules
    {
        Rule r;
        r.id = "lint-bad-suppression";
        r.category = "structure";
        r.severity = Severity::Error;
        r.summary = "suppressions need a known rule id + justification";
        r.rationale =
            "An unexplained or misspelled lint:allow silently "
            "disables enforcement; the justification is the review "
            "record.";
        r.fixture.path = "src/sim/fixture.cc";
        r.fixture.bad =
            "#include <iostream>\n"
            "// lint:allow(H-endl)\n"
            "void hello() { std::cout << \"hi\" << std::endl; }\n";
        r.fixture.good =
            "#include <iostream>\n"
            "// lint:allow(H-endl): demo sink, flushed on purpose\n"
            "void hello() { std::cout << \"hi\" << std::endl; }\n";
        r.check = nullptr;  // enforced by the driver
        add(r);
    }
    {
        Rule r;
        r.id = "lint-unused-suppression";
        r.category = "structure";
        r.severity = Severity::Error;
        r.summary = "suppressions must still suppress something";
        r.rationale =
            "A lint:allow whose violation is gone is a stale "
            "exemption waiting to hide the next regression.";
        r.fixture.path = "src/sim/fixture.cc";
        r.fixture.bad =
            "// lint:allow(H-endl): nothing here uses endl anymore\n"
            "void hello() {}\n";
        r.fixture.good = "void hello() {}\n";
        r.check = nullptr;  // enforced by the driver
        add(r);
    }

    return rules;
}

} // namespace

std::string
severityKey(Severity s)
{
    return s == Severity::Error ? "error" : "warning";
}

std::string
pathStem(const std::string &path)
{
    const std::size_t dot = path.rfind('.');
    const std::size_t slash = path.rfind('/');
    if (dot == std::string::npos ||
        (slash != std::string::npos && dot < slash))
        return path;
    return path.substr(0, dot);
}

bool
LintContext::isUnorderedVar(const std::string &name,
                            const std::string &stem) const
{
    for (const auto &[var, declStem] : unorderedVars)
        if (var == name && declStem == stem)
            return true;
    return false;
}

const std::vector<Rule> &
ruleCatalog()
{
    static const std::vector<Rule> rules = buildCatalog();
    return rules;
}

const Rule *
findRule(const std::string &id)
{
    for (const Rule &r : ruleCatalog())
        if (r.id == id)
            return &r;
    return nullptr;
}

void
collectContext(const SourceFile &file, LintContext &ctx)
{
    const Tokens &toks = file.lex.tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
        if (!(isIdent(toks[i], "unordered_map") ||
              isIdent(toks[i], "unordered_set") ||
              isIdent(toks[i], "unordered_multimap") ||
              isIdent(toks[i], "unordered_multiset")))
            continue;
        if (i + 1 >= toks.size() || !isPunct(toks[i + 1], "<"))
            continue;
        const std::size_t past = skipAngles(toks, i + 1);
        if (past < toks.size() &&
            toks[past].kind == Token::Kind::Ident) {
            ctx.unorderedVars.emplace_back(toks[past].text,
                                           pathStem(file.path));
        }
    }
}

std::vector<Violation>
runRules(const SourceFile &file, const LintContext &ctx,
         const std::vector<const Rule *> &rules)
{
    std::vector<Violation> out;
    for (const Rule *rule : rules) {
        if (rule && rule->check)
            rule->check(file, ctx, *rule, out);
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const Violation &a, const Violation &b) {
                         return a.line < b.line ||
                                (a.line == b.line && a.rule < b.rule);
                     });
    return out;
}

} // namespace lint
} // namespace pifetch
