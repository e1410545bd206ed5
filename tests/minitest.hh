/**
 * @file
 * Single-header, gtest-compatible mini test framework.
 *
 * Offline fallback for GoogleTest: when neither a system GTest nor
 * FetchContent is available, the build points `#include
 * <gtest/gtest.h>` at this header (via tests/minitest/gtest/gtest.h)
 * and links tests/minitest_main.cc for the auto-main.
 *
 * Implements the subset of the GoogleTest API this repository's
 * suites use:
 *   - TEST / TEST_F / TEST_P + INSTANTIATE_TEST_SUITE_P
 *   - ::testing::Values / ValuesIn / Combine / TestParamInfo
 *   - EXPECT_/ASSERT_ {EQ,NE,LT,LE,GT,GE,TRUE,FALSE}, EXPECT_NEAR,
 *     EXPECT_DOUBLE_EQ, FAIL(), streamed messages (`<< "context"`)
 *   - EXPECT_DEATH / EXPECT_EXIT with ::testing::ExitedWithCode
 *     (fork-based, POSIX only)
 *   - EXPECT_THROW / ASSERT_THROW
 *   - ::testing::TempDir(), --gtest_filter=, --gtest_list_tests
 *
 * Notable simplifications vs. real GoogleTest: tests run in
 * registration order (no shuffle), there is no XML output, and
 * value-parameterized instantiation is expanded lazily at
 * RUN_ALL_TESTS() time, so TEST_P/INSTANTIATE ordering within a
 * translation unit does not matter.
 */

#pragma once

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <ostream>
#include <regex>
#include <sstream>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

namespace testing {

class Test;

/** Streamed user message attached to a failing assertion. */
class Message
{
  public:
    template <typename T>
    Message &
    operator<<(const T &value)
    {
        oss_ << value;
        return *this;
    }

    std::string str() const { return oss_.str(); }

  private:
    std::ostringstream oss_;
};

/** Streams the text, so SCOPED_TRACE takes a Message as GoogleTest's does. */
inline std::ostream &
operator<<(std::ostream &os, const Message &msg)
{
    return os << msg.str();
}

namespace internal {

/** One runnable, fully-instantiated test. */
struct TestCase {
    std::string suite;
    std::string name;
    std::function<void()> run;
};

/** Global registry + per-run state (header-only singleton). */
struct Runtime {
    std::vector<TestCase> tests;
    std::vector<std::function<void()>> deferredInstantiations;
    std::string filter = "*";
    bool listOnly = false;
    int failuresInCurrentTest = 0;
    /** Active SCOPED_TRACE messages, innermost last. */
    std::vector<std::string> traceStack;

    static Runtime &
    get()
    {
        static Runtime r;
        return r;
    }
};

inline void
registerTest(std::string suite, std::string name, std::function<void()> run)
{
    Runtime::get().tests.push_back(
        {std::move(suite), std::move(name), std::move(run)});
}

/** Reports a failure when assigned a Message (gtest's return-void trick). */
class AssertHelper
{
  public:
    AssertHelper(const char *file, int line, std::string summary)
        : file_(file), line_(line), summary_(std::move(summary))
    {
    }

    void
    operator=(const Message &msg) const
    {
        std::fprintf(stderr, "%s:%d: Failure\n%s\n", file_, line_,
                     summary_.c_str());
        const std::string text = msg.str();
        if (!text.empty())
            std::fprintf(stderr, "%s\n", text.c_str());
        for (auto it = Runtime::get().traceStack.rbegin();
             it != Runtime::get().traceStack.rend(); ++it)
            std::fprintf(stderr, "Trace: %s\n", it->c_str());
        ++Runtime::get().failuresInCurrentTest;
    }

  private:
    const char *file_;
    int line_;
    std::string summary_;
};

// ---------------------------------------------------------------- printing

template <typename T, typename = void>
struct IsStreamable : std::false_type {};

template <typename T>
struct IsStreamable<T, std::void_t<decltype(std::declval<std::ostream &>()
                                            << std::declval<const T &>())>>
    : std::true_type {};

template <typename T>
std::string
printValue(const T &v)
{
    if constexpr (std::is_same_v<T, bool>) {
        return v ? "true" : "false";
    } else if constexpr (IsStreamable<T>::value) {
        std::ostringstream oss;
        oss << v;
        return oss.str();
    } else if constexpr (std::is_enum_v<T>) {
        std::ostringstream oss;
        oss << static_cast<std::underlying_type_t<T>>(v);
        return oss.str();
    } else {
        return "<unprintable>";
    }
}

// ------------------------------------------------------------- comparisons

/** Outcome of one comparison; carries the failure text when !ok. */
struct CmpResult {
    bool ok = true;
    std::string message;
    explicit operator bool() const { return ok; }
};

// The comparison templates apply the raw operator to user expressions of
// possibly mixed signedness, exactly as GoogleTest's CmpHelper* do.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wsign-compare"

#define MINITEST_DEFINE_CMP_(cname, op)                                       \
    template <typename A, typename B>                                         \
    CmpResult cmp_##cname(const A &a, const B &b, const char *ea,             \
                          const char *eb)                                     \
    {                                                                         \
        if (a op b)                                                           \
            return {};                                                        \
        CmpResult r;                                                          \
        r.ok = false;                                                         \
        r.message = std::string("Expected: (") + ea + ") " #op " (" + eb +    \
                    "), actual: " + printValue(a) + " vs " + printValue(b);   \
        return r;                                                             \
    }

MINITEST_DEFINE_CMP_(eq, ==)
MINITEST_DEFINE_CMP_(ne, !=)
MINITEST_DEFINE_CMP_(lt, <)
MINITEST_DEFINE_CMP_(le, <=)
MINITEST_DEFINE_CMP_(gt, >)
MINITEST_DEFINE_CMP_(ge, >=)

#pragma GCC diagnostic pop

#undef MINITEST_DEFINE_CMP_

inline CmpResult
cmpNear(double a, double b, double tol, const char *ea, const char *eb)
{
    if (std::fabs(a - b) <= tol)
        return {};
    CmpResult r;
    r.ok = false;
    r.message = std::string("The difference between ") + ea + " and " + eb +
                " is " + printValue(std::fabs(a - b)) + ", which exceeds " +
                printValue(tol);
    return r;
}

/** Sign-magnitude double bits mapped to a monotonic unsigned scale. */
inline std::uint64_t
doubleToBiased(double d)
{
    std::uint64_t bits;
    std::memcpy(&bits, &d, sizeof(bits));
    const std::uint64_t sign = std::uint64_t{1} << 63;
    return (bits & sign) ? ~bits + 1 : bits | sign;
}

inline CmpResult
cmpDoubleEq(double a, double b, const char *ea, const char *eb)
{
    bool ok;
    if (std::isnan(a) || std::isnan(b)) {
        ok = false;
    } else {
        // 4-ULP tolerance, matching GoogleTest's AlmostEquals.
        const std::uint64_t ba = doubleToBiased(a);
        const std::uint64_t bb = doubleToBiased(b);
        ok = (ba > bb ? ba - bb : bb - ba) <= 4;
    }
    if (ok)
        return {};
    CmpResult r;
    r.ok = false;
    r.message = std::string("Expected: (") + ea + ") == (" + eb +
                ") within 4 ULPs, actual: " + printValue(a) + " vs " +
                printValue(b);
    return r;
}

// ------------------------------------------------------------- death tests

struct DeathOutcome {
    int status = 0;            ///< raw waitpid status
    std::string stderrOutput;  ///< everything the child wrote to stderr
};

template <typename Fn>
DeathOutcome
runDeathChild(Fn &&fn)
{
    DeathOutcome out;
    int fds[2];
    if (pipe(fds) != 0) {
        std::perror("minitest: pipe");
        std::abort();
    }
    std::fflush(nullptr);
    const pid_t pid = fork();
    if (pid == 0) {
        dup2(fds[1], 2);
        close(fds[0]);
        close(fds[1]);
        fn();
        _exit(0);  // statement returned: the child did not die
    }
    close(fds[1]);
    char buf[4096];
    ssize_t n;
    while ((n = read(fds[0], buf, sizeof(buf))) > 0)
        out.stderrOutput.append(buf, static_cast<std::size_t>(n));
    close(fds[0]);
    waitpid(pid, &out.status, 0);
    return out;
}

inline bool
stderrMatches(const DeathOutcome &out, const char *pattern)
{
    return std::regex_search(out.stderrOutput, std::regex(pattern));
}

inline CmpResult
deathFailure(const char *what, const DeathOutcome &out, const char *pattern)
{
    CmpResult r;
    r.ok = false;
    r.message = std::string(what) + " (pattern \"" + pattern +
                "\"); child stderr:\n" + out.stderrOutput;
    return r;
}

template <typename Fn>
CmpResult
checkDeath(Fn &&fn, const char *pattern)
{
    const DeathOutcome out = runDeathChild(std::forward<Fn>(fn));
    const bool died =
        !(WIFEXITED(out.status) && WEXITSTATUS(out.status) == 0);
    if (!died)
        return deathFailure("Expected statement to die, but it returned",
                            out, pattern);
    if (!stderrMatches(out, pattern))
        return deathFailure("Death message mismatch", out, pattern);
    return {};
}

template <typename Fn, typename Pred>
CmpResult
checkExit(Fn &&fn, Pred pred, const char *pattern)
{
    const DeathOutcome out = runDeathChild(std::forward<Fn>(fn));
    if (!pred(out.status))
        return deathFailure("Exit predicate not satisfied", out, pattern);
    if (!stderrMatches(out, pattern))
        return deathFailure("Exit message mismatch", out, pattern);
    return {};
}

// -------------------------------------------------------- exception tests

/** Passes when @p fn throws an exception of type (or derived from) E. */
template <typename E, typename Fn>
CmpResult
checkThrow(Fn &&fn, const char *stmt, const char *type)
{
    const char *actual = "it throws nothing";
    try {
        fn();
    } catch (const E &) {
        return {};
    } catch (...) {
        actual = "it throws a different type";
    }
    CmpResult r;
    r.ok = false;
    r.message = std::string("Expected: ") + stmt +
                " throws an exception of type " + type + ".\n  Actual: " +
                actual + ".";
    return r;
}

// ------------------------------------------------------ filter + main loop

/** fnmatch-style glob: '*' any run, '?' any one char. */
inline bool
globMatch(const char *pat, const char *str)
{
    if (*pat == '\0')
        return *str == '\0';
    if (*pat == '*')
        return globMatch(pat + 1, str) ||
               (*str != '\0' && globMatch(pat, str + 1));
    if (*str != '\0' && (*pat == '?' || *pat == *str))
        return globMatch(pat + 1, str + 1);
    return false;
}

inline bool
anyPatternMatches(const std::string &patterns, const std::string &name)
{
    std::size_t begin = 0;
    while (begin <= patterns.size()) {
        std::size_t end = patterns.find(':', begin);
        if (end == std::string::npos)
            end = patterns.size();
        const std::string pat = patterns.substr(begin, end - begin);
        if (!pat.empty() && globMatch(pat.c_str(), name.c_str()))
            return true;
        begin = end + 1;
    }
    return false;
}

/** gtest filter semantics: POSITIVE[-NEGATIVE], ':'-separated globs. */
inline bool
filterAccepts(const std::string &name)
{
    const std::string &f = Runtime::get().filter;
    const std::size_t dash = f.find('-');
    std::string pos = dash == std::string::npos ? f : f.substr(0, dash);
    const std::string neg =
        dash == std::string::npos ? std::string() : f.substr(dash + 1);
    if (pos.empty())
        pos = "*";
    if (!anyPatternMatches(pos, name))
        return false;
    return neg.empty() || !anyPatternMatches(neg, name);
}

inline int
runAllTests()
{
    Runtime &rt = Runtime::get();
    for (const auto &expand : rt.deferredInstantiations)
        expand();
    rt.deferredInstantiations.clear();

    if (rt.listOnly) {
        std::string lastSuite;
        for (const TestCase &t : rt.tests) {
            if (t.suite != lastSuite) {
                std::printf("%s.\n", t.suite.c_str());
                lastSuite = t.suite;
            }
            std::printf("  %s\n", t.name.c_str());
        }
        return 0;
    }

    int ran = 0;
    std::vector<std::string> failed;
    for (const TestCase &t : rt.tests) {
        const std::string full = t.suite + "." + t.name;
        if (!filterAccepts(full))
            continue;
        std::printf("[ RUN      ] %s\n", full.c_str());
        std::fflush(stdout);
        rt.failuresInCurrentTest = 0;
        t.run();
        ++ran;
        if (rt.failuresInCurrentTest > 0) {
            failed.push_back(full);
            std::printf("[  FAILED  ] %s\n", full.c_str());
        } else {
            std::printf("[       OK ] %s\n", full.c_str());
        }
    }

    std::printf("[==========] %d test(s) ran.\n", ran);
    if (failed.empty()) {
        std::printf("[  PASSED  ] %d test(s).\n", ran);
        return 0;
    }
    std::printf("[  FAILED  ] %zu test(s):\n", failed.size());
    for (const std::string &name : failed)
        std::printf("[  FAILED  ] %s\n", name.c_str());
    return 1;
}

// ------------------------------------------------- fixtures + registration

template <typename T> void runOneTest();

template <typename T>
bool
registerSimpleTest(const char *suite, const char *name)
{
    registerTest(suite, name, []() { runOneTest<T>(); });
    return true;
}

/** Per-suite list of TEST_P bodies awaiting instantiation. */
template <typename Suite>
struct ParamTestList {
    using Fn = std::function<void(const typename Suite::ParamType &)>;
    std::vector<std::pair<std::string, Fn>> tests;

    static ParamTestList &
    get()
    {
        static ParamTestList l;
        return l;
    }
};

template <typename Suite>
bool
addParamTest(const char *name,
             typename ParamTestList<Suite>::Fn fn)
{
    ParamTestList<Suite>::get().tests.emplace_back(name, std::move(fn));
    return true;
}

struct DefaultParamName {
    template <typename T>
    std::string
    operator()(const T &info) const
    {
        return std::to_string(info.index);
    }
};

} // namespace internal

// --------------------------------------------------------------- fixtures

/** Base fixture, as in GoogleTest. */
class Test
{
  public:
    virtual ~Test() = default;
    virtual void SetUp() {}
    virtual void TearDown() {}
};

template <typename T>
class TestWithParam : public Test
{
  public:
    using ParamType = T;
    const ParamType &GetParam() const { return *minitestParam_; }

    /** Internal: wired up by the TEST_P runner before SetUp(). */
    void minitestSetParam(const ParamType *p) { minitestParam_ = p; }

  private:
    const ParamType *minitestParam_ = nullptr;
};

namespace internal {

// SetUp/TearDown are conventionally protected in fixtures; calling
// through the Test base (where they are public virtuals) keeps the
// call legal while still dispatching to the override.
template <typename T>
void
runFixture(T &t)
{
    Test &base = t;
    base.SetUp();
    t.TestBody();
    base.TearDown();
}

template <typename T>
void
runOneTest()
{
    T t;
    runFixture(t);
}

} // namespace internal

template <typename T>
struct TestParamInfo {
    TestParamInfo(const T &p, std::size_t i) : param(p), index(i) {}
    T param;
    std::size_t index;
};

// ------------------------------------------------------- param generators

template <typename... Ts>
auto
Values(Ts... vs)
{
    using T = typename std::common_type<Ts...>::type;
    return std::vector<T>{static_cast<T>(vs)...};
}

template <typename C>
auto
ValuesIn(const C &container)
{
    using T = typename std::decay<decltype(*std::begin(container))>::type;
    return std::vector<T>(std::begin(container), std::end(container));
}

namespace internal {

inline std::vector<std::tuple<>>
combineImpl()
{
    return {std::tuple<>()};
}

template <typename V, typename... Rest>
std::vector<std::tuple<V, Rest...>>
combineImpl(const std::vector<V> &first, const std::vector<Rest> &...rest)
{
    const auto tails = combineImpl(rest...);
    std::vector<std::tuple<V, Rest...>> out;
    out.reserve(first.size() * tails.size());
    for (const V &v : first)
        for (const auto &t : tails)
            out.push_back(std::tuple_cat(std::make_tuple(v), t));
    return out;
}

template <typename Suite, typename Gen, typename Namer>
bool
instantiateParam(const char *prefix, const char *suiteName, Gen gen,
                 Namer namer)
{
    Runtime::get().deferredInstantiations.push_back([=]() {
        using Param = typename Suite::ParamType;
        const std::vector<Param> params(gen.begin(), gen.end());
        for (std::size_t i = 0; i < params.size(); ++i) {
            const std::string label =
                namer(TestParamInfo<Param>(params[i], i));
            for (const auto &t : ParamTestList<Suite>::get().tests) {
                const Param param = params[i];
                registerTest(
                    std::string(prefix) + "/" + suiteName,
                    t.first + "/" + label, [fn = t.second, param]() {
                        fn(param);
                    });
            }
        }
    });
    return true;
}

} // namespace internal

template <typename... Vs>
auto
Combine(const std::vector<Vs> &...generators)
{
    return internal::combineImpl(generators...);
}

// ------------------------------------------------------------ environment

/** Temp directory with trailing slash, as GoogleTest returns it. */
inline std::string
TempDir()
{
    const char *t = std::getenv("TMPDIR");
    std::string dir = (t != nullptr && *t != '\0') ? t : "/tmp";
    if (dir.back() != '/')
        dir += '/';
    return dir;
}

/** Predicate for EXPECT_EXIT: process exited normally with @p code. */
class ExitedWithCode
{
  public:
    explicit ExitedWithCode(int code) : code_(code) {}

    bool
    operator()(int status) const
    {
        return WIFEXITED(status) && WEXITSTATUS(status) == code_;
    }

  private:
    int code_;
};

inline void
InitGoogleTest(int *argc, char **argv)
{
    int out = 1;
    for (int i = 1; i < *argc; ++i) {
        const std::string a = argv[i];
        if (a.rfind("--gtest_filter=", 0) == 0)
            internal::Runtime::get().filter = a.substr(15);
        else if (a == "--gtest_list_tests")
            internal::Runtime::get().listOnly = true;
        else if (a.rfind("--gtest_", 0) == 0)
            ;  // accepted and ignored (color, shuffle, ...)
        else
            argv[out++] = argv[i];
    }
    argv[out] = nullptr;  // keep the argv[argc] == nullptr guarantee
    *argc = out;
}

inline void
InitGoogleTest()
{
}

} // namespace testing

// -------------------------------------------------------------- the macros

namespace testing {
namespace internal {

/** RAII frame backing SCOPED_TRACE (stack dumped on each failure). */
class ScopedTraceFrame
{
  public:
    template <typename T>
    ScopedTraceFrame(const char *file, int line, const T &message)
    {
        std::ostringstream oss;
        oss << file << ':' << line << ": " << message;
        Runtime::get().traceStack.push_back(oss.str());
    }

    ~ScopedTraceFrame() { Runtime::get().traceStack.pop_back(); }

    ScopedTraceFrame(const ScopedTraceFrame &) = delete;
    ScopedTraceFrame &operator=(const ScopedTraceFrame &) = delete;
};

} // namespace internal
} // namespace testing

#define MINITEST_TRACE_CAT2_(a, b) a##b
#define MINITEST_TRACE_CAT_(a, b) MINITEST_TRACE_CAT2_(a, b)
#define SCOPED_TRACE(message)                                                 \
    ::testing::internal::ScopedTraceFrame MINITEST_TRACE_CAT_(                \
        minitest_scoped_trace_, __LINE__)(__FILE__, __LINE__, (message))

#define MINITEST_CLASS_NAME_(suite, name) suite##_##name##_MiniTest

#define TEST(suite, name)                                                     \
    class MINITEST_CLASS_NAME_(suite, name) : public ::testing::Test          \
    {                                                                         \
      public:                                                                 \
        void TestBody();                                                      \
    };                                                                        \
    static const bool minitest_reg_##suite##_##name =                         \
        ::testing::internal::registerSimpleTest<MINITEST_CLASS_NAME_(         \
            suite, name)>(#suite, #name);                                     \
    void MINITEST_CLASS_NAME_(suite, name)::TestBody()

#define TEST_F(fixture, name)                                                 \
    class MINITEST_CLASS_NAME_(fixture, name) : public fixture                \
    {                                                                         \
      public:                                                                 \
        void TestBody();                                                      \
    };                                                                        \
    static const bool minitest_reg_##fixture##_##name =                       \
        ::testing::internal::registerSimpleTest<MINITEST_CLASS_NAME_(         \
            fixture, name)>(#fixture, #name);                                 \
    void MINITEST_CLASS_NAME_(fixture, name)::TestBody()

#define TEST_P(suite, name)                                                   \
    class MINITEST_CLASS_NAME_(suite, name) : public suite                    \
    {                                                                         \
      public:                                                                 \
        void TestBody();                                                      \
    };                                                                        \
    static const bool minitest_preg_##suite##_##name =                        \
        ::testing::internal::addParamTest<suite>(                             \
            #name, [](const suite::ParamType &p) {                            \
                MINITEST_CLASS_NAME_(suite, name) t;                          \
                t.minitestSetParam(&p);                                       \
                ::testing::internal::runFixture(t);                           \
            });                                                               \
    void MINITEST_CLASS_NAME_(suite, name)::TestBody()

#define MINITEST_INST_3_(prefix, suite, gen)                                  \
    static const bool minitest_inst_##prefix##_##suite =                      \
        ::testing::internal::instantiateParam<suite>(                         \
            #prefix, #suite, (gen), ::testing::internal::DefaultParamName())
#define MINITEST_INST_4_(prefix, suite, gen, namer)                           \
    static const bool minitest_inst_##prefix##_##suite =                      \
        ::testing::internal::instantiateParam<suite>(#prefix, #suite, (gen),  \
                                                     (namer))
#define MINITEST_INST_PICK_(a, b, c, d, NAME, ...) NAME
#define INSTANTIATE_TEST_SUITE_P(...)                                         \
    MINITEST_INST_PICK_(__VA_ARGS__, MINITEST_INST_4_, MINITEST_INST_3_,      \
                        )(__VA_ARGS__)

#define MINITEST_AMBIGUOUS_ELSE_BLOCKER_ switch (0) case 0: default:

#define MINITEST_NONFATAL_(summary)                                           \
    ::testing::internal::AssertHelper(__FILE__, __LINE__, (summary)) =        \
        ::testing::Message()

#define MINITEST_BOOL_(cond, summary, ACTION)                                 \
    MINITEST_AMBIGUOUS_ELSE_BLOCKER_                                          \
    if (cond)                                                                 \
        ;                                                                     \
    else                                                                      \
        ACTION MINITEST_NONFATAL_(summary)

#define EXPECT_TRUE(...)                                                      \
    MINITEST_BOOL_((__VA_ARGS__), "Expected: " #__VA_ARGS__ " is true", )
#define EXPECT_FALSE(...)                                                     \
    MINITEST_BOOL_(!(__VA_ARGS__), "Expected: " #__VA_ARGS__ " is false", )
#define ASSERT_TRUE(...)                                                      \
    MINITEST_BOOL_((__VA_ARGS__), "Expected: " #__VA_ARGS__ " is true",       \
                   return)
#define ASSERT_FALSE(...)                                                     \
    MINITEST_BOOL_(!(__VA_ARGS__), "Expected: " #__VA_ARGS__ " is false",     \
                   return)

#define MINITEST_CMP_(cname, a, b, ACTION)                                    \
    MINITEST_AMBIGUOUS_ELSE_BLOCKER_                                          \
    if (::testing::internal::CmpResult minitest_res_ =                        \
            ::testing::internal::cmp_##cname((a), (b), #a, #b))               \
        ;                                                                     \
    else                                                                      \
        ACTION ::testing::internal::AssertHelper(                             \
            __FILE__, __LINE__, minitest_res_.message) = ::testing::Message()

#define EXPECT_EQ(a, b) MINITEST_CMP_(eq, a, b, )
#define EXPECT_NE(a, b) MINITEST_CMP_(ne, a, b, )
#define EXPECT_LT(a, b) MINITEST_CMP_(lt, a, b, )
#define EXPECT_LE(a, b) MINITEST_CMP_(le, a, b, )
#define EXPECT_GT(a, b) MINITEST_CMP_(gt, a, b, )
#define EXPECT_GE(a, b) MINITEST_CMP_(ge, a, b, )
#define ASSERT_EQ(a, b) MINITEST_CMP_(eq, a, b, return)
#define ASSERT_NE(a, b) MINITEST_CMP_(ne, a, b, return)
#define ASSERT_LT(a, b) MINITEST_CMP_(lt, a, b, return)
#define ASSERT_LE(a, b) MINITEST_CMP_(le, a, b, return)
#define ASSERT_GT(a, b) MINITEST_CMP_(gt, a, b, return)
#define ASSERT_GE(a, b) MINITEST_CMP_(ge, a, b, return)

#define MINITEST_CMP_CALL_(call, ACTION)                                      \
    MINITEST_AMBIGUOUS_ELSE_BLOCKER_                                          \
    if (::testing::internal::CmpResult minitest_res_ =                        \
            ::testing::internal::call)                                        \
        ;                                                                     \
    else                                                                      \
        ACTION ::testing::internal::AssertHelper(                             \
            __FILE__, __LINE__, minitest_res_.message) = ::testing::Message()

#define EXPECT_NEAR(a, b, tol)                                                \
    MINITEST_CMP_CALL_(cmpNear((a), (b), (tol), #a, #b), )
#define ASSERT_NEAR(a, b, tol)                                                \
    MINITEST_CMP_CALL_(cmpNear((a), (b), (tol), #a, #b), return)
#define EXPECT_DOUBLE_EQ(a, b)                                                \
    MINITEST_CMP_CALL_(cmpDoubleEq((a), (b), #a, #b), )
#define ASSERT_DOUBLE_EQ(a, b)                                                \
    MINITEST_CMP_CALL_(cmpDoubleEq((a), (b), #a, #b), return)

#define EXPECT_DEATH(stmt, pattern)                                           \
    MINITEST_CMP_CALL_(checkDeath([&]() { stmt; }, (pattern)), )
#define ASSERT_DEATH(stmt, pattern)                                           \
    MINITEST_CMP_CALL_(checkDeath([&]() { stmt; }, (pattern)), return)
#define EXPECT_EXIT(stmt, predicate, pattern)                                 \
    MINITEST_CMP_CALL_(checkExit([&]() { stmt; }, (predicate), (pattern)), )
#define EXPECT_THROW(stmt, type)                                              \
    MINITEST_CMP_CALL_(checkThrow<type>([&]() { stmt; }, #stmt, #type), )
#define ASSERT_THROW(stmt, type)                                              \
    MINITEST_CMP_CALL_(checkThrow<type>([&]() { stmt; }, #stmt, #type),      \
                       return)

#define FAIL()                                                                \
    return ::testing::internal::AssertHelper(__FILE__, __LINE__, "Failed") =  \
               ::testing::Message()
#define ADD_FAILURE()                                                         \
    ::testing::internal::AssertHelper(__FILE__, __LINE__, "Failed") =         \
        ::testing::Message()
#define SUCCEED() static_cast<void>(::testing::Message())

#define RUN_ALL_TESTS() ::testing::internal::runAllTests()
