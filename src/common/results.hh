/**
 * @file
 * Structured result values with JSON and CSV serialization.
 *
 * Every experiment in the registry returns a ResultValue tree instead
 * of printing free-form rows: the same tree renders as human-readable
 * tables, machine-readable JSON (the `pifetch run --json` artifact and
 * the golden-snapshot fixtures) and CSV. The tree is a small ordered
 * JSON document model; objects preserve insertion order so that
 * serialization is deterministic and snapshot-comparable byte for
 * byte.
 *
 * Serialization policy (locked by tests/test_results.cc):
 *  - Doubles print with the shortest decimal form that parses back to
 *    the identical bits, and always carry a '.' or exponent so the
 *    kind survives a round trip.
 *  - NaN and +/-Inf are not representable in JSON and serialize as
 *    null (CSV: empty field).
 *  - Strings escape the two JSON specials and all control characters
 *    (as \uXXXX).
 *  - CSV fields containing a comma, quote, CR or LF are quoted with
 *    embedded quotes doubled (RFC 4180).
 */

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace pifetch {

/**
 * One node of a structured result document.
 *
 * A tagged union over the JSON kinds, with signed/unsigned integers
 * kept distinct from doubles so counters serialize exactly.
 */
class ResultValue
{
  public:
    enum class Kind { Null, Bool, Int, Uint, Real, String, Array, Object };

    ResultValue() = default;
    ResultValue(std::nullptr_t) {}
    ResultValue(bool b) : kind_(Kind::Bool), b_(b) {}
    ResultValue(int v) : kind_(Kind::Int), i_(v) {}
    ResultValue(long v) : kind_(Kind::Int), i_(v) {}
    ResultValue(long long v) : kind_(Kind::Int), i_(v) {}
    ResultValue(unsigned v) : kind_(Kind::Uint), u_(v) {}
    ResultValue(unsigned long v) : kind_(Kind::Uint), u_(v) {}
    ResultValue(unsigned long long v) : kind_(Kind::Uint), u_(v) {}
    ResultValue(double v) : kind_(Kind::Real), d_(v) {}
    ResultValue(const char *s) : kind_(Kind::String), s_(s) {}
    ResultValue(std::string s) : kind_(Kind::String), s_(std::move(s)) {}

    /** An empty array ([] serializes even with no elements). */
    static ResultValue array();

    /** An empty object ({} serializes even with no members). */
    static ResultValue object();

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isNumber() const
    {
        return kind_ == Kind::Int || kind_ == Kind::Uint ||
               kind_ == Kind::Real;
    }

    /** Scalar accessors; only valid for the matching kind. */
    bool boolean() const { return b_; }
    std::int64_t intValue() const { return i_; }
    std::uint64_t uintValue() const { return u_; }

    /** Any numeric kind widened to double (0.0 otherwise). */
    double number() const;

    const std::string &str() const { return s_; }

    /** Elements (array) or members (object); 0 for scalars. */
    std::size_t size() const;

    /** Append to an array; returns *this for chaining. */
    ResultValue &push(ResultValue v);

    /** Array element i. */
    const ResultValue &at(std::size_t i) const { return arr_.at(i); }

    /**
     * Set (or overwrite) an object member, preserving first-insertion
     * order; returns *this for chaining.
     */
    ResultValue &set(const std::string &key, ResultValue v);

    /** Object member by key, or nullptr when absent / not an object. */
    const ResultValue *find(const std::string &key) const;

    ResultValue *
    find(const std::string &key)
    {
        return const_cast<ResultValue *>(
            static_cast<const ResultValue *>(this)->find(key));
    }

    /** Object member i as (key, value). */
    const std::pair<std::string, ResultValue> &
    member(std::size_t i) const
    {
        return obj_.at(i);
    }

    /**
     * Deep structural equality. Doubles compare by value (so NaN
     * never equals anything, matching IEEE); Int/Uint/Real compare
     * across kinds when numerically identical, so a parsed document
     * equals its source.
     */
    bool operator==(const ResultValue &o) const;
    bool operator!=(const ResultValue &o) const { return !(*this == o); }

  private:
    Kind kind_ = Kind::Null;
    bool b_ = false;
    std::int64_t i_ = 0;
    std::uint64_t u_ = 0;
    double d_ = 0.0;
    std::string s_;
    std::vector<ResultValue> arr_;
    std::vector<std::pair<std::string, ResultValue>> obj_;
};

/** JSON-escape @p s (quotes, backslash, control characters). */
std::string jsonEscape(const std::string &s);

/**
 * Serialize @p v as JSON. @p indent is spaces per nesting level; 0
 * produces a compact single line. The output always ends without a
 * trailing newline.
 */
std::string toJson(const ResultValue &v, unsigned indent = 2);

/**
 * Parse a JSON document (the subset toJson emits plus insignificant
 * whitespace). Returns nullopt and sets @p err on malformed input.
 * Numbers without '.'/exponent parse as Int (negative) or Uint;
 * anything else parses as Real.
 */
std::optional<ResultValue> parseJson(const std::string &text,
                                     std::string *err = nullptr);

/** RFC-4180 CSV field escaping. */
std::string csvEscape(const std::string &field);

/**
 * Render the `tables` of an experiment result document as CSV: for
 * each table a `# title` comment, the header row, then data rows,
 * with a blank line between tables. Also accepts a single table
 * object or a bare array of tables.
 */
std::string toCsv(const ResultValue &v);

/**
 * Render the experiment-document convention (meta / tables / notes)
 * as the human-readable report `pifetch run` prints.
 */
std::string renderText(const ResultValue &v);

/** Convention helper: a table node {title, columns, rows:[]}. */
ResultValue makeTable(const std::string &title,
                      const std::vector<std::string> &columns);

/**
 * Serialize an unsigned-integer column as a JSON array. The columnar
 * dump format (src/query/) stores each table column this way.
 */
template <typename T>
ResultValue
toResultArray(const std::vector<T> &column)
{
    ResultValue arr = ResultValue::array();
    for (const T &v : column)
        arr.push(static_cast<std::uint64_t>(v));
    return arr;
}

/**
 * Parse an array of non-negative integers back into a column.
 * Returns nullopt when @p v is not an array or any element is not a
 * non-negative integer (Real/negative elements are rejected so a
 * column round-trips exactly).
 */
std::optional<std::vector<std::uint64_t>>
uintArrayFromResult(const ResultValue &v);

// ------------------------------------------------ strict member reads

/** First-error accumulator for the strict document readers. */
struct Strict
{
    std::string err;

    bool ok() const { return err.empty(); }

    /** Record @p msg unless an error is already recorded; false. */
    bool fail(const std::string &msg);
};

/** Fail @p st unless @p v is an object; @p where names it. */
bool requireObject(const ResultValue *v, const std::string &where,
                   Strict &st);

/**
 * Typed reads of one object's members, for the documents the program
 * reads back (workload specs, repro scenarios). An absent member
 * keeps its target's value. A member of the wrong kind, a negative
 * integer, one wider than its field or a non-finite number fails
 * @ref st with a message naming @ref where and the key. A reader is a
 * field-table visitor: `forEachWorkloadParam(p, read)` reads every
 * generator knob.
 */
struct MemberReader
{
    const ResultValue &obj;  //!< an object (see requireObject)
    std::string where;
    Strict &st;

    /** Refuse every member outside @p keys, the object's schema. */
    void only(const std::vector<std::string> &keys) const;

    void operator()(const char *key, std::string &out) const;
    void operator()(const char *key, std::uint64_t &out) const;
    void operator()(const char *key, unsigned &out) const;
    void operator()(const char *key, double &out) const;
    void operator()(const char *key, bool &out) const;
};

} // namespace pifetch
