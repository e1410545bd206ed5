/**
 * @file
 * Structured result serialization (JSON / CSV / text tables).
 */

#include "common/results.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>

namespace pifetch {

namespace {

/**
 * Shortest decimal form of @p d that strtod parses back to the same
 * bits, forced to keep a '.' or exponent so it re-parses as Real.
 * Non-finite values fall under the JSON policy: "null".
 */
std::string
formatReal(double d)
{
    if (std::isnan(d) || std::isinf(d))
        return "null";
    char buf[40];
    for (int prec = 1; prec <= 17; ++prec) {
        std::snprintf(buf, sizeof(buf), "%.*g", prec, d);
        if (std::strtod(buf, nullptr) == d)
            break;
    }
    std::string s = buf;
    if (s.find_first_of(".eE") == std::string::npos)
        s += ".0";
    return s;
}

bool
numericEqual(const ResultValue &a, const ResultValue &b)
{
    using Kind = ResultValue::Kind;
    if (a.kind() == Kind::Real || b.kind() == Kind::Real)
        return a.number() == b.number();
    // Both integral: compare signed-aware.
    const bool a_neg = a.kind() == Kind::Int && a.intValue() < 0;
    const bool b_neg = b.kind() == Kind::Int && b.intValue() < 0;
    if (a_neg != b_neg)
        return false;
    if (a_neg)
        return a.intValue() == b.intValue();
    const std::uint64_t ua = a.kind() == Kind::Int
        ? static_cast<std::uint64_t>(a.intValue()) : a.uintValue();
    const std::uint64_t ub = b.kind() == Kind::Int
        ? static_cast<std::uint64_t>(b.intValue()) : b.uintValue();
    return ua == ub;
}

/** True when every element of @p v (an array) is a scalar. */
bool
allScalar(const ResultValue &v)
{
    for (std::size_t i = 0; i < v.size(); ++i) {
        const ResultValue::Kind k = v.at(i).kind();
        if (k == ResultValue::Kind::Array ||
            k == ResultValue::Kind::Object)
            return false;
    }
    return true;
}

void
jsonScalar(const ResultValue &v, std::string &out)
{
    switch (v.kind()) {
      case ResultValue::Kind::Null:
        out += "null";
        break;
      case ResultValue::Kind::Bool:
        out += v.boolean() ? "true" : "false";
        break;
      case ResultValue::Kind::Int:
        out += std::to_string(v.intValue());
        break;
      case ResultValue::Kind::Uint:
        out += std::to_string(v.uintValue());
        break;
      case ResultValue::Kind::Real:
        out += formatReal(v.number());
        break;
      case ResultValue::Kind::String:
        out += '"';
        out += jsonEscape(v.str());
        out += '"';
        break;
      default:
        break;
    }
}

void
jsonWrite(const ResultValue &v, unsigned indent, unsigned depth,
          std::string &out)
{
    // Scalars never need the indent strings; build them lazily so the
    // common per-cell calls stay allocation-free.
    const auto pad = [&] {
        return std::string(static_cast<std::size_t>(indent) *
                           (depth + 1), ' ');
    };
    const auto close = [&] {
        return std::string(static_cast<std::size_t>(indent) * depth,
                           ' ');
    };
    const char *nl = indent ? "\n" : "";

    switch (v.kind()) {
      case ResultValue::Kind::Array:
        if (v.size() == 0) {
            out += "[]";
            return;
        }
        // Scalar-only arrays (table rows, size sweeps) stay on one
        // line so snapshots remain reviewable.
        if (allScalar(v)) {
            out += '[';
            for (std::size_t i = 0; i < v.size(); ++i) {
                if (i)
                    out += indent ? ", " : ",";
                jsonScalar(v.at(i), out);
            }
            out += ']';
            return;
        }
        out += '[';
        out += nl;
        for (std::size_t i = 0; i < v.size(); ++i) {
            if (i) {
                out += ',';
                out += nl;
            }
            if (indent)
                out += pad();
            jsonWrite(v.at(i), indent, depth + 1, out);
        }
        out += nl;
        if (indent)
            out += close();
        out += ']';
        return;
      case ResultValue::Kind::Object:
        if (v.size() == 0) {
            out += "{}";
            return;
        }
        out += '{';
        out += nl;
        for (std::size_t i = 0; i < v.size(); ++i) {
            if (i) {
                out += ',';
                out += nl;
            }
            const auto &m = v.member(i);
            if (indent)
                out += pad();
            out += '"';
            out += jsonEscape(m.first);
            out += indent ? "\": " : "\":";
            jsonWrite(m.second, indent, depth + 1, out);
        }
        out += nl;
        if (indent)
            out += close();
        out += '}';
        return;
      default:
        jsonScalar(v, out);
        return;
    }
}

} // namespace

ResultValue
ResultValue::array()
{
    ResultValue v;
    v.kind_ = Kind::Array;
    return v;
}

ResultValue
ResultValue::object()
{
    ResultValue v;
    v.kind_ = Kind::Object;
    return v;
}

double
ResultValue::number() const
{
    switch (kind_) {
      case Kind::Int: return static_cast<double>(i_);
      case Kind::Uint: return static_cast<double>(u_);
      case Kind::Real: return d_;
      default: return 0.0;
    }
}

std::size_t
ResultValue::size() const
{
    if (kind_ == Kind::Array)
        return arr_.size();
    if (kind_ == Kind::Object)
        return obj_.size();
    return 0;
}

ResultValue &
ResultValue::push(ResultValue v)
{
    if (kind_ == Kind::Null)
        kind_ = Kind::Array;
    arr_.push_back(std::move(v));
    return *this;
}

ResultValue &
ResultValue::set(const std::string &key, ResultValue v)
{
    if (kind_ == Kind::Null)
        kind_ = Kind::Object;
    for (auto &m : obj_) {
        if (m.first == key) {
            m.second = std::move(v);
            return *this;
        }
    }
    obj_.emplace_back(key, std::move(v));
    return *this;
}

const ResultValue *
ResultValue::find(const std::string &key) const
{
    for (const auto &m : obj_) {
        if (m.first == key)
            return &m.second;
    }
    return nullptr;
}

bool
ResultValue::operator==(const ResultValue &o) const
{
    if (isNumber() && o.isNumber())
        return numericEqual(*this, o);
    if (kind_ != o.kind_)
        return false;
    switch (kind_) {
      case Kind::Null: return true;
      case Kind::Bool: return b_ == o.b_;
      case Kind::String: return s_ == o.s_;
      case Kind::Array: return arr_ == o.arr_;
      case Kind::Object: return obj_ == o.obj_;
      default: return false;
    }
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (const char ch : s) {
        const unsigned char c = static_cast<unsigned char>(ch);
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += ch;
            }
        }
    }
    return out;
}

std::string
toJson(const ResultValue &v, unsigned indent)
{
    std::string out;
    jsonWrite(v, indent, 0, out);
    return out;
}

// ------------------------------------------------------------- parsing

namespace {

/** Recursive-descent parser over the toJson subset. */
class JsonParser
{
  public:
    JsonParser(const std::string &text, std::string *err)
        : text_(text), err_(err)
    {
    }

    std::optional<ResultValue>
    parse()
    {
        std::optional<ResultValue> v = value(0);
        if (!v)
            return std::nullopt;
        skipWs();
        if (pos_ != text_.size())
            return fail("trailing characters after document");
        return v;
    }

  private:
    std::optional<ResultValue>
    fail(const std::string &why)
    {
        if (err_ && err_->empty()) {
            *err_ = why + " at offset " + std::to_string(pos_);
        }
        return std::nullopt;
    }

    void
    skipWs()
    {
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c != ' ' && c != '\t' && c != '\n' && c != '\r')
                break;
            ++pos_;
        }
    }

    bool
    consume(char c)
    {
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    bool
    literal(const char *word)
    {
        const std::size_t n = std::strlen(word);
        if (text_.compare(pos_, n, word) == 0) {
            pos_ += n;
            return true;
        }
        return false;
    }

    std::optional<ResultValue>
    value(unsigned depth)
    {
        if (depth > 200)
            return fail("nesting too deep");
        skipWs();
        if (pos_ >= text_.size())
            return fail("unexpected end of input");
        const char c = text_[pos_];
        if (c == '{')
            return object(depth);
        if (c == '[')
            return array(depth);
        if (c == '"')
            return string();
        if (literal("null"))
            return ResultValue();
        if (literal("true"))
            return ResultValue(true);
        if (literal("false"))
            return ResultValue(false);
        return number();
    }

    std::optional<ResultValue>
    object(unsigned depth)
    {
        consume('{');
        ResultValue out = ResultValue::object();
        skipWs();
        if (consume('}'))
            return out;
        while (true) {
            skipWs();
            std::optional<ResultValue> key = string();
            if (!key)
                return std::nullopt;
            skipWs();
            if (!consume(':'))
                return fail("expected ':' in object");
            std::optional<ResultValue> v = value(depth + 1);
            if (!v)
                return std::nullopt;
            out.set(key->str(), std::move(*v));
            skipWs();
            if (consume(','))
                continue;
            if (consume('}'))
                return out;
            return fail("expected ',' or '}' in object");
        }
    }

    std::optional<ResultValue>
    array(unsigned depth)
    {
        consume('[');
        ResultValue out = ResultValue::array();
        skipWs();
        if (consume(']'))
            return out;
        while (true) {
            std::optional<ResultValue> v = value(depth + 1);
            if (!v)
                return std::nullopt;
            out.push(std::move(*v));
            skipWs();
            if (consume(','))
                continue;
            if (consume(']'))
                return out;
            return fail("expected ',' or ']' in array");
        }
    }

    /** Append code point @p cp to @p out as UTF-8. */
    static void
    appendUtf8(unsigned long cp, std::string &out)
    {
        if (cp < 0x80) {
            out += static_cast<char>(cp);
        } else if (cp < 0x800) {
            out += static_cast<char>(0xc0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3f));
        } else if (cp < 0x10000) {
            out += static_cast<char>(0xe0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (cp & 0x3f));
        } else {
            out += static_cast<char>(0xf0 | (cp >> 18));
            out += static_cast<char>(0x80 | ((cp >> 12) & 0x3f));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (cp & 0x3f));
        }
    }

    std::optional<unsigned long>
    hex4()
    {
        if (pos_ + 4 > text_.size())
            return std::nullopt;
        unsigned long v = 0;
        for (int i = 0; i < 4; ++i) {
            const char c = text_[pos_++];
            v <<= 4;
            if (c >= '0' && c <= '9')
                v |= static_cast<unsigned long>(c - '0');
            else if (c >= 'a' && c <= 'f')
                v |= static_cast<unsigned long>(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F')
                v |= static_cast<unsigned long>(c - 'A' + 10);
            else
                return std::nullopt;
        }
        return v;
    }

    std::optional<ResultValue>
    string()
    {
        if (!consume('"'))
            return fail("expected string");
        std::string out;
        while (pos_ < text_.size()) {
            const char c = text_[pos_++];
            if (c == '"')
                return ResultValue(std::move(out));
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size())
                break;
            const char e = text_[pos_++];
            switch (e) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'u': {
                std::optional<unsigned long> cp = hex4();
                if (!cp)
                    return fail("bad \\u escape");
                // Surrogate pair.
                if (*cp >= 0xd800 && *cp <= 0xdbff &&
                    text_.compare(pos_, 2, "\\u") == 0) {
                    pos_ += 2;
                    std::optional<unsigned long> lo = hex4();
                    if (!lo || *lo < 0xdc00 || *lo > 0xdfff)
                        return fail("bad surrogate pair");
                    appendUtf8(0x10000 + ((*cp - 0xd800) << 10) +
                                   (*lo - 0xdc00),
                               out);
                } else {
                    appendUtf8(*cp, out);
                }
                break;
              }
              default:
                return fail("bad escape character");
            }
        }
        return fail("unterminated string");
    }

    std::optional<ResultValue>
    number()
    {
        const std::size_t start = pos_;
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if ((c >= '0' && c <= '9') || c == '-' || c == '+' ||
                c == '.' || c == 'e' || c == 'E') {
                ++pos_;
            } else {
                break;
            }
        }
        if (pos_ == start)
            return fail("expected a value");
        const std::string tok = text_.substr(start, pos_ - start);
        if (tok.find_first_of(".eE") == std::string::npos) {
            errno = 0;
            if (tok[0] == '-') {
                char *end = nullptr;
                const long long v = std::strtoll(tok.c_str(), &end, 10);
                if (errno == 0 && end && *end == '\0')
                    return ResultValue(v);
            } else {
                char *end = nullptr;
                const unsigned long long v =
                    std::strtoull(tok.c_str(), &end, 10);
                if (errno == 0 && end && *end == '\0')
                    return ResultValue(v);
            }
        }
        char *end = nullptr;
        const double d = std::strtod(tok.c_str(), &end);
        if (!end || *end != '\0')
            return fail("malformed number");
        return ResultValue(d);
    }

    const std::string &text_;
    std::string *err_;
    std::size_t pos_ = 0;
};

} // namespace

std::optional<ResultValue>
parseJson(const std::string &text, std::string *err)
{
    if (err)
        err->clear();
    return JsonParser(text, err).parse();
}

// ----------------------------------------------------------- CSV / text

std::string
csvEscape(const std::string &field)
{
    if (field.find_first_of(",\"\r\n") == std::string::npos)
        return field;
    std::string out = "\"";
    for (const char c : field) {
        if (c == '"')
            out += '"';  // RFC 4180: embedded quotes are doubled
        out += c;
    }
    out += '"';
    return out;
}

namespace {

/** Scalar cell for CSV / text rendering (empty for null/non-finite). */
std::string
cellString(const ResultValue &v)
{
    switch (v.kind()) {
      case ResultValue::Kind::Null:
        return "";
      case ResultValue::Kind::Bool:
        return v.boolean() ? "true" : "false";
      case ResultValue::Kind::Int:
        return std::to_string(v.intValue());
      case ResultValue::Kind::Uint:
        return std::to_string(v.uintValue());
      case ResultValue::Kind::Real: {
        const std::string s = formatReal(v.number());
        return s == "null" ? "" : s;
      }
      case ResultValue::Kind::String:
        return v.str();
      default:
        return toJson(v, 0);
    }
}

/** Collect the table nodes of a result document (see toCsv docs). */
std::vector<const ResultValue *>
collectTables(const ResultValue &v)
{
    std::vector<const ResultValue *> tables;
    const ResultValue *arr = nullptr;
    if (v.kind() == ResultValue::Kind::Array)
        arr = &v;
    else if (v.find("tables"))
        arr = v.find("tables");
    else if (v.find("columns"))
        tables.push_back(&v);
    if (arr) {
        for (std::size_t i = 0; i < arr->size(); ++i)
            tables.push_back(&arr->at(i));
    }
    return tables;
}

void
csvTable(const ResultValue &t, std::string &out)
{
    const ResultValue *title = t.find("title");
    const ResultValue *cols = t.find("columns");
    const ResultValue *rows = t.find("rows");
    if (title && !title->str().empty())
        out += "# " + title->str() + "\n";
    if (cols) {
        for (std::size_t c = 0; c < cols->size(); ++c) {
            if (c)
                out += ',';
            out += csvEscape(cellString(cols->at(c)));
        }
        out += '\n';
    }
    if (rows) {
        for (std::size_t r = 0; r < rows->size(); ++r) {
            const ResultValue &row = rows->at(r);
            for (std::size_t c = 0; c < row.size(); ++c) {
                if (c)
                    out += ',';
                out += csvEscape(cellString(row.at(c)));
            }
            out += '\n';
        }
    }
}

/** Human-friendly cell: reals trimmed to a readable precision. */
std::string
textCell(const ResultValue &v)
{
    if (v.kind() == ResultValue::Kind::Real) {
        const double d = v.number();
        if (std::isnan(d) || std::isinf(d))
            return "-";
        char buf[40];
        if (d != 0.0 && (std::fabs(d) >= 100000.0 ||
                         std::fabs(d) < 0.0001)) {
            std::snprintf(buf, sizeof(buf), "%.4g", d);
        } else {
            std::snprintf(buf, sizeof(buf), "%.4f", d);
        }
        return buf;
    }
    return cellString(v);
}

void
textTable(const ResultValue &t, std::string &out)
{
    const ResultValue *title = t.find("title");
    const ResultValue *cols = t.find("columns");
    const ResultValue *rows = t.find("rows");
    if (title && !title->str().empty())
        out += "-- " + title->str() + " --\n";

    // Materialize every cell, then pad columns to their max width.
    std::vector<std::vector<std::string>> grid;
    if (cols) {
        grid.emplace_back();
        for (std::size_t c = 0; c < cols->size(); ++c)
            grid.back().push_back(cellString(cols->at(c)));
    }
    if (rows) {
        for (std::size_t r = 0; r < rows->size(); ++r) {
            const ResultValue &row = rows->at(r);
            grid.emplace_back();
            for (std::size_t c = 0; c < row.size(); ++c)
                grid.back().push_back(textCell(row.at(c)));
        }
    }
    std::vector<std::size_t> width;
    for (const auto &row : grid) {
        if (width.size() < row.size())
            width.resize(row.size(), 0);
        for (std::size_t c = 0; c < row.size(); ++c)
            width[c] = std::max(width[c], row[c].size());
    }
    for (const auto &row : grid) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            if (c)
                out += "  ";
            out += row[c];
            if (c + 1 < row.size())
                out.append(width[c] - row[c].size(), ' ');
        }
        out += '\n';
    }
}

} // namespace

std::string
toCsv(const ResultValue &v)
{
    std::string out;
    const std::vector<const ResultValue *> tables = collectTables(v);
    for (std::size_t i = 0; i < tables.size(); ++i) {
        if (i)
            out += '\n';
        csvTable(*tables[i], out);
    }
    return out;
}

std::string
renderText(const ResultValue &v)
{
    std::string out;
    const ResultValue *name = v.find("experiment");
    const ResultValue *desc = v.find("description");
    if (name) {
        out += "=== " + name->str();
        if (desc && !desc->str().empty())
            out += ": " + desc->str();
        out += " ===\n";
    }
    const ResultValue *meta = v.find("meta");
    if (meta && meta->kind() == ResultValue::Kind::Object) {
        // Scalars only; the nested config lives in the JSON output.
        std::string line;
        for (std::size_t i = 0; i < meta->size(); ++i) {
            const auto &m = meta->member(i);
            const ResultValue::Kind k = m.second.kind();
            if (k == ResultValue::Kind::Array ||
                k == ResultValue::Kind::Object)
                continue;
            if (!line.empty())
                line += ", ";
            line += m.first + " " + cellString(m.second);
        }
        if (!line.empty())
            out += "(" + line + ")\n";
    }
    const std::vector<const ResultValue *> tables = collectTables(v);
    for (const ResultValue *t : tables) {
        out += '\n';
        textTable(*t, out);
    }
    const ResultValue *notes = v.find("notes");
    if (notes && notes->size() > 0) {
        out += '\n';
        for (std::size_t i = 0; i < notes->size(); ++i)
            out += notes->at(i).str() + "\n";
    }
    return out;
}

ResultValue
makeTable(const std::string &title,
          const std::vector<std::string> &columns)
{
    ResultValue cols = ResultValue::array();
    for (const std::string &c : columns)
        cols.push(c);
    ResultValue t = ResultValue::object();
    t.set("title", title);
    t.set("columns", std::move(cols));
    t.set("rows", ResultValue::array());
    return t;
}

std::optional<std::vector<std::uint64_t>>
uintArrayFromResult(const ResultValue &v)
{
    if (v.kind() != ResultValue::Kind::Array)
        return std::nullopt;
    std::vector<std::uint64_t> out;
    out.reserve(v.size());
    for (std::size_t i = 0; i < v.size(); ++i) {
        const ResultValue &e = v.at(i);
        if (e.kind() == ResultValue::Kind::Uint) {
            out.push_back(e.uintValue());
        } else if (e.kind() == ResultValue::Kind::Int &&
                   e.intValue() >= 0) {
            out.push_back(static_cast<std::uint64_t>(e.intValue()));
        } else {
            return std::nullopt;
        }
    }
    return out;
}

bool
Strict::fail(const std::string &msg)
{
    if (err.empty())
        err = msg;
    return false;
}

bool
requireObject(const ResultValue *v, const std::string &where, Strict &st)
{
    if (!v || v->kind() != ResultValue::Kind::Object)
        return st.fail(where + " must be a JSON object");
    return true;
}

void
MemberReader::only(const std::vector<std::string> &keys) const
{
    for (std::size_t i = 0; i < obj.size(); ++i) {
        const std::string &key = obj.member(i).first;
        if (std::find(keys.begin(), keys.end(), key) == keys.end())
            st.fail(where + ": unknown key '" + key + "'");
    }
}

void
MemberReader::operator()(const char *key, std::string &out) const
{
    const ResultValue *m = obj.find(key);
    if (!m)
        return;
    if (m->kind() != ResultValue::Kind::String) {
        st.fail(where + " member '" + key + "' must be a string");
        return;
    }
    out = m->str();
}

void
MemberReader::operator()(const char *key, std::uint64_t &out) const
{
    const ResultValue *m = obj.find(key);
    if (!m)
        return;
    if (m->kind() == ResultValue::Kind::Uint) {
        out = m->uintValue();
    } else if (m->kind() == ResultValue::Kind::Int && m->intValue() >= 0) {
        out = static_cast<std::uint64_t>(m->intValue());
    } else {
        st.fail(where + " member '" + key +
                "' must be a non-negative integer");
    }
}

void
MemberReader::operator()(const char *key, unsigned &out) const
{
    std::uint64_t wide = out;
    (*this)(key, wide);
    if (!st.ok())
        return;
    // Truncating would replay another value than the file records.
    if (wide > 0xffffffffull) {
        st.fail(where + " member '" + key + "' does not fit in 32 bits");
        return;
    }
    out = static_cast<unsigned>(wide);
}

void
MemberReader::operator()(const char *key, double &out) const
{
    const ResultValue *m = obj.find(key);
    if (!m)
        return;
    if (!m->isNumber()) {
        st.fail(where + " member '" + key + "' must be a number");
        return;
    }
    const double v = m->number();
    if (!std::isfinite(v)) {
        st.fail(where + " member '" + key + "' must be finite");
        return;
    }
    out = v;
}

void
MemberReader::operator()(const char *key, bool &out) const
{
    const ResultValue *m = obj.find(key);
    if (!m)
        return;
    if (m->kind() != ResultValue::Kind::Bool) {
        st.fail(where + " member '" + key + "' must be a boolean");
        return;
    }
    out = m->boolean();
}

} // namespace pifetch
