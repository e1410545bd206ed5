/**
 * @file
 * Results-serialization tests: JSON escaping, the NaN/Inf policy,
 * parse round trips, empty histograms and CSV quoting — the contract
 * the golden fixtures and `pifetch run --json` artifacts rely on.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "common/results.hh"

namespace pifetch {
namespace {

TEST(JsonEscape, EscapesSpecialsAndControls)
{
    EXPECT_EQ(jsonEscape("plain"), "plain");
    EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
    EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
    EXPECT_EQ(jsonEscape("a\nb\tc\rd"), "a\\nb\\tc\\rd");
    EXPECT_EQ(jsonEscape("\b\f"), "\\b\\f");
    EXPECT_EQ(jsonEscape(std::string("\x01\x1f", 2)),
              "\\u0001\\u001f");
    // UTF-8 payloads pass through untouched.
    EXPECT_EQ(jsonEscape("caf\xc3\xa9"), "caf\xc3\xa9");
}

TEST(Json, ScalarSerialization)
{
    EXPECT_EQ(toJson(ResultValue()), "null");
    EXPECT_EQ(toJson(ResultValue(true)), "true");
    EXPECT_EQ(toJson(ResultValue(false)), "false");
    EXPECT_EQ(toJson(ResultValue(-7)), "-7");
    EXPECT_EQ(toJson(ResultValue(18446744073709551615ull)),
              "18446744073709551615");
    EXPECT_EQ(toJson(ResultValue("hi")), "\"hi\"");
    // Reals always keep a '.' or exponent so the kind round-trips.
    EXPECT_EQ(toJson(ResultValue(2.0)), "2.0");
    EXPECT_EQ(toJson(ResultValue(0.5)), "0.5");
}

TEST(Json, NanAndInfSerializeAsNull)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_EQ(toJson(ResultValue(nan)), "null");
    EXPECT_EQ(toJson(ResultValue(inf)), "null");
    EXPECT_EQ(toJson(ResultValue(-inf)), "null");

    ResultValue row = ResultValue::array();
    row.push(1.0);
    row.push(nan);
    EXPECT_EQ(toJson(row, 0), "[1.0,null]");
}

TEST(Json, DoubleFormattingRoundTripsBits)
{
    const double cases[] = {
        0.0, -0.0, 0.1, 1.0 / 3.0, 2.0 / 3.0, 1e-10, 1e308,
        5e-324,  // smallest denormal
        0.7596928982725528, 123456789.123456789,
    };
    for (const double d : cases) {
        const std::string s = toJson(ResultValue(d));
        const auto parsed = parseJson(s);
        ASSERT_TRUE(parsed.has_value()) << s;
        const double back = parsed->number();
        EXPECT_EQ(std::memcmp(&back, &d, sizeof d), 0)
            << s << " reparsed as " << back;
    }
}

TEST(Json, DocumentRoundTrip)
{
    ResultValue doc = ResultValue::object();
    doc.set("name", "quote\"backslash\\newline\n");
    doc.set("count", 42u);
    doc.set("delta", -3);
    doc.set("ratio", 0.25);
    doc.set("flag", true);
    doc.set("missing", nullptr);
    ResultValue arr = ResultValue::array();
    arr.push(1);
    arr.push("two");
    arr.push(3.5);
    ResultValue inner = ResultValue::object();
    inner.set("empty_arr", ResultValue::array());
    inner.set("empty_obj", ResultValue::object());
    arr.push(std::move(inner));
    doc.set("items", std::move(arr));

    for (const unsigned indent : {0u, 2u, 4u}) {
        std::string err;
        const auto parsed = parseJson(toJson(doc, indent), &err);
        ASSERT_TRUE(parsed.has_value()) << err;
        EXPECT_EQ(*parsed, doc) << toJson(doc, indent);
    }
}

TEST(Json, ParserHandlesUnicodeEscapes)
{
    const auto v = parseJson("\"\\u0041\\u00e9\\ud83d\\ude00\"");
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(v->str(), "A\xc3\xa9\xf0\x9f\x98\x80");
}

TEST(Json, ParserClassifiesNumberKinds)
{
    EXPECT_EQ(parseJson("7")->kind(), ResultValue::Kind::Uint);
    EXPECT_EQ(parseJson("-7")->kind(), ResultValue::Kind::Int);
    EXPECT_EQ(parseJson("7.0")->kind(), ResultValue::Kind::Real);
    EXPECT_EQ(parseJson("7e2")->kind(), ResultValue::Kind::Real);
}

TEST(Json, ParserRejectsMalformedInput)
{
    for (const char *bad :
         {"", "{", "[1,", "{\"a\":}", "{\"a\" 1}", "tru", "\"unterm",
          "[1] trailing", "{\"a\":1,}", "nan", "--1", "1.2.3",
          "\"\\x41\""}) {
        std::string err;
        EXPECT_FALSE(parseJson(bad, &err).has_value()) << bad;
        EXPECT_FALSE(err.empty()) << bad;
    }
}

TEST(Json, EqualityComparesAcrossNumericKinds)
{
    EXPECT_EQ(ResultValue(7), ResultValue(7u));
    EXPECT_EQ(ResultValue(7.0), ResultValue(7u));
    EXPECT_NE(ResultValue(-1), ResultValue(1u));
    EXPECT_NE(ResultValue(7), ResultValue(8));
    // NaN never equals anything, including itself (IEEE).
    const double nan = std::numeric_limits<double>::quiet_NaN();
    EXPECT_NE(ResultValue(nan), ResultValue(nan));
}

TEST(CsvEscape, QuotesPerRfc4180)
{
    EXPECT_EQ(csvEscape("plain"), "plain");
    EXPECT_EQ(csvEscape("a,b"), "\"a,b\"");
    EXPECT_EQ(csvEscape("say \"hi\""), "\"say \"\"hi\"\"\"");
    EXPECT_EQ(csvEscape("line1\nline2"), "\"line1\nline2\"");
    EXPECT_EQ(csvEscape("cr\rhere"), "\"cr\rhere\"");
    EXPECT_EQ(csvEscape(""), "");
}

TEST(Csv, RendersTablesWithQuoting)
{
    ResultValue t = makeTable("Title, with comma",
                              {"name", "value"});
    ResultValue row = ResultValue::array();
    row.push("a,b");
    row.push(1.5);
    t.find("rows")->push(std::move(row));
    ResultValue row2 = ResultValue::array();
    row2.push("q\"uote");
    row2.push(nullptr);
    t.find("rows")->push(std::move(row2));

    ResultValue doc = ResultValue::object();
    doc.set("tables", ResultValue::array().push(std::move(t)));
    const std::string csv = toCsv(doc);
    EXPECT_EQ(csv,
              "# Title, with comma\n"
              "name,value\n"
              "\"a,b\",1.5\n"
              "\"q\"\"uote\",\n");
}

TEST(Csv, MultipleTablesSeparatedByBlankLine)
{
    ResultValue doc = ResultValue::object();
    ResultValue tables = ResultValue::array();
    tables.push(makeTable("one", {"a"}));
    tables.push(makeTable("two", {"b"}));
    doc.set("tables", std::move(tables));
    EXPECT_EQ(toCsv(doc), "# one\na\n\n# two\nb\n");
}

TEST(RenderText, ShowsTitleColumnsAndNotes)
{
    ResultValue t = makeTable("My Table", {"col_a", "col_b"});
    ResultValue row = ResultValue::array();
    row.push("x");
    row.push(0.125);
    t.find("rows")->push(std::move(row));

    ResultValue doc = ResultValue::object();
    doc.set("experiment", "demo");
    doc.set("tables", ResultValue::array().push(std::move(t)));
    doc.set("notes", ResultValue::array().push("a note"));

    const std::string text = renderText(doc);
    EXPECT_NE(text.find("demo"), std::string::npos);
    EXPECT_NE(text.find("My Table"), std::string::npos);
    EXPECT_NE(text.find("col_a"), std::string::npos);
    EXPECT_NE(text.find("0.1250"), std::string::npos);
    EXPECT_NE(text.find("a note"), std::string::npos);
}

} // namespace
} // namespace pifetch
