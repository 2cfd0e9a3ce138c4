// Unit tests for the deterministic JSON writer: RFC 8259 escaping,
// shortest round-trip doubles, nesting discipline.
#include "obs/json.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

namespace balbench::obs {
namespace {

TEST(JsonEscape, MandatoryEscapes) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
}

TEST(JsonEscape, ControlCharacters) {
  EXPECT_EQ(json_escape("a\nb"), "a\\nb");
  EXPECT_EQ(json_escape("a\tb"), "a\\tb");
  EXPECT_EQ(json_escape("a\rb"), "a\\rb");
  EXPECT_EQ(json_escape("a\bb"), "a\\bb");
  EXPECT_EQ(json_escape("a\fb"), "a\\fb");
  EXPECT_EQ(json_escape(std::string("a\x01") + "b"), "a\\u0001b");
  EXPECT_EQ(json_escape(std::string(1, '\x1f')), "\\u001f");
}

TEST(JsonEscape, Utf8PassesThrough) {
  EXPECT_EQ(json_escape("µs → café"), "µs → café");
}

TEST(JsonDouble, ShortestRoundTrip) {
  EXPECT_EQ(json_double(0.1), "0.1");
  EXPECT_EQ(json_double(0.5), "0.5");
  EXPECT_EQ(json_double(-2.25), "-2.25");
}

TEST(JsonDouble, IntegralValuesKeepDoubleness) {
  EXPECT_EQ(json_double(0.0), "0.0");
  EXPECT_EQ(json_double(3.0), "3.0");
  EXPECT_EQ(json_double(-7.0), "-7.0");
}

TEST(JsonDouble, NonFiniteBecomesNull) {
  EXPECT_EQ(json_double(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(json_double(-std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(json_double(std::numeric_limits<double>::quiet_NaN()), "null");
}

TEST(JsonWriter, CompactObject) {
  std::ostringstream os;
  JsonWriter w(os, /*indent=*/0);
  w.begin_object();
  w.field("name", "b_eff");
  w.field("nprocs", 64);
  w.field("bw", 1.5);
  w.field("ok", true);
  w.key("tags").begin_array().value("a").value("b").end_array();
  w.end_object();
  EXPECT_EQ(os.str(),
            "{\"name\":\"b_eff\",\"nprocs\":64,\"bw\":1.5,\"ok\":true,"
            "\"tags\":[\"a\",\"b\"]}");
}

TEST(JsonWriter, IndentedLayoutIsStable) {
  std::ostringstream os;
  JsonWriter w(os, /*indent=*/1);
  w.begin_object();
  w.key("a").begin_object();
  w.field("b", 1);
  w.end_object();
  w.end_object();
  EXPECT_EQ(os.str(), "{\n \"a\": {\n  \"b\": 1\n }\n}");
}

TEST(JsonWriter, EmptyContainers) {
  std::ostringstream os;
  JsonWriter w(os, 0);
  w.begin_object();
  w.key("o").begin_object().end_object();
  w.key("a").begin_array().end_array();
  w.end_object();
  EXPECT_EQ(os.str(), "{\"o\":{},\"a\":[]}");
}

TEST(JsonWriter, NestingErrorsThrow) {
  std::ostringstream os;
  JsonWriter w(os, 0);
  w.begin_object();
  EXPECT_THROW(w.value(1), std::logic_error);  // value without key
  w.key("k");
  EXPECT_THROW(w.key("k2"), std::logic_error);  // key after key
  w.value(1);
  EXPECT_THROW(w.end_array(), std::logic_error);  // mismatched close
}

TEST(JsonWriter, EscapesKeysAndValues) {
  std::ostringstream os;
  JsonWriter w(os, 0);
  w.begin_object();
  w.field("cell \"17\"", "ring\n2");
  w.end_object();
  EXPECT_EQ(os.str(), "{\"cell \\\"17\\\"\":\"ring\\n2\"}");
}


// ---------------------------------------------------------------------------
// Parser (the read side: perf baselines, schema validation)
// ---------------------------------------------------------------------------

TEST(JsonParse, RoundTripsWriterOutput) {
  std::ostringstream os;
  JsonWriter w(os, 1);
  w.begin_object();
  w.field("schema", "balbench-perf-history/2");
  w.field("n", std::int64_t{42});
  w.field("x", 0.1);
  w.field("ok", true);
  w.key("xs").begin_array().value(1.5).value(-2.0).end_array();
  w.key("nested").begin_object().field("k", "v\n").end_object();
  w.end_object();

  const JsonValue doc = parse_json(os.str());
  EXPECT_EQ(doc.at("schema").as_string(), "balbench-perf-history/2");
  EXPECT_EQ(doc.at("n").as_number(), 42.0);
  EXPECT_EQ(doc.at("x").as_number(), 0.1);  // exact: shortest round trip
  EXPECT_TRUE(doc.at("ok").as_bool());
  ASSERT_EQ(doc.at("xs").as_array().size(), 2u);
  EXPECT_EQ(doc.at("xs").as_array()[1].as_number(), -2.0);
  EXPECT_EQ(doc.at("nested").at("k").as_string(), "v\n");
}

TEST(JsonParse, LiteralsAndNumbers) {
  EXPECT_TRUE(parse_json("null").is_null());
  EXPECT_FALSE(parse_json("false").as_bool());
  EXPECT_EQ(parse_json("-1.5e3").as_number(), -1500.0);
  EXPECT_EQ(parse_json("[ ]").as_array().size(), 0u);
  EXPECT_EQ(parse_json("{ }").as_object().size(), 0u);
}

TEST(JsonParse, StringEscapesIncludingUnicode) {
  EXPECT_EQ(parse_json("\"a\\n\\t\\\"b\\\\\"").as_string(), "a\n\t\"b\\");
  EXPECT_EQ(parse_json("\"\\u0041\"").as_string(), "A");
  EXPECT_EQ(parse_json("\"\\u00e9\"").as_string(), "\xc3\xa9");  // e-acute as UTF-8
}

TEST(JsonParse, MalformedInputThrows) {
  EXPECT_THROW(parse_json(""), std::runtime_error);
  EXPECT_THROW(parse_json("{\"a\":1,}"), std::runtime_error);   // trailing comma
  EXPECT_THROW(parse_json("[1 2]"), std::runtime_error);      // missing comma
  EXPECT_THROW(parse_json("{\"a\" 1}"), std::runtime_error);   // missing colon
  EXPECT_THROW(parse_json("1 garbage"), std::runtime_error);  // trailing junk
  EXPECT_THROW(parse_json("\"unterminated"), std::runtime_error);
}

/// What the error message looks like for `input`.
std::string parse_error(std::string_view input) {
  try {
    parse_json(input);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(JsonParse, ErrorsCarryLineAndColumn) {
  // The bad token is on line 3; the column points into "nope".
  const std::string what = parse_error("{\n  \"a\": 1,\n  \"b\": nope\n}");
  EXPECT_NE(what.find("line 3"), std::string::npos) << what;
  EXPECT_NE(what.find("column"), std::string::npos) << what;
  // Single-line input: everything is line 1.
  EXPECT_NE(parse_error("[1, nope]").find("line 1"), std::string::npos);
}

TEST(JsonParse, ErrorsCarryKeyPath) {
  // The innermost enclosing container is named, root is "$".
  EXPECT_NE(parse_error("{\"machines\": [{\"roofline\": nope}]}")
                .find("$.machines[0].roofline"),
            std::string::npos);
  EXPECT_NE(parse_error("{\"a\": [1, , 2]}").find("$.a[1]"),
            std::string::npos);
  EXPECT_NE(parse_error("nope").find("(at $)"), std::string::npos);
}

TEST(JsonParse, KindMismatchThrows) {
  const JsonValue doc = parse_json("{\"a\": [1]}");
  EXPECT_THROW((void)doc.at("a").as_object(), std::runtime_error);
  EXPECT_THROW((void)doc.at("missing"), std::runtime_error);
  EXPECT_EQ(doc.find("missing"), nullptr);
  EXPECT_NE(doc.find("a"), nullptr);
}

}  // namespace
}  // namespace balbench::obs
