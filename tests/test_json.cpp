// Tests for the dependency-free JSON utility: strict parsing with located
// errors, canonical double formatting, the streaming writer, and the
// byte-identical serialize -> parse -> re-serialize round trip the
// service layer's caching story depends on.

#include "resilience/util/json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

namespace ru = resilience::util;
using ru::JsonValue;

TEST(Json, ParsesPrimitives) {
  EXPECT_TRUE(JsonValue::parse("null").is_null());
  EXPECT_EQ(JsonValue::parse("true").as_bool(), true);
  EXPECT_EQ(JsonValue::parse("false").as_bool(), false);
  EXPECT_DOUBLE_EQ(JsonValue::parse("42").as_double(), 42.0);
  EXPECT_DOUBLE_EQ(JsonValue::parse("-1.25e-3").as_double(), -1.25e-3);
  EXPECT_EQ(JsonValue::parse("\"hi\"").as_string(), "hi");
}

TEST(Json, ParsesNestedStructures) {
  const auto value = JsonValue::parse(
      R"({"a": [1, 2, {"b": "c"}], "d": {"e": null}, "f": true})");
  ASSERT_TRUE(value.is_object());
  const auto& a = value.find("a")->as_array();
  ASSERT_EQ(a.size(), 3u);
  EXPECT_DOUBLE_EQ(a[1].as_double(), 2.0);
  EXPECT_EQ(a[2].find("b")->as_string(), "c");
  EXPECT_TRUE(value.find("d")->find("e")->is_null());
  EXPECT_EQ(value.find("missing"), nullptr);
}

TEST(Json, ObjectsPreserveInsertionOrder) {
  JsonValue object = JsonValue::object();
  object.set("z", 1);
  object.set("a", 2);
  object.set("m", 3);
  EXPECT_EQ(object.dump(), R"({"z":1,"a":2,"m":3})");
  // And the parser keeps the document's order, not a sorted one.
  EXPECT_EQ(JsonValue::parse(R"({"z":1,"a":2,"m":3})").dump(),
            R"({"z":1,"a":2,"m":3})");
}

TEST(Json, StringEscapes) {
  const auto value = JsonValue::parse(R"("line\nbreak \"q\" Aé")");
  EXPECT_EQ(value.as_string(), "line\nbreak \"q\" A\xC3\xA9");
  // Control characters and quotes re-escape on output.
  EXPECT_EQ(JsonValue(std::string("a\nb\"c")).dump(), R"("a\nb\"c")");
  // Surrogate pair -> astral code point (UTF-8: F0 9D 84 9E).
  EXPECT_EQ(JsonValue::parse(R"("𝄞")").as_string(),
            "\xF0\x9D\x84\x9E");
}

TEST(Json, ErrorsCarryPosition) {
  try {
    (void)JsonValue::parse("{\"a\": 1,\n  \"b\": }");
    FAIL() << "expected JsonError";
  } catch (const ru::JsonError& error) {
    EXPECT_EQ(error.line, 2u);
    EXPECT_GT(error.column, 0u);
    EXPECT_NE(std::string(error.what()).find("line 2"), std::string::npos);
  }
}

TEST(Json, RejectsMalformedDocuments) {
  EXPECT_THROW((void)JsonValue::parse(""), ru::JsonError);
  EXPECT_THROW((void)JsonValue::parse("{\"a\": 1} trailing"), ru::JsonError);
  EXPECT_THROW((void)JsonValue::parse("\"unterminated"), ru::JsonError);
  EXPECT_THROW((void)JsonValue::parse("[1, 2"), ru::JsonError);
  EXPECT_THROW((void)JsonValue::parse("01"), ru::JsonError);
  EXPECT_THROW((void)JsonValue::parse("truthy"), ru::JsonError);
  EXPECT_THROW((void)JsonValue::parse(R"({"a":1,"a":2})"), ru::JsonError);
  EXPECT_THROW((void)JsonValue::parse("{\"a\" 1}"), ru::JsonError);
}

TEST(Json, DepthLimitStopsHostileNesting) {
  std::string deep(1000, '[');
  deep += std::string(1000, ']');
  EXPECT_THROW((void)JsonValue::parse(deep), ru::JsonError);
}

TEST(Json, TypeMismatchThrows) {
  const auto value = JsonValue::parse("[1]");
  EXPECT_THROW((void)value.as_object(), ru::JsonError);
  EXPECT_THROW((void)value.as_string(), ru::JsonError);
  EXPECT_THROW((void)JsonValue(1.0).as_bool(), ru::JsonError);
}

TEST(Json, NumberFormattingIsShortestRoundTrip) {
  EXPECT_EQ(ru::format_json_number(3.0), "3");
  EXPECT_EQ(ru::format_json_number(-130.0), "-130");
  EXPECT_EQ(ru::format_json_number(0.1), "0.1");
  EXPECT_EQ(ru::format_json_number(std::numeric_limits<double>::infinity()),
            "Infinity");
  EXPECT_EQ(ru::format_json_number(-std::numeric_limits<double>::infinity()),
            "-Infinity");
  EXPECT_EQ(ru::format_json_number(std::numeric_limits<double>::quiet_NaN()),
            "NaN");

  // Every representation must strtod back to the exact bits.
  const std::vector<double> values = {
      0.0,    -0.0,   1.0 / 3.0, 0.1,    1e-300, 1e300,  9265.806914864203,
      2.3e-7, 1e15,   -1e15,     6.25e-2, 1.7976931348623157e308,
      5e-324  /* min subnormal */};
  for (const double value : values) {
    const std::string text = ru::format_json_number(value);
    const double parsed = std::strtod(text.c_str(), nullptr);
    EXPECT_EQ(std::signbit(parsed), std::signbit(value)) << text;
    EXPECT_EQ(parsed, value) << text;
  }
}

TEST(Json, RoundTripIsByteIdentical) {
  JsonValue doc = JsonValue::object();
  doc.set("name", "round trip");
  doc.set("int", 42);
  doc.set("neg", -17.5);
  doc.set("tiny", 2.3e-7);
  doc.set("inf", std::numeric_limits<double>::infinity());
  doc.set("flag", true);
  doc.set("nothing", nullptr);
  JsonValue list = JsonValue::array();
  list.push_back(1.0 / 3.0);
  list.push_back("x\ty");
  doc.set("list", std::move(list));

  const std::string once = doc.dump();
  const std::string twice = JsonValue::parse(once).dump();
  EXPECT_EQ(once, twice);

  // Pretty form parses back to the same compact form.
  const std::string pretty = doc.dump(2);
  EXPECT_EQ(JsonValue::parse(pretty).dump(), once);
}

TEST(Json, NonFiniteTokensParse) {
  EXPECT_TRUE(std::isinf(JsonValue::parse("Infinity").as_double()));
  EXPECT_TRUE(std::isinf(JsonValue::parse("-Infinity").as_double()));
  EXPECT_LT(JsonValue::parse("-Infinity").as_double(), 0.0);
  EXPECT_TRUE(std::isnan(JsonValue::parse("NaN").as_double()));
  EXPECT_TRUE(std::isnan(JsonValue::parse("[NaN]").as_array()[0].as_double()));
}

// ------------------------------------------------------------ writer --

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr const char* kEscapes =
    "quote \" backslash \\ slash / \b\f\n\r\t ctl \x01\x1f del \x7f"
    " utf8 \xc3\xa9\xe2\x82\xac";
constexpr const char* kEscapedKey = "key \"\\\x01";

/// A document with every value kind: literals, empty and nested
/// containers, escapes in a value and in a key, and the number edge
/// cases (-0, the least subnormal, 1e21, 2^53 + 1 as an integer, the
/// largest double, non-finite values).
JsonValue every_kind_tree() {
  JsonValue doc = JsonValue::object();
  doc.set("null", nullptr);
  doc.set("true", true);
  doc.set("false", false);
  doc.set("empty_object", JsonValue::object());
  doc.set("empty_array", JsonValue::array());
  JsonValue deepest = JsonValue::object();
  deepest.set("b", JsonValue::object());
  JsonValue two = JsonValue::array();
  two.push_back(2);
  two.push_back(std::move(deepest));
  JsonValue one = JsonValue::array();
  one.push_back(1);
  one.push_back(std::move(two));
  JsonValue a = JsonValue::array();
  a.push_back(JsonValue::array());
  a.push_back(JsonValue::object());
  a.push_back(std::move(one));
  JsonValue c = JsonValue::object();
  c.set("d", JsonValue::array());
  JsonValue nested = JsonValue::object();
  nested.set("a", std::move(a));
  nested.set("c", std::move(c));
  doc.set("nested", std::move(nested));
  doc.set("escapes", kEscapes);
  doc.set(kEscapedKey, "escaped key");
  JsonValue numbers = JsonValue::array();
  for (const JsonValue& number :
       {JsonValue(0), JsonValue(-0.0), JsonValue(5e-324), JsonValue(1e21),
        JsonValue(std::int64_t{9007199254740993}),
        JsonValue(std::size_t{9007199254740993ULL}), JsonValue(0.1),
        JsonValue(-130), JsonValue(1.25e-7), JsonValue(1234567),
        JsonValue(1000000), JsonValue(1.7976931348623157e308)}) {
    numbers.push_back(number);
  }
  doc.set("numbers", std::move(numbers));
  JsonValue non_finite = JsonValue::array();
  non_finite.push_back(std::numeric_limits<double>::quiet_NaN());
  non_finite.push_back(kInf);
  non_finite.push_back(-kInf);
  doc.set("non_finite", std::move(non_finite));
  return doc;
}

/// The same document, written straight through the writer.
void write_every_kind(ru::JsonWriter& out) {
  out.begin_object()
      .key("null").null()
      .member("true", true)
      .member("false", false)
      .key("empty_object").begin_object().end_object()
      .key("empty_array").begin_array().end_array()
      .key("nested").begin_object()
      .key("a").begin_array()
      .begin_array().end_array()
      .begin_object().end_object()
      .begin_array().value(1)
      .begin_array().value(2).begin_object()
      .key("b").begin_object().end_object()
      .end_object().end_array()
      .end_array()
      .end_array()
      .key("c").begin_object().key("d").begin_array().end_array().end_object()
      .end_object()
      .member("escapes", kEscapes)
      .member(kEscapedKey, "escaped key")
      .key("numbers").begin_array()
      .value(0).value(-0.0).value(5e-324).value(1e21)
      .value(std::int64_t{9007199254740993})
      .value(std::uint64_t{9007199254740993ULL})
      .value(0.1).value(-130).value(1.25e-7).value(1234567).value(1000000)
      .value(1.7976931348623157e308)
      .end_array()
      .key("non_finite").begin_array()
      .value(std::numeric_limits<double>::quiet_NaN()).value(kInf).value(-kInf)
      .end_array()
      .end_object();
}

std::string written(int indent) {
  std::string text;
  ru::JsonWriter out(text, indent);
  write_every_kind(out);
  return text;
}

}  // namespace

TEST(JsonWriter, MatchesDumpForEveryValueKind) {
  const JsonValue tree = every_kind_tree();
  for (const int indent : {-1, 0, 2, 4}) {
    SCOPED_TRACE(indent);
    EXPECT_EQ(written(indent), tree.dump(indent));
  }

  // Both forms as an earlier build's dump() and dump(2) wrote them.
  const std::string compact =
      R"({"null":null,"true":true,"false":false,"empty_object":{},)"
      R"("empty_array":[],"nested":{"a":[[],{},[1,[2,{"b":{}}]]],)"
      R"("c":{"d":[]}},"escapes":"quote \" backslash \\ slash / )"
      R"(\b\f\n\r\t ctl \u0001\u001f del )" "\x7f" " utf8 "
      "\xc3\xa9\xe2\x82\xac"
      R"(","key \"\\\u0001":"escaped key","numbers":[0,-0,5e-324,1e+21,)"
      R"(9007199254740992,9007199254740992,0.1,-130,1.25e-07,1234567,)"
      R"(1e+06,1.7976931348623157e+308],"non_finite":[NaN,Infinity,)"
      R"(-Infinity]})";
  EXPECT_EQ(written(-1), compact);
  EXPECT_EQ(written(2),
            "{\n"
            "  \"null\": null,\n"
            "  \"true\": true,\n"
            "  \"false\": false,\n"
            "  \"empty_object\": {},\n"
            "  \"empty_array\": [],\n"
            "  \"nested\": {\n"
            "    \"a\": [\n"
            "      [],\n"
            "      {},\n"
            "      [\n"
            "        1,\n"
            "        [\n"
            "          2,\n"
            "          {\n"
            "            \"b\": {}\n"
            "          }\n"
            "        ]\n"
            "      ]\n"
            "    ],\n"
            "    \"c\": {\n"
            "      \"d\": []\n"
            "    }\n"
            "  },\n"
            R"(  "escapes": "quote \" backslash \\ slash / \b\f\n\r\t ctl )"
            R"(\u0001\u001f del )" "\x7f" " utf8 \xc3\xa9\xe2\x82\xac\",\n"
            R"(  "key \"\\\u0001": "escaped key",)" "\n"
            "  \"numbers\": [\n"
            "    0,\n"
            "    -0,\n"
            "    5e-324,\n"
            "    1e+21,\n"
            "    9007199254740992,\n"
            "    9007199254740992,\n"
            "    0.1,\n"
            "    -130,\n"
            "    1.25e-07,\n"
            "    1234567,\n"
            "    1e+06,\n"
            "    1.7976931348623157e+308\n"
            "  ],\n"
            "  \"non_finite\": [\n"
            "    NaN,\n"
            "    Infinity,\n"
            "    -Infinity\n"
            "  ]\n"
            "}");

  // And the compact text parses back to itself.
  EXPECT_EQ(JsonValue::parse(compact).dump(), compact);
}

TEST(JsonWriter, AppendsAndTheWrappersShareItsRules) {
  std::string text = "prefix ";
  ru::JsonWriter(text).begin_array().value("a").value(2.5).end_array();
  EXPECT_EQ(text, "prefix [\"a\",2.5]");

  for (const double number : {0.0, -0.0, 0.1, 5e-324, 1e21, kInf, -kInf}) {
    std::string direct;
    ru::JsonWriter(direct).value(number);
    EXPECT_EQ(ru::format_json_number(number), direct);
  }
  std::string quoted;
  ru::JsonWriter(quoted).value(kEscapes);
  EXPECT_EQ(ru::json_quote(kEscapes), quoted);
  EXPECT_EQ(JsonValue::parse(quoted).as_string(), kEscapes);
}

TEST(JsonWriter, RawSplicesCanonicalText) {
  std::string text;
  ru::JsonWriter(text, 2)
      .begin_object()
      .key("table").raw(R"({"a":[1,2]})")
      .member("after", true)
      .end_object();
  EXPECT_EQ(text, "{\n  \"table\": {\"a\":[1,2]},\n  \"after\": true\n}");
}
