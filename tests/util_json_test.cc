// util::ParseJson coverage: the parser must read back everything the
// repository's JsonWriter emits (writer -> parser round trips), reject
// malformed documents with positioned errors, and expose the accessor
// contract (Find / At / StringAt / NumberAt) the telemetry merge paths
// lean on.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "util/error.h"
#include "util/json.h"

namespace dvs::util {
namespace {

TEST(JsonParser, ParsesScalars) {
  EXPECT_TRUE(ParseJson("null").IsNull());
  EXPECT_TRUE(ParseJson("true").bool_value);
  EXPECT_FALSE(ParseJson("false").bool_value);
  EXPECT_DOUBLE_EQ(ParseJson("42").number, 42.0);
  EXPECT_DOUBLE_EQ(ParseJson("-3.5e2").number, -350.0);
  EXPECT_EQ(ParseJson("\"hi\"").string, "hi");
  EXPECT_TRUE(ParseJson("  12  ").IsNumber()) << "surrounding whitespace";
}

TEST(JsonParser, ParsesNestedContainers) {
  const JsonValue doc =
      ParseJson(R"({"a": [1, 2, {"b": "x"}], "c": {"d": true}})");
  ASSERT_TRUE(doc.IsObject());
  const JsonValue& a = doc.At("a");
  ASSERT_TRUE(a.IsArray());
  ASSERT_EQ(a.array.size(), 3u);
  EXPECT_DOUBLE_EQ(a.array[1].number, 2.0);
  EXPECT_EQ(a.array[2].StringAt("b"), "x");
  EXPECT_TRUE(doc.At("c").At("d").bool_value);
}

TEST(JsonParser, PreservesObjectMemberOrder) {
  const JsonValue doc = ParseJson(R"({"z": 1, "a": 2, "m": 3})");
  ASSERT_EQ(doc.object.size(), 3u);
  EXPECT_EQ(doc.object[0].first, "z");
  EXPECT_EQ(doc.object[1].first, "a");
  EXPECT_EQ(doc.object[2].first, "m");
}

TEST(JsonParser, DecodesStringEscapes) {
  EXPECT_EQ(ParseJson(R"("a\"b\\c\/d")").string, "a\"b\\c/d");
  EXPECT_EQ(ParseJson(R"("\n\t\r\b\f")").string, "\n\t\r\b\f");
  EXPECT_EQ(ParseJson(R"("\u0041\u00e9")").string, "A\xc3\xa9");
}

TEST(JsonParser, RoundTripsWriterOutput) {
  JsonWriter json;
  json.BeginObject();
  json.Key("name").Value("bench \"quoted\" \\ path");
  json.Key("count").Value(static_cast<std::int64_t>(-7));
  json.Key("ratio").Value(0.30000000000000004);
  json.Key("flags").BeginArray().Value(true).Value(false).EndArray();
  json.Key("nested").BeginObject().Key("pi").Value(3.5).EndObject();
  json.EndObject();

  const JsonValue doc = ParseJson(json.str());
  EXPECT_EQ(doc.StringAt("name"), "bench \"quoted\" \\ path");
  EXPECT_DOUBLE_EQ(doc.NumberAt("count"), -7.0);
  // %.17g round-trips an IEEE double exactly.
  EXPECT_EQ(doc.NumberAt("ratio"), 0.30000000000000004);
  EXPECT_TRUE(doc.At("flags").array[0].bool_value);
  EXPECT_DOUBLE_EQ(doc.At("nested").NumberAt("pi"), 3.5);
}

// JSON has no NaN/Inf tokens: %.17g would emit bare `nan` / `inf` and the
// whole document would fail to parse.  The writer maps every non-finite
// double to null instead, so one bad metric cannot poison an artifact.
TEST(JsonWriter, NonFiniteDoublesSerializeAsNull) {
  JsonWriter json;
  json.BeginObject();
  json.Key("nan").Value(std::nan(""));
  json.Key("inf").Value(std::numeric_limits<double>::infinity());
  json.Key("ninf").Value(-std::numeric_limits<double>::infinity());
  json.Key("finite").Value(1.5);
  json.EndObject();
  EXPECT_EQ(json.str(),
            R"({"nan":null,"inf":null,"ninf":null,"finite":1.5})");

  const JsonValue doc = ParseJson(json.str());
  EXPECT_TRUE(doc.At("nan").IsNull());
  EXPECT_TRUE(doc.At("inf").IsNull());
  EXPECT_TRUE(doc.At("ninf").IsNull());
  EXPECT_DOUBLE_EQ(doc.NumberAt("finite"), 1.5);
}

TEST(JsonWriter, ExplicitNullRoundTrips) {
  JsonWriter json;
  json.BeginArray();
  json.Null().Value(2.0).Null();
  json.EndArray();
  EXPECT_EQ(json.str(), "[null,2,null]");

  const JsonValue doc = ParseJson(json.str());
  ASSERT_EQ(doc.array.size(), 3u);
  EXPECT_TRUE(doc.array[0].IsNull());
  EXPECT_TRUE(doc.array[2].IsNull());
}

// Non-finite values inside arrays keep the comma bookkeeping intact — the
// null substitution goes through the same BeforeValue path as any value.
TEST(JsonWriter, NonFiniteInsideArraysKeepsCommasValid) {
  JsonWriter json;
  json.BeginArray();
  json.Value(1.0).Value(std::nan("")).Value(3.0);
  json.EndArray();
  EXPECT_EQ(json.str(), "[1,null,3]");
}

TEST(JsonParser, FindReturnsNullForMissingOrNonObject) {
  const JsonValue doc = ParseJson(R"({"a": 1})");
  EXPECT_EQ(doc.Find("missing"), nullptr);
  EXPECT_NE(doc.Find("a"), nullptr);
  EXPECT_EQ(ParseJson("[1]").Find("a"), nullptr);
}

TEST(JsonParser, AccessorsThrowNamingTheKey) {
  const JsonValue doc = ParseJson(R"({"s": "x", "n": 1})");
  EXPECT_THROW(doc.At("missing"), Error);
  EXPECT_THROW(doc.StringAt("n"), Error);   // wrong kind
  EXPECT_THROW(doc.NumberAt("s"), Error);   // wrong kind
  try {
    doc.At("missing");
    FAIL() << "expected util::Error";
  } catch (const Error& error) {
    EXPECT_NE(std::string(error.what()).find("missing"), std::string::npos);
  }
}

TEST(JsonParser, RejectsMalformedDocuments) {
  EXPECT_THROW(ParseJson(""), Error);
  EXPECT_THROW(ParseJson("{"), Error);
  EXPECT_THROW(ParseJson("[1, 2"), Error);
  EXPECT_THROW(ParseJson("{\"a\" 1}"), Error);
  EXPECT_THROW(ParseJson("{\"a\": 1,}"), Error);
  EXPECT_THROW(ParseJson("\"unterminated"), Error);
  EXPECT_THROW(ParseJson("nul"), Error);
  EXPECT_THROW(ParseJson("1 2"), Error) << "trailing content";
  EXPECT_THROW(ParseJson("\"\\x\""), Error) << "unknown escape";
  // A deep document must fail cleanly, not overflow the parser's stack.
  EXPECT_THROW(ParseJson(std::string(200000, '[')), Error) << "too deep";
}

TEST(JsonParser, ErrorsCarryByteOffsets) {
  try {
    ParseJson("{\"a\": !}");
    FAIL() << "expected util::Error";
  } catch (const Error& error) {
    EXPECT_NE(std::string(error.what()).find("byte"), std::string::npos)
        << error.what();
  }
}

}  // namespace
}  // namespace dvs::util
