//===- json_test.cpp - Unit tests for the minimal JSON layer ---------------===//
//
// Part of the earthcc project.
//
// The support/Json parser and writer back the --serve protocol; these tests
// pin the grammar (strict RFC 8259 subset), the escape handling both ways,
// and the compact writer's integer formatting (protocol ids must round-trip
// textually).
//
//===----------------------------------------------------------------------===//

#include "support/Json.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

using namespace earthcc;

namespace {

json::Value parseOK(const std::string &Text) {
  json::Value V;
  std::string Err;
  EXPECT_TRUE(json::parse(Text, V, Err)) << Text << ": " << Err;
  return V;
}

std::string parseErr(const std::string &Text) {
  json::Value V;
  std::string Err;
  EXPECT_FALSE(json::parse(Text, V, Err)) << Text;
  return Err;
}

} // namespace

TEST(JsonParseTest, Scalars) {
  EXPECT_TRUE(parseOK("null").isNull());
  EXPECT_TRUE(parseOK("true").asBool());
  EXPECT_FALSE(parseOK("false").asBool());
  EXPECT_DOUBLE_EQ(parseOK("42").asNumber(), 42.0);
  EXPECT_DOUBLE_EQ(parseOK("-3.5e2").asNumber(), -350.0);
  EXPECT_EQ(parseOK("\"hi\"").asString(), "hi");
  EXPECT_DOUBLE_EQ(parseOK("  7  ").asNumber(), 7.0); // surrounding space ok
}

TEST(JsonParseTest, Containers) {
  json::Value A = parseOK("[1, \"two\", [3], {}]");
  ASSERT_TRUE(A.isArray());
  ASSERT_EQ(A.items().size(), 4u);
  EXPECT_DOUBLE_EQ(A.items()[0].asNumber(), 1.0);
  EXPECT_EQ(A.items()[1].asString(), "two");
  EXPECT_TRUE(A.items()[2].isArray());
  EXPECT_TRUE(A.items()[3].isObject());

  json::Value O = parseOK("{\"a\": 1, \"b\": {\"c\": true}}");
  ASSERT_TRUE(O.isObject());
  EXPECT_DOUBLE_EQ(O.getNumber("a", 0), 1.0);
  ASSERT_NE(O.find("b"), nullptr);
  EXPECT_TRUE(O.find("b")->getBool("c", false));
  EXPECT_EQ(O.find("missing"), nullptr);
  EXPECT_EQ(O.getString("missing", "dflt"), "dflt");
}

TEST(JsonParseTest, StringEscapes) {
  EXPECT_EQ(parseOK(R"("a\"b\\c\/d\n\t")").asString(), "a\"b\\c/d\n\t");
  EXPECT_EQ(parseOK(R"("\u0041\u00e9")").asString(), "A\xc3\xa9");
  // Surrogate pair: U+1F600 as \ud83d\ude00 -> 4-byte UTF-8.
  EXPECT_EQ(parseOK(R"("\ud83d\ude00")").asString(), "\xf0\x9f\x98\x80");
}

TEST(JsonParseTest, SurrogatePairBoundaries) {
  // Lowest and highest astral code points: U+10000 and U+10FFFF.
  EXPECT_EQ(parseOK(R"("\ud800\udc00")").asString(), "\xf0\x90\x80\x80");
  EXPECT_EQ(parseOK(R"("\udbff\udfff")").asString(), "\xf4\x8f\xbf\xbf");
  // Uppercase hex digits are equally valid in both halves.
  EXPECT_EQ(parseOK(R"("\uD83D\uDE00")").asString(), "\xf0\x9f\x98\x80");
  // A decoded pair keeps its neighbors intact.
  EXPECT_EQ(parseOK(R"("a\ud83d\ude00b")").asString(),
            "a\xf0\x9f\x98\x80"
            "b");
}

TEST(JsonParseTest, SurrogateErrors) {
  // High surrogate followed by a regular character, by the end of string,
  // or by a \u escape outside DC00-DFFF -- all must be rejected, as must a
  // low surrogate with no preceding high half.
  EXPECT_NE(parseErr(R"("\ud83dx")"), "");
  EXPECT_NE(parseErr(R"("\ud83d\n")"), "");
  EXPECT_NE(parseErr(R"("\ud83dA")"), "");
  EXPECT_NE(parseErr(R"("\ud83d\ud83d")"), ""); // high followed by high
  EXPECT_NE(parseErr(R"("\udc00")"), "");       // lone low surrogate
  EXPECT_NE(parseErr(R"("\ude00\ud83d")"), ""); // pair in the wrong order
  EXPECT_NE(parseErr(R"("\ud83d\ude0")"), "");  // truncated low half
}

TEST(JsonParseTest, Errors) {
  EXPECT_NE(parseErr(""), "");
  EXPECT_NE(parseErr("{"), "");
  EXPECT_NE(parseErr("[1,]"), "");
  EXPECT_NE(parseErr("{\"a\" 1}"), "");
  EXPECT_NE(parseErr("01"), "");           // leading zero
  EXPECT_NE(parseErr("1 2"), "");          // trailing garbage
  EXPECT_NE(parseErr("\"unterminated"), "");
  EXPECT_NE(parseErr("\"\\ud83d\""), ""); // lone high surrogate
  EXPECT_NE(parseErr("nul"), "");
}

TEST(JsonWriteTest, CompactAndRoundTrip) {
  json::Value O = json::Value::object();
  O.members().emplace_back("id", json::Value::number(17));
  O.members().emplace_back("ok", json::Value::boolean(true));
  O.members().emplace_back("msg", json::Value::string("a\"b\nc"));
  json::Value Arr = json::Value::array();
  Arr.items().push_back(json::Value::number(1.5));
  Arr.items().push_back(json::Value::null());
  O.members().emplace_back("xs", Arr);

  // Exact integers print without a fraction so ids round-trip textually.
  std::string S = O.str();
  EXPECT_NE(S.find("\"id\":17"), std::string::npos) << S;
  EXPECT_NE(S.find("\\n"), std::string::npos) << S;

  json::Value Back = parseOK(S);
  EXPECT_DOUBLE_EQ(Back.getNumber("id", 0), 17.0);
  EXPECT_EQ(Back.getString("msg", ""), "a\"b\nc");
  EXPECT_EQ(Back.find("xs")->items().size(), 2u);
  EXPECT_EQ(Back.str(), S); // writer is a fixed point through the parser
}

TEST(JsonWriteTest, NonFiniteNumbersWriteNull) {
  // RFC 8259 has no inf or nan: the writer's output must parse again.
  for (double D : {HUGE_VAL, -HUGE_VAL, std::nan("")}) {
    json::Value Arr = json::Value::array();
    Arr.items().push_back(json::Value::number(D));
    EXPECT_EQ(Arr.str(), "[null]") << D;
    EXPECT_TRUE(parseOK(Arr.str()).items()[0].isNull());
  }
}

TEST(JsonValueTest, AsInt64OnlyForIntegralInRangeNumbers) {
  EXPECT_EQ(json::Value::number(42).asInt64(), 42);
  EXPECT_EQ(json::Value::number(-7).asInt64(), -7);
  EXPECT_EQ(json::Value::number(-0x1p63).asInt64(), INT64_MIN);
  EXPECT_EQ(parseOK("9007199254740993").asInt64(), 9007199254740993);
  // Outside [-2^63, 2^63), fractional, non-finite or not a number at all.
  for (double D : {0x1p63, 1e300, -1e300, 0.5, -2.25, HUGE_VAL, std::nan("")})
    EXPECT_FALSE(json::Value::number(D).asInt64().has_value()) << D;
  EXPECT_FALSE(json::Value::string("3").asInt64().has_value());
  EXPECT_FALSE(json::Value::null().asInt64().has_value());
}

TEST(JsonValueTest, IntegerLiteralsStayExact) {
  // Integer literals that fit int64_t round-trip digit for digit, past the
  // 2^53 a double holds exactly; asNumber() still gives the nearest double.
  for (const char *Text : {"9007199254740993", "-9223372036854775808",
                           "9223372036854775807", "0", "-1"}) {
    json::Value V = parseOK(Text);
    EXPECT_TRUE(V.isNumber()) << Text;
    EXPECT_EQ(V.str(), Text);
    EXPECT_EQ(std::to_string(*V.asInt64()), Text);
  }
  EXPECT_EQ(parseOK("9007199254740993").asNumber(), 9007199254740992.0);
  EXPECT_EQ(json::Value::integer(INT64_MIN).str(), "-9223372036854775808");
  EXPECT_EQ(json::Value::integer(INT64_MAX).asInt64(), INT64_MAX);
  // Past int64_t, or with a fraction or an exponent, a literal is a double.
  EXPECT_EQ(parseOK("9223372036854775808").asInt64(), std::nullopt);
  EXPECT_EQ(parseOK("9223372036854775808").str(), "9.2233720368547758e+18");
  EXPECT_EQ(parseOK("1e3").str(), "1000");
  EXPECT_EQ(parseOK("1e3").asInt64(), 1000);
  EXPECT_EQ(parseOK("-0").str(), "-0");
}

TEST(JsonWriteTest, QuoteEscapesControls) {
  EXPECT_EQ(json::quote("x"), "\"x\"");
  EXPECT_EQ(json::escape(std::string("\x01", 1)), "\\u0001");
  EXPECT_EQ(json::escape("tab\there"), "tab\\there");
  // The trace, remark and profile writers escape through this one
  // function too.
  EXPECT_EQ(json::escape("plain"), "plain");
  EXPECT_EQ(json::escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(json::escape("line\nbreak\ttab\rc"), "line\\nbreak\\ttab\\rc");
  EXPECT_EQ(json::escape("bs\bff\f"), "bs\\bff\\f");
  EXPECT_EQ(json::escape(std::string("a\x01") + "b"), "a\\u0001b");
  EXPECT_EQ(json::escape(std::string("ctrl\x1f", 5)), "ctrl\\u001f");
}
