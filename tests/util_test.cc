#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "util/json.h"
#include "util/random.h"
#include "util/result.h"
#include "util/status.h"
#include "util/string_util.h"

namespace bento {
namespace {

TEST(StatusTest, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::OutOfMemory("need ", 42, " bytes");
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsOutOfMemory());
  EXPECT_EQ(st.message(), "need 42 bytes");
  EXPECT_EQ(st.ToString(), "OutOfMemory: need 42 bytes");
}

TEST(StatusTest, AllConstructorsSetTheirCode) {
  EXPECT_TRUE(Status::Invalid("x").IsInvalid());
  EXPECT_TRUE(Status::TypeError("x").IsTypeError());
  EXPECT_TRUE(Status::KeyError("x").IsKeyError());
  EXPECT_TRUE(Status::IOError("x").IsIOError());
  EXPECT_TRUE(Status::NotImplemented("x").IsNotImplemented());
  EXPECT_EQ(Status::IndexError("x").code(), StatusCode::kIndexError);
  EXPECT_EQ(Status::Cancelled("x").code(), StatusCode::kCancelled);
}

TEST(StatusTest, CopyPreservesState) {
  Status st = Status::Invalid("boom");
  Status copy = st;
  EXPECT_EQ(copy.ToString(), st.ToString());
}

Status FailsThrough() {
  BENTO_RETURN_NOT_OK(Status::IOError("inner"));
  return Status::OK();
}

TEST(StatusTest, ReturnNotOkPropagates) {
  EXPECT_TRUE(FailsThrough().IsIOError());
}

Result<int> ParsePositive(int v) {
  if (v <= 0) return Status::Invalid("not positive");
  return v;
}

Result<int> Doubled(int v) {
  BENTO_ASSIGN_OR_RETURN(int x, ParsePositive(v));
  return x * 2;
}

TEST(ResultTest, ValueAndErrorPaths) {
  EXPECT_EQ(Doubled(4).ValueOrDie(), 8);
  EXPECT_FALSE(Doubled(-1).ok());
  EXPECT_TRUE(Doubled(-1).status().IsInvalid());
}

TEST(ResultTest, MoveOnlyValues) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(7);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).ValueOrDie();
  EXPECT_EQ(*v, 7);
}

// --- string utilities ---

TEST(StringUtilTest, Split) {
  EXPECT_EQ(StrSplit("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(StrSplit("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(StrSplit("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(StrSplit("abc", ','), (std::vector<std::string>{"abc"}));
}

TEST(StringUtilTest, JoinTrimCase) {
  EXPECT_EQ(StrJoin({"x", "y"}, ", "), "x, y");
  EXPECT_EQ(StrTrim("  hi \t\n"), "hi");
  EXPECT_EQ(StrTrim(""), "");
  EXPECT_EQ(AsciiToLower("MiXeD 42"), "mixed 42");
  EXPECT_EQ(AsciiToUpper("MiXeD 42"), "MIXED 42");
}

TEST(StringUtilTest, ContainsPrefixSuffix) {
  EXPECT_TRUE(StrContains("hello world", "lo wo"));
  EXPECT_FALSE(StrContains("hello", "world"));
  EXPECT_TRUE(StrStartsWith("hello", "he"));
  EXPECT_FALSE(StrStartsWith("h", "he"));
  EXPECT_TRUE(StrEndsWith("hello", "llo"));
  EXPECT_FALSE(StrEndsWith("o", "llo"));
}

TEST(StringUtilTest, ParseInt64) {
  EXPECT_EQ(ParseInt64("42").ValueOrDie(), 42);
  EXPECT_EQ(ParseInt64("-7").ValueOrDie(), -7);
  EXPECT_EQ(ParseInt64("  13  ").ValueOrDie(), 13);
  EXPECT_FALSE(ParseInt64("4.2").ok());
  EXPECT_FALSE(ParseInt64("x").ok());
  EXPECT_FALSE(ParseInt64("").ok());
}

TEST(StringUtilTest, ParseDouble) {
  EXPECT_DOUBLE_EQ(ParseDouble("3.5").ValueOrDie(), 3.5);
  EXPECT_DOUBLE_EQ(ParseDouble("-1e3").ValueOrDie(), -1000.0);
  EXPECT_FALSE(ParseDouble("3.5x").ok());
}

TEST(StringUtilTest, ParseBool) {
  EXPECT_TRUE(ParseBool("true").ValueOrDie());
  EXPECT_TRUE(ParseBool("Yes").ValueOrDie());
  EXPECT_FALSE(ParseBool("0").ValueOrDie());
  EXPECT_FALSE(ParseBool("maybe").ok());
}

TEST(StringUtilTest, FormatDoubleRoundTrips) {
  for (double v : {0.0, -0.0, 1.5, -2.25, 1.0 / 3.0, 1e300, 6.02e23, 0.1,
                   5e-324, DBL_MIN, DBL_MAX, 0.1 + 0.2}) {
    const double back = ParseDouble(FormatDouble(v)).ValueOrDie();
    EXPECT_EQ(std::bit_cast<uint64_t>(back), std::bit_cast<uint64_t>(v))
        << FormatDouble(v);
  }
  EXPECT_EQ(FormatDouble(std::nan("")), "nan");
  EXPECT_EQ(FormatDouble(-std::nan("")), "nan");
  EXPECT_EQ(FormatDouble(HUGE_VAL), "inf");
  EXPECT_EQ(FormatDouble(-HUGE_VAL), "-inf");
}

// The formatter's specification: the shortest "%.{p}g" that parses back to
// `v`, found by trying every precision in turn. FormatDouble must produce
// exactly these bytes.
std::string ReferenceFormatDouble(double v) {
  if (std::isnan(v)) return "nan";
  if (std::isinf(v)) return v > 0 ? "inf" : "-inf";
  char buf[64];
  for (int prec = 1; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
    double back = 0.0;
    std::from_chars(buf, buf + std::strlen(buf), back);
    if (back == v) break;
  }
  return buf;
}

// Checks `v`, its negation and both of its neighbours against the reference.
void ExpectFormatMatchesReference(double v) {
  for (double x :
       {v, std::nextafter(v, -HUGE_VAL), std::nextafter(v, HUGE_VAL)}) {
    for (double y : {x, -x}) {
      ASSERT_EQ(FormatDouble(y), ReferenceFormatDouble(y))
          << "bits " << std::bit_cast<uint64_t>(y);
    }
  }
}

TEST(StringUtilTest, FormatDoubleMatchesReferenceOnEdgeValues) {
  // 1e-5/1e-4 and 1e16/1e17 are where "%g" switches between fixed and
  // exponent notation at the precisions that occur.
  for (double v : {0.0, 5e-324, DBL_MIN, DBL_MAX, 0.1 + 0.2, 1e-5, 1e-4,
                   1e16, 1e17, 9.9999999999999995e-5, 9999999999999998.0,
                   123456789012345680.0, 0.5, 1.0, 100.0, 1.0 / 3.0}) {
    ExpectFormatMatchesReference(v);
  }
  for (double v : {HUGE_VAL, -HUGE_VAL, std::nan(""), -std::nan("")}) {
    EXPECT_EQ(FormatDouble(v), ReferenceFormatDouble(v));
  }
}

TEST(StringUtilTest, FormatDoubleMatchesReferenceOnPowers) {
  for (int e = -1074; e <= 1023; ++e) {
    ExpectFormatMatchesReference(std::ldexp(1.0, e));
  }
  for (int e = -323; e <= 308; ++e) {
    ExpectFormatMatchesReference(
        ParseDouble("1e" + std::to_string(e)).ValueOrDie());
  }
}

TEST(StringUtilTest, FormatDoubleMatchesReferenceOnRandomBits) {
  Rng rng(20251017);
  for (int i = 0; i < 200000; ++i) {
    uint64_t bits = rng.Next();
    // Every fourth draw clears the exponent: a subnormal (or zero).
    if (i % 4 == 0) bits &= 0x800FFFFFFFFFFFFFULL;
    const double v = std::bit_cast<double>(bits);
    ASSERT_EQ(FormatDouble(v), ReferenceFormatDouble(v)) << "bits " << bits;
  }
}

TEST(StringUtilTest, FormatDoubleMatchesReferenceOnShortDecimals) {
  // i / 10^k for random i of 1-17 digits: the values the short-decimal path
  // takes (two-decimal prices, small counts), the ones just past its reach
  // (16-17 digits, k = 7, |v| outside [1e-4, 1e15)), and their neighbours,
  // which must fall back to the ladder.
  Rng rng(20261018);
  double pow10 = 1.0;
  for (int k = 0; k <= 7; ++k, pow10 *= 10.0) {
    uint64_t lo = 1;  // 10^(digits - 1)
    for (int digits = 1; digits <= 17; ++digits, lo *= 10) {
      for (int i = 0; i < 120; ++i) {
        const uint64_t value = lo + rng.Uniform(9 * lo);
        ExpectFormatMatchesReference(static_cast<double>(value) / pow10);
      }
    }
  }
}

TEST(StringUtilTest, HumanBytes) {
  EXPECT_EQ(HumanBytes(512), "512 B");
  EXPECT_EQ(HumanBytes(1536), "1.50 KiB");
  EXPECT_EQ(HumanBytes(16ULL << 30), "16.00 GiB");
}

// --- JSON ---

TEST(JsonTest, ParsePrimitives) {
  EXPECT_TRUE(ParseJson("null").ValueOrDie().is_null());
  EXPECT_TRUE(ParseJson("true").ValueOrDie().bool_value());
  EXPECT_EQ(ParseJson("42").ValueOrDie().int_value().ValueOrDie(), 42);
  EXPECT_DOUBLE_EQ(ParseJson("-2.5e2").ValueOrDie().number_value(), -250.0);
  EXPECT_EQ(ParseJson("\"hi\\nthere\"").ValueOrDie().string_value(),
            "hi\nthere");
}

TEST(JsonTest, ParseNested) {
  auto v = ParseJson(R"({"a": [1, 2, {"b": "c"}], "d": {"e": false}})")
               .ValueOrDie();
  EXPECT_TRUE(v.is_object());
  EXPECT_EQ(v.Get("a").size(), 3u);
  EXPECT_EQ(v.Get("a").at(2).GetString("b"), "c");
  EXPECT_FALSE(v.Get("d").GetBool("e", true));
}

TEST(JsonTest, RejectsGarbage) {
  EXPECT_FALSE(ParseJson("{").ok());
  EXPECT_FALSE(ParseJson("[1,]").ok());
  EXPECT_FALSE(ParseJson("\"unterminated").ok());
  EXPECT_FALSE(ParseJson("12 34").ok());
  EXPECT_FALSE(ParseJson("{\"a\" 1}").ok());
}

TEST(JsonTest, DumpParseRoundTrip) {
  JsonValue obj = JsonValue::Object();
  obj.Set("name", JsonValue::Str("bento \"quoted\""));
  obj.Set("count", JsonValue::Int(12));
  obj.Set("ratio", JsonValue::Number(0.125));
  JsonValue arr = JsonValue::Array();
  arr.Append(JsonValue::Bool(true));
  arr.Append(JsonValue::Null());
  obj.Set("flags", std::move(arr));

  for (int indent : {0, 2}) {
    auto round = ParseJson(obj.Dump(indent)).ValueOrDie();
    EXPECT_EQ(round.GetString("name"), "bento \"quoted\"");
    EXPECT_EQ(round.GetInt("count"), 12);
    EXPECT_DOUBLE_EQ(round.GetNumber("ratio"), 0.125);
    EXPECT_TRUE(round.Get("flags").at(0).bool_value());
    EXPECT_TRUE(round.Get("flags").at(1).is_null());
  }
}

TEST(JsonTest, EdgeNumbersDumpAsParseableJson) {
  // Finite numbers round-trip bit for bit: -0.0 keeps its sign, and values
  // outside the int64 range take the double path. NaN and ±inf have no
  // JSON spelling; they dump as null.
  const double two63 = std::ldexp(1.0, 63);
  for (double v : {-0.0, 0.0, 1e300, -1e300, two63, -two63,
                   8.999999999999999e15, 9.0e15, -12.0, 0.1, DBL_MAX, -DBL_MAX,
                   DBL_TRUE_MIN}) {
    JsonValue arr = JsonValue::Array();
    arr.Append(JsonValue::Number(v));
    const std::string text = arr.Dump();
    SCOPED_TRACE(text);
    auto back = ParseJson(text);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    ASSERT_TRUE(back.ValueOrDie().at(0).is_number());
    EXPECT_EQ(std::bit_cast<uint64_t>(back.ValueOrDie().at(0).number_value()),
              std::bit_cast<uint64_t>(v));
  }
  for (double v : {std::nan(""), HUGE_VAL, -HUGE_VAL}) {
    JsonValue obj = JsonValue::Object();
    obj.Set("x", JsonValue::Number(v));
    const std::string text = obj.Dump();
    SCOPED_TRACE(text);
    auto back = ParseJson(text);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_TRUE(back.ValueOrDie().Get("x").is_null());
  }
}

TEST(JsonTest, IntValueIsRangeChecked) {
  // int64_t's range is [-2^63, 2^63): the first double past either end
  // (and anything that is not a number) is Invalid, never a wild cast.
  const double two63 = std::ldexp(1.0, 63);
  EXPECT_EQ(JsonValue::Number(-two63).int_value().ValueOrDie(), INT64_MIN);
  EXPECT_EQ(JsonValue::Number(std::nextafter(two63, 0.0))
                .int_value()
                .ValueOrDie(),
            INT64_C(9223372036854774784));
  EXPECT_EQ(JsonValue::Number(-7.9).int_value().ValueOrDie(), -7);
  for (const JsonValue& bad :
       {JsonValue::Number(two63), JsonValue::Number(1e300),
        JsonValue::Number(std::nextafter(-two63, -HUGE_VAL)),
        JsonValue::Number(-1e300), JsonValue::Number(std::nan("")),
        JsonValue::Number(HUGE_VAL), JsonValue::Str("1"), JsonValue::Null()}) {
    SCOPED_TRACE(bad.Dump());
    auto v = bad.int_value();
    ASSERT_FALSE(v.ok());
    EXPECT_TRUE(v.status().IsInvalid()) << v.status().ToString();
  }
  // GetInt keeps its fallback contract for out-of-range members.
  auto obj = ParseJson(R"({"rows": 1e300, "n": 12})").ValueOrDie();
  EXPECT_EQ(obj.GetInt("rows", -1), -1);
  EXPECT_EQ(obj.GetInt("n", -1), 12);
}

TEST(JsonTest, ObjectSetOverwrites) {
  JsonValue obj = JsonValue::Object();
  obj.Set("k", JsonValue::Int(1));
  obj.Set("k", JsonValue::Int(2));
  EXPECT_EQ(obj.GetInt("k"), 2);
  EXPECT_EQ(obj.members().size(), 1u);
}

TEST(JsonTest, RejectsDeepNestingWithoutCrashing) {
  for (char open : {'[', '{'}) {
    std::string text;
    for (int i = 0; i < 100000; ++i) text += open == '[' ? "[" : "{\"k\":";
    const auto parsed = ParseJson(text);
    ASSERT_FALSE(parsed.ok());
    EXPECT_TRUE(parsed.status().IsInvalid()) << parsed.status().ToString();
  }
  // Nesting below the limit still parses.
  const std::string ok = std::string(100, '[') + std::string(100, ']');
  EXPECT_TRUE(ParseJson(ok).ok());
}

TEST(JsonTest, UnicodeEscapes) {
  auto v = ParseJson("\"\\u0041\\u00e9\"").ValueOrDie();
  EXPECT_EQ(v.string_value(), "A\xC3\xA9");
}

// --- RNG ---

TEST(RandomTest, DeterministicForSeed) {
  Rng a(123), b(123), c(124);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
}

TEST(RandomTest, UniformIntInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(-3, 5);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 5);
  }
}

TEST(RandomTest, UniformDoubleInUnitInterval) {
  Rng rng(9);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double v = rng.UniformDouble();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RandomTest, NormalHasRequestedMoments) {
  Rng rng(11);
  double sum = 0, sum_sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double v = rng.Normal(10.0, 2.0);
    sum += v;
    sum_sq += v * v;
  }
  double mean = sum / n;
  double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.25);
}

TEST(RandomTest, ZipfSkewsTowardLowRanks) {
  Rng rng(13);
  int low = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    uint64_t v = rng.Zipf(100, 1.2);
    ASSERT_LT(v, 100u);
    if (v < 10) ++low;
  }
  // With skew, the first 10 ranks should dominate well past uniform's 10%.
  EXPECT_GT(low, n / 4);
}

TEST(RandomTest, AsciiStringRespectsLengthBounds) {
  Rng rng(17);
  for (int i = 0; i < 200; ++i) {
    std::string s = rng.AsciiString(3, 9);
    EXPECT_GE(s.size(), 3u);
    EXPECT_LE(s.size(), 9u);
  }
}

}  // namespace
}  // namespace bento
