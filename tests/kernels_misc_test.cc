#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>

#include "frame/exec.h"
#include "kernels/apply.h"
#include "kernels/arithmetic.h"
#include "kernels/cast.h"
#include "kernels/datetime.h"
#include "kernels/encode.h"
#include "kernels/pivot.h"
#include "kernels/stats.h"
#include "util/random.h"
#include "kernels/string_ops.h"
#include "tests/test_util.h"

namespace bento::kern {
namespace {

using col::Scalar;
using col::TypeId;
using test::Bools;
using test::F64;
using test::I64;
using test::MakeTable;
using test::Str;

// --- string ops ---

TEST(StringOpsTest, ContainsBothEngines) {
  auto v = Str({"hello world", "goodbye", "WORLD"}, {true, true, true});
  for (StringEngine eng : {StringEngine::kColumnar, StringEngine::kRowObjects}) {
    auto m = Contains(v, "world", true, eng).ValueOrDie();
    EXPECT_EQ(m->bool_data()[0], 1);
    EXPECT_EQ(m->bool_data()[1], 0);
    EXPECT_EQ(m->bool_data()[2], 0);
  }
  auto ci = Contains(v, "world", /*case_sensitive=*/false).ValueOrDie();
  EXPECT_EQ(ci->bool_data()[2], 1);
}

TEST(StringOpsTest, ContainsNullPropagates) {
  auto v = Str({"a"}, {false});
  auto m = Contains(v, "a").ValueOrDie();
  EXPECT_TRUE(m->IsNull(0));
  EXPECT_FALSE(Contains(I64({1}), "x").ok());
}

TEST(StringOpsTest, Lower) {
  auto v = Str({"AbC", "XYZ"}, {true, false});
  auto out = Lower(v).ValueOrDie();
  EXPECT_EQ(out->GetView(0), "abc");
  EXPECT_TRUE(out->IsNull(1));
}

TEST(StringOpsTest, ReplaceSubstring) {
  auto v = Str({"aXbXc", "none"});
  auto out = ReplaceSubstring(v, "X", "--").ValueOrDie();
  EXPECT_EQ(out->GetView(0), "a--b--c");
  EXPECT_EQ(out->GetView(1), "none");
  EXPECT_FALSE(ReplaceSubstring(v, "", "y").ok());
}

TEST(StringOpsTest, Length) {
  auto v = Str({"", "abc"}, {true, true});
  auto out = StringLength(v).ValueOrDie();
  EXPECT_EQ(out->int64_data()[0], 0);
  EXPECT_EQ(out->int64_data()[1], 3);
}

// Every string op accepts dictionary-encoded input and matches the plain
// string result row for row (categorical outputs compare decoded).
TEST(StringOpsTest, CategoricalInputMatchesPlainString) {
  auto plain = Str({"aXbXc", "US", "us", "", "none", "US"},
                   {true, true, true, true, false, true});
  auto dict = DictEncode(plain).ValueOrDie();
  ASSERT_EQ(dict->type(), TypeId::kCategorical);

  auto expect_rows_equal = [&](const col::ArrayPtr& a, const col::ArrayPtr& b) {
    ASSERT_EQ(a->length(), b->length());
    for (int64_t i = 0; i < a->length(); ++i) {
      EXPECT_EQ(a->ValueToString(i), b->ValueToString(i)) << "row " << i;
    }
  };

  expect_rows_equal(Lower(plain).ValueOrDie(), Lower(dict).ValueOrDie());
  expect_rows_equal(ReplaceSubstring(plain, "X", "--").ValueOrDie(),
                    ReplaceSubstring(dict, "X", "--").ValueOrDie());
  expect_rows_equal(StringLength(plain).ValueOrDie(),
                    StringLength(dict).ValueOrDie());
  expect_rows_equal(Contains(plain, "us", false).ValueOrDie(),
                    Contains(dict, "us", false).ValueOrDie());

  // Lowercasing merges "US"/"us" — the transformed dictionary must re-intern
  // to unique entries, not carry duplicates.
  auto lowered = Lower(dict).ValueOrDie();
  ASSERT_EQ(lowered->type(), TypeId::kCategorical);
  EXPECT_EQ(lowered->dictionary()->size(), 3u);  // {"axbxc", "us", ""}
}

// --- cast / replace ---

TEST(CastTest, NumericLadder) {
  auto i = I64({1, 0, -3});
  EXPECT_DOUBLE_EQ(
      Cast(i, TypeId::kFloat64).ValueOrDie()->float64_data()[2], -3.0);
  EXPECT_EQ(Cast(i, TypeId::kBool).ValueOrDie()->bool_data()[1], 0);
  auto f = F64({2.7});
  EXPECT_EQ(Cast(f, TypeId::kInt64).ValueOrDie()->int64_data()[0], 2);
}

TEST(CastTest, ToStringAndBack) {
  auto f = F64({1.5, 0.0}, {true, false});
  auto s = Cast(f, TypeId::kString).ValueOrDie();
  EXPECT_EQ(s->GetView(0), "1.5");
  EXPECT_TRUE(s->IsNull(1));
  auto back = Cast(s, TypeId::kFloat64).ValueOrDie();
  EXPECT_DOUBLE_EQ(back->float64_data()[0], 1.5);
  EXPECT_TRUE(back->IsNull(1));
}

TEST(CastTest, StringParseFailureSurfaces) {
  auto s = Str({"12", "oops"});
  EXPECT_FALSE(Cast(s, TypeId::kInt64).ok());
}

TEST(CastTest, NaNToIntBecomesNull) {
  auto f = F64({std::nan(""), 2.0});
  auto out = Cast(f, TypeId::kInt64).ValueOrDie();
  EXPECT_TRUE(out->IsNull(0));
  EXPECT_EQ(out->int64_data()[1], 2);
}

TEST(CastTest, DictionaryRoundTrip) {
  auto s = Str({"b", "a", "b"}, {true, true, true});
  auto cat = Cast(s, TypeId::kCategorical).ValueOrDie();
  EXPECT_EQ(cat->type(), TypeId::kCategorical);
  EXPECT_EQ(cat->dictionary()->size(), 2u);
  EXPECT_EQ(cat->codes_data()[0], cat->codes_data()[2]);
  auto back = Cast(cat, TypeId::kString).ValueOrDie();
  EXPECT_EQ(back->GetView(2), "b");
}

TEST(ReplaceValuesTest, NumericStringAndNullTargets) {
  auto v = I64({1, 2, 1});
  auto out = ReplaceValues(v, Scalar::Int(1), Scalar::Int(99)).ValueOrDie();
  EXPECT_EQ(out->int64_data()[0], 99);
  EXPECT_EQ(out->int64_data()[1], 2);

  auto s = Str({"M", "F"});
  auto so = ReplaceValues(s, Scalar::Str("M"), Scalar::Str("Male")).ValueOrDie();
  EXPECT_EQ(so->GetView(0), "Male");

  // from=null behaves like fillna; to=null nulls matches out.
  auto with_null = I64({5, 0}, {true, false});
  auto filled =
      ReplaceValues(with_null, Scalar::Null(), Scalar::Int(7)).ValueOrDie();
  EXPECT_EQ(filled->int64_data()[1], 7);
  auto nulled = ReplaceValues(v, Scalar::Int(2), Scalar::Null()).ValueOrDie();
  EXPECT_TRUE(nulled->IsNull(1));
}

// --- stats ---

TEST(StatsTest, Aggregates) {
  auto v = F64({1.0, 2.0, 3.0, 4.0}, {true, true, true, false});
  EXPECT_DOUBLE_EQ(Aggregate(v, AggKind::kSum).ValueOrDie().double_value(), 6.0);
  EXPECT_DOUBLE_EQ(Aggregate(v, AggKind::kMean).ValueOrDie().double_value(), 2.0);
  EXPECT_DOUBLE_EQ(Aggregate(v, AggKind::kMin).ValueOrDie().double_value(), 1.0);
  EXPECT_DOUBLE_EQ(Aggregate(v, AggKind::kMax).ValueOrDie().double_value(), 3.0);
  EXPECT_EQ(Aggregate(v, AggKind::kCount).ValueOrDie().int_value(), 3);
  EXPECT_NEAR(Aggregate(v, AggKind::kStd).ValueOrDie().double_value(), 1.0,
              1e-12);
}

TEST(StatsTest, EmptyColumnAggregatesToNull) {
  auto v = F64({1.0}, {false});
  EXPECT_TRUE(Aggregate(v, AggKind::kMean).ValueOrDie().is_null());
  EXPECT_EQ(Aggregate(v, AggKind::kCount).ValueOrDie().int_value(), 0);
}

TEST(StatsTest, ParallelMatchesSerial) {
  col::Float64Builder b;
  Rng rng;
  for (int i = 0; i < 50000; ++i) {
    b.AppendMaybe(rng.UniformDouble(0, 10), !rng.Bernoulli(0.05));
  }
  auto v = b.Finish().ValueOrDie();
  sim::ParallelOptions opts;
  opts.max_workers = 6;
  for (AggKind k : {AggKind::kSum, AggKind::kMean, AggKind::kMin,
                    AggKind::kMax, AggKind::kStd}) {
    double serial = Aggregate(v, k).ValueOrDie().double_value();
    double parallel = AggregateParallel(v, k, opts).ValueOrDie().double_value();
    EXPECT_NEAR(serial, parallel, 1e-6 * std::abs(serial) + 1e-9);
  }
  EXPECT_EQ(AggregateParallel(v, AggKind::kCount, opts).ValueOrDie().int_value(),
            Aggregate(v, AggKind::kCount).ValueOrDie().int_value());
}

TEST(StatsTest, QuantileInterpolates) {
  auto v = F64({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(Quantile(v, 0.0).ValueOrDie(), 1.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 1.0).ValueOrDie(), 4.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 0.5).ValueOrDie(), 2.5);
  EXPECT_FALSE(Quantile(v, 1.5).ok());
  EXPECT_FALSE(Quantile(F64({1.0}, {false}), 0.5).ok());
}

TEST(StatsTest, DescribeShape) {
  auto t = MakeTable({{"x", F64({1.0, 2.0, 3.0})},
                      {"s", Str({"a", "b", "c"})},
                      {"y", I64({10, 20, 30})}});
  auto d = Describe(t).ValueOrDie();
  EXPECT_EQ(d->num_rows(), 2);  // only numeric columns
  EXPECT_EQ(d->num_columns(), 9);
  EXPECT_EQ(d->column(0)->GetView(0), "x");
  EXPECT_DOUBLE_EQ(d->GetColumn("mean").ValueOrDie()->float64_data()[1], 20.0);
  EXPECT_DOUBLE_EQ(d->GetColumn("50%").ValueOrDie()->float64_data()[0], 2.0);
}

TEST(StatsTest, DescribeQuantilesMatchPerQuantileReference) {
  const double nan = std::nan("");
  col::Float64Builder wide;
  Rng rng(31);
  for (int i = 0; i < 5000; ++i) {
    // Few distinct values (many duplicates), ±0.0, NaN and nulls mixed in.
    const double v = i % 97 == 0   ? nan
                     : i % 11 == 0 ? (i % 2 == 0 ? 0.0 : -0.0)
                                   : rng.UniformInt(-20, 20) / 4.0;
    wide.AppendMaybe(v, !rng.Bernoulli(0.1));
  }
  auto t = MakeTable({
      {"i64", I64({5, -3, 5, 0, 7, 5, -3},
                  {true, true, false, true, true, true, true})},
      {"f64", F64({nan, 0.0, -0.0, 2.5, 2.5, -1e300, 0.1},
                  {true, true, true, false, true, true, true})},
      {"bool", Bools({true, false, true, true, false, false, true},
                     {true, true, false, true, true, true, false})},
      {"one", F64({0, 0, 4.25, 0, 0, 0, 0},
                  {false, false, true, false, false, false, false})},
      {"all_null", I64({1, 2, 3, 4, 5, 6, 7}, std::vector<bool>(7, false))},
      {"all_nan", F64(std::vector<double>(7, nan))},
  });
  auto wide_t = MakeTable({{"wide", wide.Finish().ValueOrDie()}});
  sim::ParallelOptions opts;
  opts.max_workers = 3;
  for (const col::TablePtr& input : {t, wide_t}) {
    for (bool parallel : {false, true}) {
      auto d = parallel ? DescribeParallel(input, false, opts).ValueOrDie()
                        : Describe(input).ValueOrDie();
      ASSERT_EQ(d->num_rows(), input->num_columns());
      for (int c = 0; c < input->num_columns(); ++c) {
        ASSERT_EQ(d->column(0)->GetView(c), input->schema()->field(c).name);
        const std::pair<const char*, double> quantiles[] = {
            {"25%", 0.25}, {"50%", 0.50}, {"75%", 0.75}};
        for (const auto& [name, q] : quantiles) {
          const col::ArrayPtr cell = d->GetColumn(name).ValueOrDie();
          auto expected = Quantile(input->column(c), q);
          SCOPED_TRACE(input->schema()->field(c).name + " " + name);
          if (!expected.ok()) {
            EXPECT_TRUE(cell->IsNull(c));
            continue;
          }
          ASSERT_TRUE(cell->IsValid(c));
          EXPECT_EQ(std::bit_cast<uint64_t>(cell->float64_data()[c]),
                    std::bit_cast<uint64_t>(expected.ValueOrDie()));
        }
      }
    }
  }
}

/// q = 0, 0.25, 0.5, 0.75 and 1 over columns holding ±inf, through
/// Quantile, Describe and DescribeParallel. A position on an order
/// statistic returns it: [1, 2, +inf] has median 2 and maximum +inf, not
/// the NaN of 2 * 1 + inf * 0. Between -inf and +inf the interpolation is
/// NaN.
TEST(StatsTest, QuantileNextToInfinityIsTheOrderStatistic) {
  const double inf = HUGE_VAL;
  const double nan = std::nan("");
  struct Case {
    std::vector<double> values;
    double expected[5];  // q = 0, 0.25, 0.5, 0.75, 1
  };
  const Case cases[] = {
      {{1, 2, inf}, {1, 1.5, 2, inf, inf}},
      {{2, inf, 1}, {1, 1.5, 2, inf, inf}},
      {{-inf, 1, 2}, {-inf, -inf, 1, 1.5, 2}},
      {{inf, -inf, 5, 0, inf}, {-inf, 0, 5, inf, inf}},
      {{-inf, 7, -inf}, {-inf, -inf, -inf, -inf, 7}},
      {{inf}, {inf, inf, inf, inf, inf}},
      {{-inf, inf}, {-inf, nan, nan, nan, inf}},
  };
  const double qs[] = {0.0, 0.25, 0.5, 0.75, 1.0};
  sim::ParallelOptions opts;
  opts.max_workers = 2;
  auto same = [](double expected, double got) {
    return std::isnan(expected) ? std::isnan(got) : expected == got;
  };
  for (const Case& c : cases) {
    const col::ArrayPtr v = F64(c.values);
    for (int i = 0; i < 5; ++i) {
      SCOPED_TRACE("case " + std::to_string(c.values.size()) + " values, q=" +
                   std::to_string(qs[i]));
      EXPECT_TRUE(same(c.expected[i], Quantile(v, qs[i]).ValueOrDie()));
    }
    const auto t = MakeTable({{"x", v}});
    const auto serial = Describe(t).ValueOrDie();
    const auto parallel = DescribeParallel(t, false, opts).ValueOrDie();
    for (const col::TablePtr& d : {serial, parallel}) {
      EXPECT_TRUE(same(c.expected[1],
                       d->GetColumn("25%").ValueOrDie()->float64_data()[0]));
      EXPECT_TRUE(same(c.expected[2],
                       d->GetColumn("50%").ValueOrDie()->float64_data()[0]));
      EXPECT_TRUE(same(c.expected[3],
                       d->GetColumn("75%").ValueOrDie()->float64_data()[0]));
    }
  }
}

/// The exact-quantile reference: the valid, non-NaN values as doubles,
/// ordered by std::sort with -0.0 below +0.0, then linear interpolation
/// between neighbours (the lower one itself when the position falls on it).
struct SortedReference {
  explicit SortedReference(const col::Array& a) {
    for (int64_t i = 0; i < a.length(); ++i) {
      if (!a.IsValid(i)) continue;
      const double v = a.type() == TypeId::kFloat64 ? a.float64_data()[i]
                       : a.type() == TypeId::kBool
                           ? (a.bool_data()[i] != 0 ? 1.0 : 0.0)
                           : static_cast<double>(a.int64_data()[i]);
      if (!std::isnan(v)) sorted.push_back(v);
    }
    std::sort(sorted.begin(), sorted.end(), [](double x, double y) {
      return x < y || (x == y && std::signbit(x) && !std::signbit(y));
    });
  }

  double At(double q) const {
    const double pos = q * static_cast<double>(sorted.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const double frac = pos - static_cast<double>(lo);
    if (frac == 0.0) return sorted[lo];
    return sorted[lo] * (1.0 - frac) + sorted[lo + 1] * frac;
  }

  std::vector<double> sorted;
};

/// Columns for the reference check: every n from 1 to 5 drawn from special
/// values (±inf, ±DBL_MAX, subnormals, ±0.0, NaN, nulls), random columns up
/// to 10^5 rows with and without duplicates, all-equal and signed-zero
/// columns, int64 values beyond 2^53, and bool columns (bytes other than
/// 0/1 among them).
std::vector<col::ArrayPtr> QuantileReferenceInputs() {
  const double inf = HUGE_VAL;
  const double specials[] = {-inf,    -DBL_MAX, -1.5, -DBL_TRUE_MIN, -0.0,
                             0.0,     DBL_TRUE_MIN, DBL_MIN, 2.0, 2.0,
                             DBL_MAX, inf,      std::nan("")};
  Rng rng(5309);
  std::vector<col::ArrayPtr> inputs;
  for (int n = 1; n <= 5; ++n) {
    for (int rep = 0; rep < 300; ++rep) {
      col::Float64Builder b;
      for (int i = 0; i < n; ++i) {
        b.AppendMaybe(specials[rng.Uniform(std::size(specials))],
                      !rng.Bernoulli(0.1));
      }
      inputs.push_back(b.Finish().ValueOrDie());
    }
  }
  for (int64_t n : {int64_t{6}, int64_t{97}, int64_t{1000}, int64_t{12345},
                    int64_t{100000}}) {
    col::Float64Builder spread, dups, zeros, equal;
    col::Int64Builder big;
    for (int64_t i = 0; i < n; ++i) {
      const bool valid = !rng.Bernoulli(0.1);
      spread.AppendMaybe(
          rng.Bernoulli(0.02) ? std::nan("") : rng.Normal(0, 1e6), valid);
      dups.AppendMaybe(rng.Bernoulli(0.01)
                           ? specials[rng.Uniform(std::size(specials))]
                           : static_cast<double>(rng.UniformInt(-8, 8)) / 4.0,
                       valid);
      zeros.AppendMaybe(rng.Bernoulli(0.5) ? 0.0 : -0.0, valid);
      equal.Append(3.25);
      big.AppendMaybe(
          (int64_t{1} << 53) + rng.UniformInt(-1000, 1000) *
                                   (rng.Bernoulli(0.5) ? 1 : (int64_t{1} << 9)),
          valid);
    }
    for (col::Float64Builder* b : {&spread, &dups, &zeros, &equal}) {
      inputs.push_back(b->Finish().ValueOrDie());
    }
    inputs.push_back(big.Finish().ValueOrDie());
    inputs.push_back(test::RawArray(TypeId::kBool, n, 0.2, /*hostile=*/true,
                                    nullptr, &rng));
    inputs.push_back(test::RawArray(TypeId::kInt64, n, 0.2, /*hostile=*/false,
                                    nullptr, &rng));
  }
  inputs.push_back(I64({INT64_MIN, INT64_MAX, -(int64_t{1} << 62), 0,
                        (int64_t{1} << 53) + 1, (int64_t{1} << 53)}));
  return inputs;
}

/// Quantile, Describe, DescribeParallel and the exact LocateOutliers bounds
/// (numeric columns) equal the sorted reference bit for bit.
TEST(StatsTest, ExactQuantilesMatchTotalOrderSortReference) {
  const double qs[] = {0.0,  0.01, 0.1,       0.25, 1.0 / 3.0, 0.5,
                       0.6,  0.75, 2.0 / 3.0, 0.9,  0.99,      1.0};
  auto bits = [](double v) { return std::bit_cast<uint64_t>(v); };
  sim::ParallelOptions opts;
  opts.max_workers = 3;
  int checked = 0;
  for (const col::ArrayPtr& v : QuantileReferenceInputs()) {
    const SortedReference ref(*v);
    SCOPED_TRACE(col::TypeName(v->type()) + std::string(" length ") +
                 std::to_string(v->length()));
    const auto t = MakeTable({{"x", v}});
    if (ref.sorted.empty()) {
      EXPECT_FALSE(Quantile(v, 0.5).ok());
      continue;
    }
    ++checked;
    for (double q : qs) {
      ASSERT_EQ(bits(ref.At(q)), bits(Quantile(v, q).ValueOrDie())) << q;
    }
    const auto serial = Describe(t).ValueOrDie();
    const auto parallel = DescribeParallel(t, false, opts).ValueOrDie();
    for (const col::TablePtr& d : {serial, parallel}) {
      EXPECT_EQ(bits(ref.At(0.25)),
                bits(d->GetColumn("25%").ValueOrDie()->float64_data()[0]));
      EXPECT_EQ(bits(ref.At(0.5)),
                bits(d->GetColumn("50%").ValueOrDie()->float64_data()[0]));
      EXPECT_EQ(bits(ref.At(0.75)),
                bits(d->GetColumn("75%").ValueOrDie()->float64_data()[0]));
    }
    if (v->type() == TypeId::kBool) continue;  // no bool compare to a bound
    for (auto [lo, hi] : {std::pair{0.01, 0.99}, std::pair{0.25, 0.75},
                          std::pair{0.0, 1.0}, std::pair{0.6, 0.1}}) {
      const auto bounds =
          frame::ExecAction(t, frame::Op::LocateOutliers("x", lo, hi), {})
              .ValueOrDie();
      EXPECT_EQ(bits(ref.At(lo)), bits(bounds.lower_bound));
      EXPECT_EQ(bits(ref.At(hi)), bits(bounds.upper_bound));
    }
  }
  EXPECT_GT(checked, 1400);  // the inputs that are not all null or NaN
}

// --- encode ---

TEST(EncodeTest, GetDummies) {
  auto t = MakeTable({{"c", Str({"x", "y", "x"}, {true, true, true})},
                      {"v", I64({1, 2, 3})}});
  auto out = GetDummies(t, "c").ValueOrDie();
  EXPECT_FALSE(out->schema()->Contains("c"));
  EXPECT_EQ(out->GetColumn("c_x").ValueOrDie()->int64_data()[0], 1);
  EXPECT_EQ(out->GetColumn("c_x").ValueOrDie()->int64_data()[1], 0);
  EXPECT_EQ(out->GetColumn("c_y").ValueOrDie()->int64_data()[1], 1);
}

TEST(EncodeTest, GetDummiesNullRowIsAllZero) {
  auto t = MakeTable({{"c", Str({"x", "y"}, {true, false})}});
  auto out = GetDummies(t, "c").ValueOrDie();
  EXPECT_EQ(out->GetColumn("c_x").ValueOrDie()->int64_data()[1], 0);
  EXPECT_EQ(out->num_columns(), 1);  // only "x" was seen
}

TEST(EncodeTest, CatCodes) {
  auto v = Str({"b", "a", "b"}, {true, true, true});
  auto codes = CatCodes(v).ValueOrDie();
  EXPECT_EQ(codes->type(), TypeId::kInt64);
  EXPECT_EQ(codes->int64_data()[0], 0);  // first-seen coding
  EXPECT_EQ(codes->int64_data()[1], 1);
  EXPECT_EQ(codes->int64_data()[2], 0);
  EXPECT_FALSE(CatCodes(I64({1})).ok());
}

// --- datetime ---

TEST(DatetimeTest, ParseFormats) {
  auto v = Str({"2015-07-04", "2015-07-04 12:30:45", "07/04/2015",
                "2015-07-04T01:02:03"});
  auto ts = ToDatetime(v).ValueOrDie();
  EXPECT_EQ(ts->type(), TypeId::kTimestamp);
  EXPECT_EQ(ts->null_count(), 0);
  EXPECT_EQ(ts->int64_data()[0],
            MakeTimestampMicros(2015, 7, 4));
  EXPECT_EQ(ts->int64_data()[1],
            MakeTimestampMicros(2015, 7, 4, 12, 30, 45));
  EXPECT_EQ(ts->int64_data()[2], ts->int64_data()[0]);
}

TEST(DatetimeTest, CoerceAndStrict) {
  auto v = Str({"2015-01-01", "garbage"});
  auto coerced = ToDatetime(v, /*coerce=*/true).ValueOrDie();
  EXPECT_TRUE(coerced->IsNull(1));
  EXPECT_FALSE(ToDatetime(v, /*coerce=*/false).ok());
}

TEST(DatetimeTest, FormatRoundTrip) {
  auto v = Str({"1999-12-31 23:59:59", "2020-02-29"});
  auto ts = ToDatetime(v).ValueOrDie();
  auto text = FormatDatetime(ts).ValueOrDie();
  EXPECT_EQ(text->GetView(0), "1999-12-31 23:59:59");
  EXPECT_EQ(text->GetView(1), "2020-02-29 00:00:00");
  auto date_only = FormatDatetime(ts, /*date_only=*/true).ValueOrDie();
  EXPECT_EQ(date_only->GetView(1), "2020-02-29");
}

TEST(DatetimeTest, Components) {
  auto ts = ToDatetime(Str({"2015-07-04 12:00:00"})).ValueOrDie();
  EXPECT_EQ(DatetimeComponent(ts, "year").ValueOrDie()->int64_data()[0], 2015);
  EXPECT_EQ(DatetimeComponent(ts, "month").ValueOrDie()->int64_data()[0], 7);
  EXPECT_EQ(DatetimeComponent(ts, "day").ValueOrDie()->int64_data()[0], 4);
  EXPECT_EQ(DatetimeComponent(ts, "hour").ValueOrDie()->int64_data()[0], 12);
  // 2015-07-04 was a Saturday (Mon=0 ... Sat=5).
  EXPECT_EQ(DatetimeComponent(ts, "weekday").ValueOrDie()->int64_data()[0], 5);
  EXPECT_FALSE(DatetimeComponent(ts, "era").ok());
}

// --- arithmetic ---

TEST(ArithmeticTest, BinaryOps) {
  auto a = F64({6.0, 8.0});
  auto b = F64({3.0, 0.0});
  EXPECT_DOUBLE_EQ(
      BinaryNumeric(a, BinaryOp::kAdd, b).ValueOrDie()->float64_data()[0], 9.0);
  EXPECT_DOUBLE_EQ(
      BinaryNumeric(a, BinaryOp::kDiv, b).ValueOrDie()->float64_data()[0], 2.0);
  // Division by zero yields null.
  EXPECT_TRUE(BinaryNumeric(a, BinaryOp::kDiv, b).ValueOrDie()->IsNull(1));
}

TEST(ArithmeticTest, IntStaysIntForClosedOps) {
  auto a = I64({2, 3});
  auto b = I64({5, 7});
  auto sum = BinaryNumeric(a, BinaryOp::kAdd, b).ValueOrDie();
  EXPECT_EQ(sum->type(), TypeId::kInt64);
  auto div = BinaryNumeric(a, BinaryOp::kDiv, b).ValueOrDie();
  EXPECT_EQ(div->type(), TypeId::kFloat64);
}

TEST(ArithmeticTest, ScalarVariant) {
  auto a = I64({10, 20});
  auto out = BinaryNumericScalar(a, BinaryOp::kMul, Scalar::Int(3)).ValueOrDie();
  EXPECT_EQ(out->type(), TypeId::kInt64);
  EXPECT_EQ(out->int64_data()[1], 60);
  auto powd =
      BinaryNumericScalar(a, BinaryOp::kPow, Scalar::Double(2.0)).ValueOrDie();
  EXPECT_DOUBLE_EQ(powd->float64_data()[0], 100.0);
}

TEST(ArithmeticTest, UnaryDomainErrorsAreNull) {
  auto v = F64({-1.0, 4.0});
  auto log = UnaryNumeric(v, UnaryOp::kLog).ValueOrDie();
  EXPECT_TRUE(log->IsNull(0));
  auto sqrt = UnaryNumeric(v, UnaryOp::kSqrt).ValueOrDie();
  EXPECT_TRUE(sqrt->IsNull(0));
  EXPECT_DOUBLE_EQ(sqrt->float64_data()[1], 2.0);
  auto neg = UnaryNumeric(I64({-5}), UnaryOp::kAbs).ValueOrDie();
  EXPECT_EQ(neg->int64_data()[0], 5);
}

TEST(ArithmeticTest, Round) {
  auto v = F64({1.2345, -1.675});
  auto r2 = Round(v, 2).ValueOrDie();
  EXPECT_DOUBLE_EQ(r2->float64_data()[0], 1.23);
  auto r0 = Round(v, 0).ValueOrDie();
  EXPECT_DOUBLE_EQ(r0->float64_data()[1], -2.0);
  auto ints = I64({3});
  EXPECT_EQ(Round(ints, 2).ValueOrDie().get(), ints.get());
  EXPECT_FALSE(Round(Str({"x"}), 1).ok());
}

// --- pivot ---

TEST(PivotTest, MeanByDefault) {
  auto t = MakeTable({{"season", Str({"S", "S", "W", "W", "S"})},
                      {"sport", Str({"run", "swim", "ski", "ski", "run"})},
                      {"w", F64({70, 60, 80, 90, 72})}});
  auto out = PivotTable(t, "season", "sport", "w").ValueOrDie();
  ASSERT_EQ(out->num_rows(), 2);
  EXPECT_DOUBLE_EQ(out->GetColumn("w_run").ValueOrDie()->float64_data()[0], 71.0);
  EXPECT_DOUBLE_EQ(out->GetColumn("w_ski").ValueOrDie()->float64_data()[1], 85.0);
  // Empty combination (W, run) is null.
  EXPECT_TRUE(out->GetColumn("w_run").ValueOrDie()->IsNull(1));
}

TEST(PivotTest, CountAndSum) {
  auto t = MakeTable({{"r", I64({1, 1, 2})},
                      {"c", Str({"a", "a", "b"})},
                      {"v", I64({5, 7, 9})}});
  auto count = PivotTable(t, "r", "c", "v", AggKind::kCount).ValueOrDie();
  EXPECT_DOUBLE_EQ(count->GetColumn("v_a").ValueOrDie()->float64_data()[0], 2.0);
  auto sum = PivotTable(t, "r", "c", "v", AggKind::kSum).ValueOrDie();
  EXPECT_DOUBLE_EQ(sum->GetColumn("v_a").ValueOrDie()->float64_data()[0], 12.0);
  EXPECT_FALSE(PivotTable(t, "r", "c", "c").ok());  // non-numeric values
}

// --- apply ---

TEST(ApplyTest, RowFunction) {
  auto t = MakeTable({{"a", I64({1, 2})}, {"b", I64({10, 20})}});
  RowFn fn = [](const col::Table& table, int64_t row) -> Result<Scalar> {
    return Scalar::Int(table.column(0)->int64_data()[row] +
                       table.column(1)->int64_data()[row]);
  };
  auto out = ApplyRows(t, fn, TypeId::kInt64).ValueOrDie();
  EXPECT_EQ(out->int64_data()[0], 11);
  EXPECT_EQ(out->int64_data()[1], 22);
}

TEST(ApplyTest, ParallelMatchesSerial) {
  col::Int64Builder b;
  for (int i = 0; i < 30000; ++i) b.Append(i);
  auto t = MakeTable({{"a", b.Finish().ValueOrDie()}});
  RowFn fn = [](const col::Table& table, int64_t row) -> Result<Scalar> {
    int64_t v = table.column(0)->int64_data()[row];
    return v % 7 == 0 ? Scalar::Null() : Scalar::Int(v * 2);
  };
  auto serial = ApplyRows(t, fn, TypeId::kInt64).ValueOrDie();
  sim::ParallelOptions opts;
  opts.max_workers = 5;
  auto parallel = ApplyRowsParallel(t, fn, TypeId::kInt64, opts).ValueOrDie();
  ASSERT_EQ(serial->length(), parallel->length());
  for (int64_t i = 0; i < serial->length(); ++i) {
    ASSERT_EQ(serial->IsNull(i), parallel->IsNull(i));
    if (!serial->IsNull(i)) {
      ASSERT_EQ(serial->int64_data()[i], parallel->int64_data()[i]);
    }
  }
}

TEST(ApplyTest, ErrorPropagates) {
  auto t = MakeTable({{"a", I64({1})}});
  RowFn fn = [](const col::Table&, int64_t) -> Result<Scalar> {
    return Status::Invalid("user function failed");
  };
  EXPECT_FALSE(ApplyRows(t, fn, TypeId::kInt64).ok());
}

}  // namespace
}  // namespace bento::kern
