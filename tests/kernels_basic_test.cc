#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "kernels/compare.h"
#include "kernels/null_ops.h"
#include "kernels/selection.h"
#include "tests/test_util.h"

namespace bento::kern {
namespace {

using col::Scalar;
using col::TablePtr;
using col::TypeId;
using test::Bools;
using test::F64;
using test::I64;
using test::MakeTable;
using test::Str;

TEST(FilterTest, KeepsMaskedRows) {
  auto values = I64({10, 20, 30, 40});
  auto mask = Bools({true, false, true, false});
  auto out = Filter(values, mask, {}).ValueOrDie();
  ASSERT_EQ(out->length(), 2);
  EXPECT_EQ(out->int64_data()[0], 10);
  EXPECT_EQ(out->int64_data()[1], 30);
}

TEST(FilterTest, NullMaskSlotsDropRows) {
  auto values = Str({"a", "b", "c"});
  auto mask = Bools({true, true, true}, {true, false, true});
  auto out = Filter(values, mask, {}).ValueOrDie();
  ASSERT_EQ(out->length(), 2);
  EXPECT_EQ(out->GetView(1), "c");
}

TEST(FilterTest, PreservesNullsInValues) {
  auto values = F64({1.0, 2.0, 3.0}, {true, false, true});
  auto mask = Bools({true, true, false});
  auto out = Filter(values, mask, {}).ValueOrDie();
  ASSERT_EQ(out->length(), 2);
  EXPECT_TRUE(out->IsNull(1));
}

TEST(FilterTest, TypeAndLengthChecks) {
  EXPECT_FALSE(Filter(I64({1}), I64({1}), {}).ok());
  EXPECT_FALSE(Filter(I64({1, 2}), Bools({true}), {}).ok());
}

TEST(FilterTest, TableFilter) {
  auto t = MakeTable({{"a", I64({1, 2, 3})}, {"b", Str({"x", "y", "z"})}});
  auto out = FilterTable(t, Bools({false, true, true}), {}).ValueOrDie();
  EXPECT_EQ(out->num_rows(), 2);
  EXPECT_EQ(out->column(1)->GetView(0), "y");
}

TEST(TakeTest, GathersAndEmitsNullsForNegative) {
  auto values = Str({"a", "b", "c"});
  auto out = Take(values, {2, -1, 0, 0}).ValueOrDie();
  ASSERT_EQ(out->length(), 4);
  EXPECT_EQ(out->GetView(0), "c");
  EXPECT_TRUE(out->IsNull(1));
  EXPECT_EQ(out->GetView(2), "a");
}

TEST(TakeTest, OutOfBoundsFails) {
  EXPECT_FALSE(Take(I64({1, 2}), {2}).ok());
}

TEST(TakeTest, TimestampKeepsType) {
  col::TimestampBuilder b;
  b.Append(1000);
  b.Append(2000);
  auto ts = b.Finish().ValueOrDie();
  auto out = Take(ts, {1, 0}).ValueOrDie();
  EXPECT_EQ(out->type(), TypeId::kTimestamp);
  EXPECT_EQ(out->int64_data()[0], 2000);
}

TEST(CompareTest, ScalarNumeric) {
  auto v = F64({1.0, 2.0, 3.0}, {true, true, false});
  auto gt = CompareScalar(v, CompareOp::kGt, Scalar::Double(1.5)).ValueOrDie();
  EXPECT_EQ(gt->bool_data()[0], 0);
  EXPECT_EQ(gt->bool_data()[1], 1);
  EXPECT_TRUE(gt->IsNull(2));  // null propagates
}

TEST(CompareTest, IntColumnVsDoubleLiteral) {
  auto v = I64({1, 2, 3});
  auto le = CompareScalar(v, CompareOp::kLe, Scalar::Double(2.0)).ValueOrDie();
  EXPECT_EQ(le->bool_data()[0], 1);
  EXPECT_EQ(le->bool_data()[2], 0);
}

TEST(CompareTest, ScalarString) {
  auto v = Str({"apple", "banana"});
  auto eq = CompareScalar(v, CompareOp::kEq, Scalar::Str("banana")).ValueOrDie();
  EXPECT_EQ(eq->bool_data()[0], 0);
  EXPECT_EQ(eq->bool_data()[1], 1);
  EXPECT_FALSE(CompareScalar(v, CompareOp::kEq, Scalar::Int(1)).ok());
}

TEST(CompareTest, NullLiteralYieldsAllNull) {
  auto v = I64({1, 2});
  auto out = CompareScalar(v, CompareOp::kEq, Scalar::Null()).ValueOrDie();
  EXPECT_EQ(out->null_count(), 2);
}

TEST(CompareTest, ArrayVsArray) {
  auto a = I64({1, 5, 3});
  auto b = F64({2.0, 4.0, 3.0});
  auto lt = CompareArrays(a, CompareOp::kLt, b).ValueOrDie();
  EXPECT_EQ(lt->bool_data()[0], 1);
  EXPECT_EQ(lt->bool_data()[1], 0);
  auto eq = CompareArrays(a, CompareOp::kEq, b).ValueOrDie();
  EXPECT_EQ(eq->bool_data()[2], 1);
}

TEST(CompareTest, AllOperators) {
  auto v = I64({5});
  auto check = [&](CompareOp op, int64_t rhs, bool expected) {
    auto out = CompareScalar(v, op, Scalar::Int(rhs)).ValueOrDie();
    EXPECT_EQ(out->bool_data()[0] != 0, expected);
  };
  check(CompareOp::kEq, 5, true);
  check(CompareOp::kNe, 5, false);
  check(CompareOp::kLt, 6, true);
  check(CompareOp::kLe, 5, true);
  check(CompareOp::kGt, 5, false);
  check(CompareOp::kGe, 5, true);
}

TEST(BooleanTest, KleeneAndOr) {
  auto t = Bools({true, true, false, false}, {true, false, true, false});
  auto u = Bools({true, false, true, false}, {true, true, true, false});
  // AND: false dominates null.
  auto a = BooleanAnd(t, u).ValueOrDie();
  EXPECT_EQ(a->bool_data()[0], 1);
  EXPECT_TRUE(a->IsNull(1) == false);  // null AND false = false
  EXPECT_EQ(a->bool_data()[1], 0);
  EXPECT_EQ(a->bool_data()[2], 0);
  EXPECT_TRUE(a->IsNull(3));
  // OR: true dominates null.
  auto o = BooleanOr(t, u).ValueOrDie();
  EXPECT_EQ(o->bool_data()[0], 1);
  EXPECT_TRUE(o->IsNull(1));  // null OR false = null
  EXPECT_EQ(o->bool_data()[2], 1);
  EXPECT_TRUE(o->IsNull(3));
}

TEST(BooleanTest, Not) {
  auto v = Bools({true, false}, {true, false});
  auto out = BooleanNot(v).ValueOrDie();
  EXPECT_EQ(out->bool_data()[0], 0);
  EXPECT_TRUE(out->IsNull(1));
  EXPECT_FALSE(BooleanNot(I64({1})).ok());
}

TEST(IsNullTest, MetadataAndScanAgree) {
  auto v = F64({1.0, 2.0, 3.0, 4.0}, {true, false, true, false});
  for (NullProbe probe : {NullProbe::kMetadata, NullProbe::kScan}) {
    auto mask = IsNull(v, probe).ValueOrDie();
    EXPECT_EQ(mask->bool_data()[0], 0);
    EXPECT_EQ(mask->bool_data()[1], 1);
    EXPECT_EQ(mask->bool_data()[3], 1);
  }
}

TEST(IsNullTest, ScanDetectsNaNSentinels) {
  // Sentinel model: a NaN without a validity bit is null to the scan probe
  // but invisible to the metadata probe.
  auto v = F64({1.0, std::nan("")});
  auto scan = IsNull(v, NullProbe::kScan).ValueOrDie();
  EXPECT_EQ(scan->bool_data()[1], 1);
  auto meta = IsNull(v, NullProbe::kMetadata).ValueOrDie();
  EXPECT_EQ(meta->bool_data()[1], 0);
}

TEST(IsNullTest, StringScan) {
  auto v = Str({"a", "b"}, {true, false});
  auto mask = IsNull(v, NullProbe::kScan).ValueOrDie();
  EXPECT_EQ(mask->bool_data()[0], 0);
  EXPECT_EQ(mask->bool_data()[1], 1);
}

TEST(NullCountsTest, PerColumn) {
  auto t = MakeTable({{"a", I64({1, 2, 3}, {true, false, false})},
                      {"b", Str({"x", "y", "z"})}});
  auto counts = NullCounts(t, NullProbe::kMetadata).ValueOrDie();
  EXPECT_EQ(counts, (std::vector<int64_t>{2, 0}));
  auto scanned = NullCounts(t, NullProbe::kScan).ValueOrDie();
  EXPECT_EQ(scanned, counts);
}

TEST(FillNullTest, NumericAndString) {
  auto v = F64({1.0, 0.0, 3.0}, {true, false, true});
  auto filled = FillNull(v, col::Scalar::Double(9.5)).ValueOrDie();
  EXPECT_EQ(filled->null_count(), 0);
  EXPECT_DOUBLE_EQ(filled->float64_data()[1], 9.5);

  auto s = Str({"a", ""}, {true, false});
  auto sf = FillNull(s, col::Scalar::Str("missing")).ValueOrDie();
  EXPECT_EQ(sf->GetView(1), "missing");

  // Type mismatch rejected.
  EXPECT_FALSE(FillNull(s, col::Scalar::Int(1)).ok());
  // No nulls: returns input unchanged.
  auto dense = I64({1, 2});
  EXPECT_EQ(FillNull(dense, col::Scalar::Int(0)).ValueOrDie().get(),
            dense.get());
}

TEST(FillNullTest, WithMean) {
  auto v = F64({2.0, 0.0, 4.0}, {true, false, true});
  auto filled = FillNullWithMean(v).ValueOrDie();
  EXPECT_DOUBLE_EQ(filled->float64_data()[1], 3.0);
  EXPECT_FALSE(FillNullWithMean(Str({"x"})).ok());
}

TEST(FillNullTest, MeanSkipsNaNAndFoldsInRowOrder) {
  // A valid NaN is missing to the mean, as in GroupBy and Aggregate, and
  // stays NaN itself.
  auto v = F64({1.0, std::nan(""), 0.0, 2.0}, {true, true, false, true});
  auto filled = FillNullWithMean(v).ValueOrDie();
  EXPECT_TRUE(std::isnan(filled->float64_data()[1]));
  EXPECT_EQ(filled->float64_data()[2], 1.5);
  // Cells add one by one in row order, so folding a column's pieces in
  // order gives the whole column's mean bit for bit: 0.1 + 0.2 + 0.3 is
  // 0.6000000000000001, while 0.1 + (0.2 + 0.3) is 0.6.
  auto w = F64({0.1, 0.2, 0.3, 0.0}, {true, true, true, false});
  MeanFold whole;
  ASSERT_TRUE(whole.Add(w).ok());
  EXPECT_EQ(whole.Mean(), (0.1 + 0.2 + 0.3) / 3.0);
  EXPECT_EQ(FillNullWithMean(w).ValueOrDie()->float64_data()[3], whole.Mean());
  MeanFold pieces;
  for (int64_t i = 0; i < w->length(); ++i) {
    ASSERT_TRUE(pieces.Add(w->Slice(i, 1).ValueOrDie()).ok());
  }
  EXPECT_EQ(pieces.Mean(), whole.Mean());
  EXPECT_EQ(MeanFold().Mean(), 0.0);
  EXPECT_TRUE(MeanFold().Add(Str({"x"})).IsTypeError());
}

TEST(DropNullRowsTest, AllColumnsAndSubset) {
  auto t = MakeTable({{"a", I64({1, 2, 3}, {true, false, true})},
                      {"b", Str({"x", "y", "z"}, {true, true, false})}});
  auto all = DropNullRows(t, {}, {}).ValueOrDie();
  EXPECT_EQ(all->num_rows(), 1);
  EXPECT_EQ(all->column(0)->int64_data()[0], 1);

  auto subset = DropNullRows(t, {"a"}, {}).ValueOrDie();
  EXPECT_EQ(subset->num_rows(), 2);
  EXPECT_FALSE(DropNullRows(t, {"zz"}, {}).ok());
}

/// DropNullRows equals a per-row IsNull scan whose kept rows go through the
/// builders, byte for byte: columns with nulls, without a bitmap, with an
/// all-set bitmap and all null; every subset; slices at odd and byte-aligned
/// offsets (an aligned slice shares bitmap bits past its end); an empty
/// table.
TEST(DropNullRowsTest, BitmapAndMatchesPerRowScan) {
  Rng rng(31);
  const int64_t n = 1000;
  const col::Dictionary dict = test::RandomDictionary(&rng);
  std::vector<int64_t> plain(static_cast<size_t>(n));
  for (int64_t& v : plain) v = rng.UniformInt(-5, 5);
  col::BufferPtr all_set = col::AllocateBitmap(n, true).ValueOrDie();
  const TablePtr whole = MakeTable(
      {{"nulls", test::RawArray(TypeId::kFloat64, n, 0.2, true, dict, &rng)},
       {"strs", test::RawArray(TypeId::kString, n, 0.1, true, dict, &rng)},
       {"cats", test::RawArray(TypeId::kCategorical, n, 0.1, true, dict, &rng)},
       {"no_bitmap", I64(plain)},
       {"all_set", col::Array::MakeFixed(TypeId::kInt64, n,
                                         I64(plain)->data_buffer(), all_set)
                       .ValueOrDie()},
       {"all_null", test::RawArray(TypeId::kBool, n, 1.0, true, dict, &rng)}});

  const std::vector<std::pair<std::string, TablePtr>> tables = {
      {"whole", whole},
      {"odd slice", whole->Slice(5, n - 12).ValueOrDie()},
      {"aligned slice", whole->Slice(64, 301).ValueOrDie()},
      {"empty", whole->Slice(0, 0).ValueOrDie()}};
  const std::vector<std::vector<std::string>> subsets = {
      {}, {"nulls"}, {"strs", "cats"}, {"no_bitmap"}, {"all_set"},
      {"no_bitmap", "all_set", "cats"}, {"all_null"}};
  for (const auto& [name, t] : tables) {
    for (const auto& subset : subsets) {
      SCOPED_TRACE(name + " subset of " + std::to_string(subset.size()));
      std::vector<int> cols;
      for (int c = 0; c < t->num_columns(); ++c) {
        const std::string& field = t->schema()->field(c).name;
        if (subset.empty() ||
            std::find(subset.begin(), subset.end(), field) != subset.end()) {
          cols.push_back(c);
        }
      }
      std::vector<int64_t> kept;
      for (int64_t r = 0; r < t->num_rows(); ++r) {
        bool any_null = false;
        for (int c : cols) any_null = any_null || t->column(c)->IsNull(r);
        if (!any_null) kept.push_back(r);
      }
      test::ExpectSameTableBytes(test::BuilderGatherTable(t, kept),
                                 DropNullRows(t, subset, {}).ValueOrDie());
    }
  }
}

}  // namespace
}  // namespace bento::kern
