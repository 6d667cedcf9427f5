#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "frame/capabilities.h"
#include "frame/exec.h"
#include "frame/op.h"
#include "tests/test_util.h"

namespace bento::frame {
namespace {

using col::Scalar;
using col::TypeId;
using test::F64;
using test::I64;
using test::MakeTable;
using test::Str;

col::TablePtr SampleTable() {
  return MakeTable({
      {"id", I64({3, 1, 2, 3})},
      {"score", F64({1.5, 2.5, 0.0, 1.5}, {true, true, false, true})},
      {"name", Str({"Ada", "Grace", "Edsger", "Ada"})},
  });
}

/// Every kind in enum order; `ExpectEveryKind` checks the list is complete.
const std::vector<OpKind>& AllKinds() {
  static const std::vector<OpKind> kinds = {
      OpKind::kIsNa,       OpKind::kLocateOutliers, OpKind::kSearchPattern,
      OpKind::kSortValues, OpKind::kGetColumns,     OpKind::kGetDtypes,
      OpKind::kDescribe,   OpKind::kQuery,          OpKind::kCast,
      OpKind::kDropColumns, OpKind::kRename,        OpKind::kPivot,
      OpKind::kApplyExpr,  OpKind::kMerge,          OpKind::kGetDummies,
      OpKind::kCatCodes,   OpKind::kGroupByAgg,     OpKind::kToDatetime,
      OpKind::kDropNa,     OpKind::kStrLower,       OpKind::kRound,
      OpKind::kDropDuplicates, OpKind::kFillNa,     OpKind::kReplace,
      OpKind::kApplyRow,
  };
  return kinds;
}

template <typename T>
void ExpectEveryKind(const std::vector<T>& expected) {
  ASSERT_EQ(expected.size(), 25u);
  for (size_t k = 0; k < expected.size(); ++k) {
    EXPECT_EQ(static_cast<size_t>(AllKinds()[k]), k);
  }
}

TEST(OpTest, ActionsVsTransforms) {
  // The six EDA inspections are actions; sort and query are EDA transforms.
  const std::vector<bool> expected = {
      true,  true,  true,  false, true,  true,  true,  false, false,
      false, false, false, false, false, false, false, false, false,
      false, false, false, false, false, false, false,
  };
  ExpectEveryKind(expected);
  for (size_t k = 0; k < expected.size(); ++k) {
    EXPECT_EQ(IsAction(AllKinds()[k]), expected[k]) << OpKindName(AllKinds()[k]);
  }
}

TEST(OpTest, NamesAreStable) {
  const std::vector<std::string> expected = {
      "isna",    "outlier", "srchptn", "sort",   "gcols",  "dtypes",
      "stats",   "query",   "astype",  "drop",   "rename", "pivot",
      "apply",   "merge",   "onehot",  "catenc", "groupby", "chdate",
      "dropna",  "lower",   "round",   "dedup",  "fillna", "replace",
      "applyrow",
  };
  ExpectEveryKind(expected);
  for (size_t k = 0; k < expected.size(); ++k) {
    EXPECT_EQ(OpKindName(AllKinds()[k]), expected[k]);
  }
}

TEST(OpTest, DeviceClasses) {
  // The GPU kernel family each kind runs as on CuDF.
  using K = sim::KernelClass;
  const std::vector<K> expected = {
      K::kVector, K::kVector, K::kString, K::kSort,   K::kScalar,
      K::kScalar, K::kVector, K::kVector, K::kVector, K::kVector,
      K::kVector, K::kSort,   K::kVector, K::kSort,   K::kString,
      K::kString, K::kSort,   K::kString, K::kVector, K::kString,
      K::kVector, K::kSort,   K::kVector, K::kString, K::kScalar,
  };
  ExpectEveryKind(expected);
  ASSERT_EQ(expected.size(), kNumOpKinds);
  for (size_t k = 0; k < expected.size(); ++k) {
    EXPECT_EQ(TraitsOf(AllKinds()[k]).device, expected[k])
        << OpKindName(AllKinds()[k]);
  }
}

TEST(ExecTest, QueryFiltersRows) {
  auto out =
      ExecTransform(SampleTable(), Op::Query("id >= 2"), {}).ValueOrDie();
  EXPECT_EQ(out->num_rows(), 3);
  EXPECT_FALSE(ExecTransform(SampleTable(), Op::Query("id +"), {}).ok());
  // Non-boolean predicate rejected.
  EXPECT_FALSE(ExecTransform(SampleTable(), Op::Query("id + 1"), {}).ok());
}

TEST(ExecTest, SortAndDropAndRename) {
  auto sorted =
      ExecTransform(SampleTable(), Op::SortValues({{"id", true}}), {})
          .ValueOrDie();
  EXPECT_EQ(sorted->column(0)->int64_data()[0], 1);

  auto dropped =
      ExecTransform(SampleTable(), Op::DropColumns({"score"}), {}).ValueOrDie();
  EXPECT_EQ(dropped->num_columns(), 2);

  auto renamed =
      ExecTransform(SampleTable(), Op::Rename({{"name", "who"}}), {})
          .ValueOrDie();
  EXPECT_TRUE(renamed->schema()->Contains("who"));
}

TEST(ExecTest, ApplyExprAddsColumn) {
  auto out = ExecTransform(SampleTable(),
                           Op::ApplyExpr("double_score", "score * 2"), {})
                 .ValueOrDie();
  EXPECT_DOUBLE_EQ(
      out->GetColumn("double_score").ValueOrDie()->float64_data()[1], 5.0);
  EXPECT_TRUE(out->GetColumn("double_score").ValueOrDie()->IsNull(2));
}

TEST(ExecTest, FillNaVariants) {
  auto filled = ExecTransform(SampleTable(),
                              Op::FillNa("score", Scalar::Double(7.0)), {})
                    .ValueOrDie();
  EXPECT_DOUBLE_EQ(filled->GetColumn("score").ValueOrDie()->float64_data()[2],
                   7.0);
  auto mean = ExecTransform(SampleTable(), Op::FillNaMean("score"), {})
                  .ValueOrDie();
  EXPECT_NEAR(mean->GetColumn("score").ValueOrDie()->float64_data()[2],
              (1.5 + 2.5 + 1.5) / 3.0, 1e-12);
}

TEST(ExecTest, DedupAndDropNa) {
  auto dedup =
      ExecTransform(SampleTable(), Op::DropDuplicates(), {}).ValueOrDie();
  EXPECT_EQ(dedup->num_rows(), 3);
  auto dropna = ExecTransform(SampleTable(), Op::DropNa(), {}).ValueOrDie();
  EXPECT_EQ(dropna->num_rows(), 3);
}

TEST(ExecTest, GroupByProducesFrame) {
  Op op = Op::GroupByAgg({"name"}, {{"score", kern::AggKind::kMean, "m"}});
  auto out = ExecTransform(SampleTable(), op, {}).ValueOrDie();
  EXPECT_EQ(out->num_rows(), 3);
  EXPECT_TRUE(out->schema()->Contains("m"));
}

TEST(ExecTest, MergeRequiresRightSide) {
  Op op = Op::Merge(nullptr, "id", "id");
  EXPECT_FALSE(ExecTransform(SampleTable(), op, {}).ok());
}

TEST(ExecTest, ActionsProduceResults) {
  ExecPolicy policy;
  auto isna = ExecAction(SampleTable(), Op::IsNa(), policy).ValueOrDie();
  EXPECT_EQ(isna.counts, (std::vector<int64_t>{0, 1, 0}));

  auto cols = ExecAction(SampleTable(), Op::GetColumns(), policy).ValueOrDie();
  EXPECT_EQ(cols.names, (std::vector<std::string>{"id", "score", "name"}));

  auto dtypes = ExecAction(SampleTable(), Op::GetDtypes(), policy).ValueOrDie();
  EXPECT_EQ(dtypes.types[0], TypeId::kInt64);

  auto search = ExecAction(SampleTable(), Op::SearchPattern("name", "a"),
                           policy)
                    .ValueOrDie();
  EXPECT_EQ(search.count, 3);  // Ada, Grace, Ada ("a" lowercase)

  auto stats = ExecAction(SampleTable(), Op::Describe(), policy).ValueOrDie();
  EXPECT_NE(stats.table, nullptr);

  auto outlier =
      ExecAction(SampleTable(), Op::LocateOutliers("id", 0.0, 1.0), policy)
          .ValueOrDie();
  EXPECT_EQ(outlier.count, 0);  // bounds are min/max: nothing outside
}

TEST(ExecTest, ActionTransformMixupsRejected) {
  EXPECT_FALSE(ExecTransform(SampleTable(), Op::IsNa(), {}).ok());
  EXPECT_FALSE(ExecAction(SampleTable(), Op::DropNa(), {}).ok());
}

TEST(ExecTest, RowApplyObjectOverheadCharged) {
  // With a per-cell staging charge and a tight budget, row apply must OoM.
  sim::MachineSpec spec = sim::MachineSpec::Laptop();
  spec.ram_bytes = 1 << 16;  // 64 KiB
  sim::Session session(spec);

  ExecPolicy policy;
  policy.row_apply_object_bytes = 64;
  Op op = Op::ApplyRow(
      "out",
      [](const col::Table& t, int64_t r) -> Result<Scalar> {
        return Scalar::Int(r);
      },
      TypeId::kInt64);

  col::Int64Builder big;
  for (int i = 0; i < 2000; ++i) big.Append(i);
  auto t = MakeTable({{"x", big.Finish().ValueOrDie()}});
  // 2000 rows x 1 column x 64 bytes = 128000 > 64 KiB budget.
  Status st = ExecTransform(t, op, policy).status();
  EXPECT_TRUE(st.IsOutOfMemory()) << st.ToString();

  // The same op without the object model succeeds.
  policy.row_apply_object_bytes = 0;
  EXPECT_TRUE(ExecTransform(t, op, policy).ok());
}

TEST(ExecTest, CopyOutputsDoublesFootprint) {
  sim::MemoryPool pool("measure", 0);
  uint64_t peak_with_copy = 0;
  uint64_t peak_without = 0;
  {
    sim::MemoryScope scope(&pool);
    auto t = SampleTable();
    ExecPolicy policy;
    policy.copy_outputs = false;
    pool.ResetPeak();
    ASSERT_TRUE(ExecTransform(t, Op::SortValues({{"id", true}}), policy).ok());
    peak_without = pool.peak_bytes();
    policy.copy_outputs = true;
    pool.ResetPeak();
    ASSERT_TRUE(ExecTransform(t, Op::SortValues({{"id", true}}), policy).ok());
    peak_with_copy = pool.peak_bytes();
  }
  EXPECT_GT(peak_with_copy, peak_without);
}

TEST(CapabilitiesTest, MatrixCoversAllPreparators) {
  // 27 rows: the paper's Table II inventory.
  EXPECT_EQ(CapabilityMatrix().size(), 27u);
  for (const CapabilityRow& row : CapabilityMatrix()) {
    EXPECT_EQ(row.support.size(), CapabilityEngineOrder().size())
        << row.preparator;
  }
}

TEST(CapabilitiesTest, LookupSemantics) {
  // Pandas is the reference API.
  EXPECT_EQ(GetSupport("pandas", "isna").ValueOrDie(), Support::kFull);
  // Modin variants share the Modin column.
  EXPECT_EQ(GetSupport("modin_ray", "sort").ValueOrDie(),
            GetSupport("modin_dask", "sort").ValueOrDie());
  // DataTable misses most DT preparators (Table II).
  EXPECT_EQ(GetSupport("datatable", "merge").ValueOrDie(), Support::kEmulated);
  EXPECT_FALSE(GetSupport("nosuch", "isna").ok());
  EXPECT_FALSE(GetSupport("polars", "nosuch").ok());
}

TEST(CapabilitiesTest, StageNames) {
  EXPECT_STREQ(StageName(Stage::kIO), "I/O");
  EXPECT_STREQ(StageName(Stage::kEDA), "EDA");
  EXPECT_STREQ(SupportMark(Support::kFull), "++");
  EXPECT_STREQ(SupportMark(Support::kEmulated), "o");
}

TEST(DeepCopyTest, IndependentBuffers) {
  auto t = SampleTable();
  auto copy = DeepCopyTable(t).ValueOrDie();
  test::ExpectTablesEqual(t, copy);
  EXPECT_NE(copy->column(0)->data_buffer()->data(),
            t->column(0)->data_buffer()->data());
}

}  // namespace
}  // namespace bento::frame
