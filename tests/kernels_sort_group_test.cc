#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "kernels/cast.h"
#include "kernels/dedup.h"
#include "kernels/encode.h"
#include "kernels/flat_index.h"
#include "kernels/groupby.h"
#include "kernels/join.h"
#include "kernels/row_hash.h"
#include "kernels/selection.h"
#include "kernels/sort.h"
#include "sim/machine.h"
#include "tests/test_util.h"
#include "util/random.h"

namespace bento::kern {
namespace {

using col::TablePtr;
using test::F64;
using test::I64;
using test::MakeTable;
using test::Str;

TEST(SortTest, SingleKeyAscending) {
  auto t = MakeTable({{"k", I64({3, 1, 2})}});
  auto sorted = SortTable(t, {{"k", true}}).ValueOrDie();
  EXPECT_EQ(sorted->column(0)->int64_data()[0], 1);
  EXPECT_EQ(sorted->column(0)->int64_data()[2], 3);
}

TEST(SortTest, DescendingAndNullsLast) {
  auto t = MakeTable({{"k", F64({1.0, 0.0, 2.0}, {true, false, true})}});
  auto asc = SortTable(t, {{"k", true}}).ValueOrDie();
  EXPECT_DOUBLE_EQ(asc->column(0)->float64_data()[0], 1.0);
  EXPECT_TRUE(asc->column(0)->IsNull(2));
  auto desc = SortTable(t, {{"k", false}}).ValueOrDie();
  EXPECT_DOUBLE_EQ(desc->column(0)->float64_data()[0], 2.0);
  EXPECT_TRUE(desc->column(0)->IsNull(2));  // nulls last either way
}

TEST(SortTest, MultiKeyAndStability) {
  auto t = MakeTable({{"a", I64({1, 1, 0, 0})}, {"b", Str({"x", "w", "z", "z"})},
                      {"row", I64({0, 1, 2, 3})}});
  auto sorted = SortTable(t, {{"a", true}, {"b", true}}).ValueOrDie();
  // a=0 rows first, tie on b="z" broken by original order (stable).
  EXPECT_EQ(sorted->column(2)->int64_data()[0], 2);
  EXPECT_EQ(sorted->column(2)->int64_data()[1], 3);
  EXPECT_EQ(sorted->column(1)->GetView(2), "w");
}

TEST(SortTest, StringKeys) {
  auto t = MakeTable({{"s", Str({"pear", "apple", "fig"})}});
  auto sorted = SortTable(t, {{"s", true}}).ValueOrDie();
  EXPECT_EQ(sorted->column(0)->GetView(0), "apple");
  EXPECT_EQ(sorted->column(0)->GetView(2), "pear");
}

TEST(SortTest, ParallelMatchesSerialProperty) {
  Rng rng(99);
  col::Int64Builder kb;
  col::Float64Builder vb;
  const int64_t n = 20000;
  for (int64_t i = 0; i < n; ++i) {
    kb.AppendMaybe(rng.UniformInt(0, 50), !rng.Bernoulli(0.05));
    vb.Append(rng.UniformDouble());
  }
  auto t = MakeTable({{"k", kb.Finish().ValueOrDie()},
                      {"v", vb.Finish().ValueOrDie()}});
  std::vector<SortKey> keys = {{"k", true}};
  auto serial = ArgSort(t, keys).ValueOrDie();
  sim::ParallelOptions opts;
  opts.max_workers = 7;
  auto parallel = ArgSortParallel(t, keys, opts).ValueOrDie();
  // Both must produce the identical stable order.
  EXPECT_EQ(serial, parallel);
}

TEST(SortTest, ParallelMatchesSerialWorkerSweep) {
  Rng rng(101);
  col::Int64Builder kb;
  col::Float64Builder vb;
  const int64_t n = 30000;
  for (int64_t i = 0; i < n; ++i) {
    kb.AppendMaybe(rng.UniformInt(0, 40), !rng.Bernoulli(0.05));  // many ties
    vb.Append(rng.UniformDouble());
  }
  auto t = MakeTable({{"k", kb.Finish().ValueOrDie()},
                      {"v", vb.Finish().ValueOrDie()}});
  std::vector<SortKey> keys = {{"k", false}};
  auto serial = ArgSort(t, keys).ValueOrDie();
  for (int workers : {1, 2, 3, 5, 8}) {
    sim::ParallelOptions opts;
    opts.max_workers = workers;
    auto parallel = ArgSortParallel(t, keys, opts).ValueOrDie();
    EXPECT_EQ(serial, parallel) << "workers=" << workers;
  }
}

TEST(SortTest, MergeSortedRunsMatchesArgSort) {
  Rng rng(102);
  col::Int64Builder kb;
  const int64_t n = 25000;
  for (int64_t i = 0; i < n; ++i) kb.Append(rng.UniformInt(0, 30));
  auto t = MakeTable({{"k", kb.Finish().ValueOrDie()}});
  std::vector<SortKey> keys = {{"k", true}};
  auto expected = ArgSort(t, keys).ValueOrDie();
  auto columns = std::vector<col::ArrayPtr>{t->column(0)};
  // Pre-sorted runs over contiguous (uneven, incl. empty) row ranges: the
  // shape the chunked argsort produces.
  for (int nruns : {2, 3, 7}) {
    std::vector<std::vector<int64_t>> runs;
    int64_t b = 0;
    for (int r = 0; r < nruns; ++r) {
      int64_t e = r + 1 == nruns ? n : std::min<int64_t>(n, b + n / nruns + r * 37);
      std::vector<int64_t> run;
      for (int64_t i = b; i < e; ++i) run.push_back(i);
      std::stable_sort(run.begin(), run.end(), [&](int64_t i, int64_t j) {
        return t->column(0)->int64_data()[i] < t->column(0)->int64_data()[j];
      });
      runs.push_back(std::move(run));
      b = e;
    }
    sim::ParallelOptions opts;
    opts.max_workers = 4;
    auto merged = MergeSortedRuns(t, keys, runs, opts).ValueOrDie();
    EXPECT_EQ(expected, merged) << "nruns=" << nruns;
  }
}

TEST(TakeTest, ParallelMatchesSerial) {
  Rng rng(103);
  col::Int64Builder ib;
  col::Float64Builder fb;
  col::StringBuilder sb;
  col::BoolBuilder bb;
  const int64_t n = 20000;
  for (int64_t i = 0; i < n; ++i) {
    ib.AppendMaybe(rng.UniformInt(-100, 100), !rng.Bernoulli(0.1));
    fb.AppendMaybe(rng.UniformDouble(), !rng.Bernoulli(0.1));
    sb.AppendMaybe(std::string(static_cast<size_t>(rng.UniformInt(0, 20)), 'x'),
                   !rng.Bernoulli(0.1));
    bb.Append(rng.Bernoulli(0.5));
  }
  auto t = MakeTable({{"i", ib.Finish().ValueOrDie()},
                      {"f", fb.Finish().ValueOrDie()},
                      {"s", sb.Finish().ValueOrDie()},
                      {"b", bb.Finish().ValueOrDie()}});
  std::vector<int64_t> indices;
  for (int64_t i = 0; i < n; ++i) {
    indices.push_back(rng.Bernoulli(0.05) ? -1 : rng.UniformInt(0, n - 1));
  }
  auto serial = TakeTable(t, indices).ValueOrDie();
  sim::ParallelOptions opts;
  opts.max_workers = 6;
  auto parallel = TakeTableParallel(t, indices, opts).ValueOrDie();
  test::ExpectTablesEqual(serial, parallel);
  // Out-of-bounds index: both paths must fail with the same message.
  std::vector<int64_t> bad = indices;
  bad[12345] = n + 7;
  auto serial_err = TakeTable(t, bad);
  auto parallel_err = TakeTableParallel(t, bad, opts);
  ASSERT_FALSE(serial_err.ok());
  ASSERT_FALSE(parallel_err.ok());
  EXPECT_EQ(serial_err.status().ToString(), parallel_err.status().ToString());
}

/// A categorical null slot holds code -1 on every path that writes one: the
/// builder, Take, TakeParallel below its one-worker cutoff (100 rows) and on
/// its sized gather (5 000 rows), FilterTable and ConcatTables.
TEST(TakeTest, NullCategoricalCodeIsMinusOneOnEveryPath) {
  auto dict = std::make_shared<std::vector<std::string>>(
      std::vector<std::string>{"a", "b", "c"});
  const int64_t n = 5000;
  col::CategoricalBuilder b;
  for (int64_t i = 0; i < n; ++i) {
    if (i % 3 == 1) {
      b.AppendNull();
    } else {
      b.Append(static_cast<int32_t>(i % 3));
    }
  }
  const col::ArrayPtr built = b.Finish(dict).ValueOrDie();
  ASSERT_EQ(built->codes_data()[1], -1);
  std::vector<int64_t> all(static_cast<size_t>(n));
  std::iota(all.begin(), all.end(), 0);

  test::ExpectSameBytes(built, Take(built, all).ValueOrDie());
  for (int64_t rows : {100, 5000}) {
    SCOPED_TRACE("TakeParallel rows=" + std::to_string(rows));
    const std::vector<int64_t> head(all.begin(), all.begin() + rows);
    sim::ParallelOptions opts;
    opts.max_workers = 4;
    test::ExpectSameBytes(test::BuilderGather(built, head),
                          TakeParallel(built, head, opts).ValueOrDie());
  }
  auto t = MakeTable({{"c", built}});
  auto filtered =
      FilterTable(t, test::Bools(std::vector<bool>(n, true)), {}).ValueOrDie();
  test::ExpectSameBytes(built, filtered->column(0));
  auto concat = col::ConcatTables({t->Slice(0, 2000).ValueOrDie(),
                                   t->Slice(2000, n - 2000).ValueOrDie()})
                    .ValueOrDie();
  test::ExpectSameBytes(built, concat->column(0));
}

/// A table with one column of each of the six types, about `null_frac` of
/// each column null, and garbage under the null slots.
TablePtr SixTypeTable(int64_t n, double null_frac, uint64_t seed) {
  Rng rng(seed);
  const col::Dictionary dict = test::RandomDictionary(&rng);
  std::vector<std::pair<std::string, col::ArrayPtr>> columns;
  for (col::TypeId type :
       {col::TypeId::kInt64, col::TypeId::kFloat64, col::TypeId::kBool,
        col::TypeId::kString, col::TypeId::kTimestamp,
        col::TypeId::kCategorical}) {
    columns.emplace_back(col::TypeName(type),
                         test::RawArray(type, n, null_frac, /*hostile=*/true,
                                        dict, &rng));
  }
  return MakeTable(columns);
}

/// FilterTable is byte-identical to appending the kept rows one by one
/// through the builders, at 1, 2, 4 and 8 workers in simulated and real
/// sessions: every type at null fractions 0, 0.3 and 1, whole and sliced at
/// an odd offset, under masks with nulls (one with 0/1 bytes keeping about
/// half the rows, one with arbitrary bytes, true ones under its nulls too),
/// an all-false and an all-true mask, and on an empty table. 100 000 rows
/// make the gather two morsels.
TEST(FilterTest, ByteIdenticalToBuilderAcrossWorkersAndModes) {
  struct Case {
    std::string name;
    TablePtr table;
    col::ArrayPtr mask;
  };
  std::vector<Case> cases;
  const int64_t n = 100000;
  Rng rng(2024);
  for (double null_frac : {0.0, 0.3, 1.0}) {
    const TablePtr whole =
        SixTypeTable(n, null_frac, 7 + static_cast<uint64_t>(null_frac * 10));
    const std::vector<std::pair<std::string, col::ArrayPtr>> masks = {
        {"nullable", test::RawArray(col::TypeId::kBool, n, 0.05,
                                    /*hostile=*/false, nullptr, &rng)},
        {"garbage bytes", test::RawArray(col::TypeId::kBool, n, 0.05,
                                         /*hostile=*/true, nullptr, &rng)},
        {"all-false", test::Bools(std::vector<bool>(n, false))},
        {"all-true", test::Bools(std::vector<bool>(n, true))}};
    for (const auto& [mask_name, mask] : masks) {
      const std::string name =
          "null_frac=" + std::to_string(null_frac) + " mask=" + mask_name;
      cases.push_back({name, whole, mask});
      cases.push_back({name + " sliced", whole->Slice(3, n - 10).ValueOrDie(),
                       mask->Slice(3, n - 10).ValueOrDie()});
    }
  }
  cases.push_back({"empty", SixTypeTable(0, 0.3, 99), test::Bools({})});

  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    std::vector<int64_t> kept;
    for (int64_t i = 0; i < c.mask->length(); ++i) {
      if (c.mask->IsValid(i) && c.mask->bool_data()[i] != 0) kept.push_back(i);
    }
    const TablePtr expected = test::BuilderGatherTable(c.table, kept);
    for (bool real : {false, true}) {
      sim::Session session(sim::MachineSpec{"m", 8, 0, std::nullopt});
      if (real) session.set_execution_mode(sim::ExecutionMode::kReal);
      for (int workers : {1, 2, 4, 8}) {
        SCOPED_TRACE(std::string(real ? "real" : "simulated") +
                     " workers=" + std::to_string(workers));
        sim::ParallelOptions opts;
        opts.max_workers = workers;
        opts.mode = real ? sim::ExecutionMode::kReal
                         : sim::ExecutionMode::kSimulated;
        test::ExpectSameTableBytes(
            expected, FilterTable(c.table, c.mask, opts).ValueOrDie());
      }
    }
  }
}

/// Serial Take and TakeTable are byte-identical to appending the rows one
/// by one through the builders (test::BuilderGather), and so are
/// TakeParallel and TakeTableParallel below their one-worker cutoff: every
/// type at null fractions 0, 0.3 and 1 with garbage under the nulls (bool
/// bytes other than 0/1 included), whole and sliced at an odd offset, at
/// 100 and 5 000 rows, under indices with repeats and -1; then zero rows
/// (an empty take, and -1 rows taken from an empty table), zero columns,
/// and the out-of-bounds message.
TEST(TakeTest, SerialByteIdenticalToBuilderReference) {
  Rng rng(4096);
  sim::ParallelOptions four;
  four.max_workers = 4;
  auto check = [&](const TablePtr& t, const std::vector<int64_t>& rows) {
    const TablePtr expected = test::BuilderGatherTable(t, rows);
    test::ExpectSameTableBytes(expected, TakeTable(t, rows).ValueOrDie());
    for (int c = 0; c < t->num_columns(); ++c) {
      SCOPED_TRACE("Take column " + t->schema()->field(c).name);
      test::ExpectSameBytes(expected->column(c),
                            Take(t->column(c), rows).ValueOrDie());
    }
    if (rows.size() < 4096) {
      test::ExpectSameTableBytes(expected,
                                 TakeTableParallel(t, rows, four).ValueOrDie());
      for (int c = 0; c < t->num_columns(); ++c) {
        test::ExpectSameBytes(
            expected->column(c),
            TakeParallel(t->column(c), rows, four).ValueOrDie());
      }
    }
  };
  for (int64_t n : {100, 5000}) {
    for (double null_frac : {0.0, 0.3, 1.0}) {
      const TablePtr whole =
          SixTypeTable(n, null_frac, static_cast<uint64_t>(n) + 17);
      for (bool sliced : {false, true}) {
        const TablePtr t =
            sliced ? whole->Slice(3, n - 10).ValueOrDie() : whole;
        const int64_t rows = t->num_rows();
        std::vector<int64_t> with_missing;
        std::vector<int64_t> permuted(static_cast<size_t>(rows));
        std::iota(permuted.begin(), permuted.end(), 0);
        std::reverse(permuted.begin(), permuted.end());
        for (int64_t i = 0; i < rows + rows / 2; ++i) {
          with_missing.push_back(
              rng.Bernoulli(0.1) ? -1 : rng.UniformInt(0, rows - 1));
        }
        SCOPED_TRACE("n=" + std::to_string(n) +
                     " null_frac=" + std::to_string(null_frac) +
                     (sliced ? " sliced" : ""));
        check(t, with_missing);
        check(t, permuted);
        check(t, {});
        check(t, std::vector<int64_t>(7, -1));
      }
    }
  }
  const TablePtr empty = SixTypeTable(0, 0.3, 5);
  check(empty, {});
  check(empty, {-1, -1, -1});
  const TablePtr no_columns =
      col::Table::Make(std::make_shared<col::Schema>(std::vector<col::Field>{}),
                       {})
          .ValueOrDie();
  check(no_columns, {});
  check(no_columns, {0, -1});

  const TablePtr t = SixTypeTable(100, 0.3, 3);
  const std::string message =
      "IndexError: take index 100 out of bounds (length 100)";
  EXPECT_EQ(TakeTable(t, {0, -1, 100, 200}).status().ToString(), message);
  EXPECT_EQ(Take(t->column(3), {100, 0}).status().ToString(), message);
  EXPECT_EQ(TakeTableParallel(t, {5, 100}, four).status().ToString(), message);
}

TEST(SortTest, UnknownKeyFails) {
  auto t = MakeTable({{"a", I64({1})}});
  EXPECT_FALSE(SortTable(t, {{"zz", true}}).ok());
  EXPECT_FALSE(SortTable(t, {}).ok());
}

TEST(CompareTableRowsTest, AcrossTables) {
  auto a = MakeTable({{"k", I64({1, 5})}});
  auto b = MakeTable({{"k", I64({3})}});
  std::vector<SortKey> keys = {{"k", true}};
  EXPECT_LT(CompareTableRows(a, 0, b, 0, keys).ValueOrDie(), 0);
  EXPECT_GT(CompareTableRows(a, 1, b, 0, keys).ValueOrDie(), 0);
  EXPECT_EQ(CompareTableRows(a, 0, a, 0, keys).ValueOrDie(), 0);
}

TEST(HashRowsTest, EqualRowsHashEqual) {
  auto t = MakeTable({{"a", I64({1, 1, 2})}, {"b", Str({"x", "x", "x"})}});
  auto hashes = HashRows(t, {"a", "b"}).ValueOrDie();
  EXPECT_EQ(hashes[0], hashes[1]);
  EXPECT_NE(hashes[0], hashes[2]);
}

TEST(HashRowsTest, NullsHashConsistently) {
  auto t = MakeTable({{"a", I64({1, 1}, {false, false})}});
  auto hashes = HashRows(t, {}).ValueOrDie();
  EXPECT_EQ(hashes[0], hashes[1]);
}

TEST(GroupByTest, BasicAggregations) {
  auto t = MakeTable({{"k", Str({"a", "b", "a", "a"})},
                      {"v", F64({1.0, 10.0, 2.0, 3.0})}});
  auto out = GroupBy(t, {"k"},
                     {{"v", AggKind::kSum, "s"},
                      {"v", AggKind::kMean, "m"},
                      {"v", AggKind::kMin, "lo"},
                      {"v", AggKind::kMax, "hi"},
                      {"v", AggKind::kCount, "n"}})
                 .ValueOrDie();
  ASSERT_EQ(out->num_rows(), 2);  // first-seen order: a, b
  EXPECT_EQ(out->column(0)->GetView(0), "a");
  EXPECT_DOUBLE_EQ(out->GetColumn("s").ValueOrDie()->float64_data()[0], 6.0);
  EXPECT_DOUBLE_EQ(out->GetColumn("m").ValueOrDie()->float64_data()[0], 2.0);
  EXPECT_DOUBLE_EQ(out->GetColumn("lo").ValueOrDie()->float64_data()[0], 1.0);
  EXPECT_DOUBLE_EQ(out->GetColumn("hi").ValueOrDie()->float64_data()[0], 3.0);
  EXPECT_EQ(out->GetColumn("n").ValueOrDie()->int64_data()[0], 3);
  EXPECT_DOUBLE_EQ(out->GetColumn("s").ValueOrDie()->float64_data()[1], 10.0);
}

TEST(GroupByTest, StdMatchesManual) {
  auto t = MakeTable({{"k", I64({1, 1, 1})}, {"v", F64({2.0, 4.0, 6.0})}});
  auto out = GroupBy(t, {"k"}, {{"v", AggKind::kStd, "sd"}}).ValueOrDie();
  EXPECT_NEAR(out->GetColumn("sd").ValueOrDie()->float64_data()[0], 2.0, 1e-12);
}

TEST(GroupByTest, NullKeysFormAGroup) {
  auto t = MakeTable({{"k", Str({"a", "x", "x"}, {true, false, false})},
                      {"v", I64({1, 2, 3})}});
  auto out = GroupBy(t, {"k"}, {{"v", AggKind::kSum, "s"}}).ValueOrDie();
  ASSERT_EQ(out->num_rows(), 2);
  EXPECT_DOUBLE_EQ(out->GetColumn("s").ValueOrDie()->float64_data()[1], 5.0);
}

TEST(GroupByTest, NullValuesSkipped) {
  auto t = MakeTable(
      {{"k", I64({1, 1})}, {"v", F64({5.0, 99.0}, {true, false})}});
  auto out = GroupBy(t, {"k"},
                     {{"v", AggKind::kSum, "s"}, {"v", AggKind::kCount, "n"}})
                 .ValueOrDie();
  EXPECT_DOUBLE_EQ(out->GetColumn("s").ValueOrDie()->float64_data()[0], 5.0);
  EXPECT_EQ(out->GetColumn("n").ValueOrDie()->int64_data()[0], 1);
}

TEST(GroupByTest, AllNullGroupAggregatesToNull) {
  auto t = MakeTable({{"k", I64({1})}, {"v", F64({0.0}, {false})}});
  auto out = GroupBy(t, {"k"}, {{"v", AggKind::kMean, "m"}}).ValueOrDie();
  EXPECT_TRUE(out->GetColumn("m").ValueOrDie()->IsNull(0));
}

TEST(GroupByTest, RejectsStringAggregation) {
  auto t = MakeTable({{"k", I64({1})}, {"s", Str({"x"})}});
  EXPECT_FALSE(GroupBy(t, {"k"}, {{"s", AggKind::kSum, ""}}).ok());
  EXPECT_TRUE(GroupBy(t, {"k"}, {{"s", AggKind::kCount, "n"}}).ok());
  EXPECT_FALSE(GroupBy(t, {}, {{"k", AggKind::kSum, ""}}).ok());

  // Counts of string and categorical cells, serial and partitioned (past
  // the partitioned kernel's 8192-row floor): valid cells only, and no
  // value is read, since 1-byte chars and 4-byte codes hold no 8-byte value.
  constexpr int64_t kRows = 10000;
  std::vector<int64_t> keys;
  std::vector<std::string> values;
  std::vector<bool> valid;
  std::vector<int64_t> expected_counts(7, 0);
  for (int64_t i = 0; i < kRows; ++i) {
    keys.push_back(i % 7);
    values.push_back(std::string("v").append(std::to_string(i % 11)));
    valid.push_back(i % 5 != 0);
    expected_counts[static_cast<size_t>(i % 7)] += i % 5 != 0 ? 1 : 0;
  }
  auto strs = Str(values, valid);
  auto c = MakeTable(
      {{"k", I64(keys)},
       {"s", strs},
       {"c", kern::Cast(strs, col::TypeId::kCategorical).ValueOrDie()}});
  const std::vector<AggSpec> counts = {{"s", AggKind::kCount, "ns"},
                                       {"c", AggKind::kCount, "nc"}};
  auto expected = MakeTable({{"k", I64({0, 1, 2, 3, 4, 5, 6})},
                             {"ns", I64(expected_counts)},
                             {"nc", I64(expected_counts)}});
  test::ExpectTablesEqual(expected, GroupBy(c, {"k"}, counts).ValueOrDie());
  sim::ParallelOptions opts;
  opts.max_workers = 3;
  test::ExpectTablesEqual(
      expected, GroupByPartitioned(c, {"k"}, counts, opts).ValueOrDie());
}

TEST(GroupByTest, PartitionedMatchesSerialProperty) {
  Rng rng(7);
  col::Int64Builder kb;
  col::Float64Builder vb;
  for (int64_t i = 0; i < 20000; ++i) {
    kb.Append(rng.UniformInt(0, 97));
    vb.AppendMaybe(rng.UniformDouble(0, 100), !rng.Bernoulli(0.1));
  }
  auto t = MakeTable({{"k", kb.Finish().ValueOrDie()},
                      {"v", vb.Finish().ValueOrDie()}});
  std::vector<AggSpec> aggs = {{"v", AggKind::kSum, "s"},
                               {"v", AggKind::kMean, "m"},
                               {"v", AggKind::kCount, "n"}};
  auto serial = GroupBy(t, {"k"}, aggs).ValueOrDie();
  sim::ParallelOptions opts;
  opts.max_workers = 5;
  auto partitioned = GroupByPartitioned(t, {"k"}, aggs, opts).ValueOrDie();
  // Positional: the morsel kernel restores global first-seen group order,
  // and per-group accumulation follows global row order, so the output is
  // row-for-row identical to serial — not just equivalent up to reordering.
  test::ExpectTablesEqual(serial, partitioned);
}

/// Builds the randomized group-by property input: int64 keys (some null),
/// a float64 value column with nulls and NaNs, and a bool column.
TablePtr GroupPropertyTable(uint64_t seed, int64_t n, int64_t cardinality) {
  Rng rng(seed);
  col::Int64Builder kb;
  col::Float64Builder vb;
  col::BoolBuilder bb;
  for (int64_t i = 0; i < n; ++i) {
    kb.AppendMaybe(rng.UniformInt(0, cardinality), !rng.Bernoulli(0.02));
    double v = rng.UniformDouble(-50, 50);
    if (rng.Bernoulli(0.02)) v = std::nan("");
    vb.AppendMaybe(v, !rng.Bernoulli(0.1));
    bb.Append(rng.Bernoulli(0.5));
  }
  return MakeTable({{"k", kb.Finish().ValueOrDie()},
                    {"v", vb.Finish().ValueOrDie()},
                    {"b", bb.Finish().ValueOrDie()}});
}

std::vector<AggSpec> AllAggs() {
  return {{"v", AggKind::kSum, "s"},   {"v", AggKind::kMean, "m"},
          {"v", AggKind::kMin, "lo"},  {"v", AggKind::kMax, "hi"},
          {"v", AggKind::kStd, "sd"},  {"v", AggKind::kCount, "n"},
          {"b", AggKind::kSum, "bs"}};
}

TEST(GroupByTest, PartitionedBitIdenticalAcrossWorkerCounts) {
  auto t = GroupPropertyTable(31, 20000, 97);
  auto aggs = AllAggs();
  auto serial = GroupBy(t, {"k"}, aggs).ValueOrDie();
  for (int workers = 1; workers <= 8; ++workers) {
    sim::ParallelOptions opts;
    opts.max_workers = workers;
    auto partitioned = GroupByPartitioned(t, {"k"}, aggs, opts).ValueOrDie();
    // Every group lives in exactly one partition and its rows accumulate in
    // global row order, so even float aggregates (kStd included) are
    // bit-identical to serial for every worker count.
    test::ExpectTablesEqual(serial, partitioned);
  }
}

TEST(GroupByTest, PartitionedRealModeMatchesSerial) {
  auto t = GroupPropertyTable(32, 30000, 251);
  auto aggs = AllAggs();
  auto serial = GroupBy(t, {"k"}, aggs).ValueOrDie();
  sim::ParallelOptions opts;
  opts.max_workers = 4;
  opts.mode = sim::ExecutionMode::kReal;  // genuine pool threads
  auto partitioned = GroupByPartitioned(t, {"k"}, aggs, opts).ValueOrDie();
  test::ExpectTablesEqual(serial, partitioned);
}

TEST(GroupByTest, PartitionedForcedHashCollisions) {
  // All keys hash to one constant: every row lands in one partition and the
  // grouper resolves groups purely through the equality fallback.
  auto t = GroupPropertyTable(33, 9000, 23);
  auto aggs = AllAggs();
  ScopedForcedHashCollisions forced;
  auto serial = GroupBy(t, {"k"}, aggs).ValueOrDie();
  sim::ParallelOptions opts;
  opts.max_workers = 6;
  auto partitioned = GroupByPartitioned(t, {"k"}, aggs, opts).ValueOrDie();
  test::ExpectTablesEqual(serial, partitioned);
}

TEST(AggStateTest, MergeMatchesSerialOnIntegerData) {
  // Integer-valued doubles: the moment sums are exact, so any split of the
  // sequence must merge to the bit-identical state.
  Rng rng(44);
  std::vector<double> values;
  for (int i = 0; i < 3000; ++i) {
    values.push_back(static_cast<double>(rng.UniformInt(-1000, 1000)));
  }
  AggState serial;
  for (double v : values) {
    serial.rows += 1;
    serial.Add(v);
  }
  // Skewed splits: 1 | n-1, n-1 | 1, and several random cut sets.
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<size_t> cuts = {0, values.size()};
    if (trial == 0) cuts.insert(cuts.begin() + 1, 1);
    else if (trial == 1) cuts.insert(cuts.begin() + 1, values.size() - 1);
    else {
      for (int c = 0; c < trial % 5 + 1; ++c) {
        cuts.push_back(static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(values.size()))));
      }
      std::sort(cuts.begin(), cuts.end());
    }
    AggState merged;
    for (size_t s = 0; s + 1 < cuts.size(); ++s) {
      AggState part;
      for (size_t i = cuts[s]; i < cuts[s + 1]; ++i) {
        part.rows += 1;
        part.Add(values[i]);
      }
      merged.Merge(part);
    }
    EXPECT_EQ(serial.count, merged.count);
    EXPECT_EQ(serial.rows, merged.rows);
    EXPECT_EQ(serial.sum, merged.sum);
    EXPECT_EQ(serial.sum_sq, merged.sum_sq);
    EXPECT_EQ(serial.min, merged.min);
    EXPECT_EQ(serial.max, merged.max);
    for (AggKind kind : {AggKind::kSum, AggKind::kMean, AggKind::kMin,
                         AggKind::kMax, AggKind::kStd, AggKind::kCount}) {
      bool sn = false, mn = false;
      EXPECT_EQ(serial.Result(kind, &sn), merged.Result(kind, &mn));
      EXPECT_EQ(sn, mn);
    }
  }
}

TEST(AggStateTest, MergeNumericallyStableOnRealData) {
  // Arbitrary doubles: sum/sum_sq compose by addition (tolerance-checked);
  // min/max/count stay exact under any split, including empty segments.
  Rng rng(45);
  std::vector<double> values;
  for (int i = 0; i < 5000; ++i) values.push_back(rng.UniformDouble(-1e6, 1e6));
  AggState serial;
  for (double v : values) {
    serial.rows += 1;
    serial.Add(v);
  }
  AggState merged;
  merged.Merge(AggState());  // empty-segment merge is a no-op
  size_t i = 0;
  while (i < values.size()) {
    size_t len = static_cast<size_t>(rng.UniformInt(0, 400));
    AggState part;
    for (size_t j = i; j < std::min(values.size(), i + len); ++j) {
      part.rows += 1;
      part.Add(values[j]);
    }
    merged.Merge(part);
    i += len;
  }
  EXPECT_EQ(serial.count, merged.count);
  EXPECT_EQ(serial.min, merged.min);
  EXPECT_EQ(serial.max, merged.max);
  EXPECT_NEAR(serial.sum, merged.sum, 1e-9 * std::abs(serial.sum) + 1e-4);
  EXPECT_NEAR(serial.sum_sq, merged.sum_sq, 1e-10 * serial.sum_sq);
  bool sn = false, mn = false;
  EXPECT_NEAR(serial.Result(AggKind::kStd, &sn),
              merged.Result(AggKind::kStd, &mn), 1e-6);
  EXPECT_EQ(sn, mn);
}

TEST(JoinTest, InnerJoin) {
  auto left = MakeTable({{"k", I64({1, 2, 3})}, {"lv", Str({"a", "b", "c"})}});
  auto right = MakeTable({{"k", I64({2, 3, 4})}, {"rv", F64({20, 30, 40})}});
  auto out = HashJoin(left, right, "k", "k").ValueOrDie();
  ASSERT_EQ(out->num_rows(), 2);
  EXPECT_EQ(out->GetColumn("lv").ValueOrDie()->GetView(0), "b");
  EXPECT_DOUBLE_EQ(out->GetColumn("rv").ValueOrDie()->float64_data()[1], 30.0);
}

TEST(JoinTest, LeftJoinEmitsNulls) {
  auto left = MakeTable({{"k", I64({1, 2})}, {"lv", I64({10, 20})}});
  auto right = MakeTable({{"k", I64({2})}, {"rv", I64({200})}});
  JoinOptions opts;
  opts.type = JoinType::kLeft;
  auto out = HashJoin(left, right, "k", "k", opts).ValueOrDie();
  ASSERT_EQ(out->num_rows(), 2);
  EXPECT_TRUE(out->GetColumn("rv").ValueOrDie()->IsNull(0));
  EXPECT_EQ(out->GetColumn("rv").ValueOrDie()->int64_data()[1], 200);
}

TEST(JoinTest, DuplicateRightKeysReplicate) {
  auto left = MakeTable({{"k", I64({7})}, {"lv", I64({1})}});
  auto right = MakeTable({{"k", I64({7, 7})}, {"rv", I64({100, 200})}});
  auto out = HashJoin(left, right, "k", "k").ValueOrDie();
  EXPECT_EQ(out->num_rows(), 2);
}

TEST(JoinTest, NullKeysNeverMatch) {
  auto left = MakeTable({{"k", I64({1}, {false})}, {"lv", I64({1})}});
  auto right = MakeTable({{"k", I64({1}, {false})}, {"rv", I64({2})}});
  auto inner = HashJoin(left, right, "k", "k").ValueOrDie();
  EXPECT_EQ(inner->num_rows(), 0);
  JoinOptions opts;
  opts.type = JoinType::kLeft;
  auto outer = HashJoin(left, right, "k", "k", opts).ValueOrDie();
  EXPECT_EQ(outer->num_rows(), 1);
  EXPECT_TRUE(outer->GetColumn("rv").ValueOrDie()->IsNull(0));
}

TEST(JoinTest, CollidingNamesGetSuffix) {
  auto left = MakeTable({{"k", I64({1})}, {"v", I64({1})}});
  auto right = MakeTable({{"k", I64({1})}, {"v", I64({2})}});
  auto out = HashJoin(left, right, "k", "k").ValueOrDie();
  EXPECT_TRUE(out->schema()->Contains("v"));
  EXPECT_TRUE(out->schema()->Contains("v_r"));
}

TEST(JoinTest, ParallelMatchesSerialProperty) {
  Rng rng(21);
  col::Int64Builder lk, rk;
  for (int i = 0; i < 5000; ++i) lk.Append(rng.UniformInt(0, 500));
  for (int i = 0; i < 800; ++i) rk.Append(rng.UniformInt(0, 500));
  col::Int64Builder lid, rid;
  for (int i = 0; i < 5000; ++i) lid.Append(i);
  for (int i = 0; i < 800; ++i) rid.Append(i);
  auto left = MakeTable({{"k", lk.Finish().ValueOrDie()},
                         {"lid", lid.Finish().ValueOrDie()}});
  auto right = MakeTable({{"k", rk.Finish().ValueOrDie()},
                          {"rid", rid.Finish().ValueOrDie()}});
  auto serial = HashJoin(left, right, "k", "k").ValueOrDie();
  sim::ParallelOptions popts;
  popts.max_workers = 4;
  auto parallel =
      HashJoinParallel(left, right, "k", "k", {}, popts).ValueOrDie();
  test::ExpectTablesEqual(serial, parallel);  // probe order is preserved
}

TEST(DedupTest, KeepsFirstOccurrence) {
  auto t = MakeTable({{"a", I64({1, 2, 1, 3, 2})},
                      {"b", Str({"x", "y", "x", "z", "q"})}});
  auto all = DropDuplicates(t).ValueOrDie();
  EXPECT_EQ(all->num_rows(), 4);  // (2,"q") differs from (2,"y")
  auto on_a = DropDuplicates(t, {"a"}).ValueOrDie();
  EXPECT_EQ(on_a->num_rows(), 3);
  EXPECT_EQ(on_a->column(1)->GetView(1), "y");  // first occurrence kept
}

TEST(DedupTest, NullsAreEqualForDedup) {
  auto t = MakeTable({{"a", I64({1, 1}, {false, false})}});
  EXPECT_EQ(DropDuplicates(t).ValueOrDie()->num_rows(), 1);
}

TEST(UniqueTest, DistinctNonNull) {
  auto v = Str({"b", "a", "b", "c"}, {true, true, true, false});
  auto u = Unique(v).ValueOrDie();
  ASSERT_EQ(u->length(), 2);
  EXPECT_EQ(u->GetView(0), "b");
  EXPECT_EQ(u->GetView(1), "a");
}

TEST(DedupTest, ParallelMatchesSerialAcrossWorkerCounts) {
  Rng rng(61);
  col::Int64Builder ab;
  col::Int64Builder bb;
  const int64_t n = 20000;
  for (int64_t i = 0; i < n; ++i) {
    ab.AppendMaybe(rng.UniformInt(0, 60), !rng.Bernoulli(0.05));
    bb.Append(rng.UniformInt(0, 7));
  }
  auto t = MakeTable({{"a", ab.Finish().ValueOrDie()},
                      {"b", bb.Finish().ValueOrDie()}});
  auto serial = DropDuplicates(t).ValueOrDie();
  auto serial_a = DropDuplicates(t, {"a"}).ValueOrDie();
  for (int workers = 1; workers <= 8; ++workers) {
    sim::ParallelOptions opts;
    opts.max_workers = workers;
    auto parallel = DropDuplicatesParallel(t, {}, opts).ValueOrDie();
    test::ExpectTablesEqual(serial, parallel);  // same rows, same order
    auto parallel_a = DropDuplicatesParallel(t, {"a"}, opts).ValueOrDie();
    test::ExpectTablesEqual(serial_a, parallel_a);
  }
}

TEST(DedupTest, ParallelForcedHashCollisions) {
  Rng rng(62);
  col::Int64Builder ab;
  for (int64_t i = 0; i < 9000; ++i) ab.Append(rng.UniformInt(0, 25));
  auto t = MakeTable({{"a", ab.Finish().ValueOrDie()}});
  ScopedForcedHashCollisions forced;
  auto serial = DropDuplicates(t).ValueOrDie();
  sim::ParallelOptions opts;
  opts.max_workers = 4;
  auto parallel = DropDuplicatesParallel(t, {}, opts).ValueOrDie();
  test::ExpectTablesEqual(serial, parallel);
}

TEST(UniqueTest, ParallelMatchesSerial) {
  Rng rng(63);
  col::Float64Builder vb;
  const int64_t n = 20000;
  for (int64_t i = 0; i < n; ++i) {
    vb.AppendMaybe(static_cast<double>(rng.UniformInt(0, 300)) / 4.0,
                   !rng.Bernoulli(0.1));
  }
  auto v = vb.Finish().ValueOrDie();
  auto serial = Unique(v).ValueOrDie();
  for (int workers : {1, 3, 8}) {
    sim::ParallelOptions opts;
    opts.max_workers = workers;
    auto parallel = UniqueParallel(v, opts).ValueOrDie();
    ASSERT_EQ(serial->length(), parallel->length()) << "workers=" << workers;
    for (int64_t i = 0; i < serial->length(); ++i) {
      EXPECT_EQ(serial->float64_data()[i], parallel->float64_data()[i]);
    }
  }
}

TEST(JoinTest, ParallelMatchesSerialWorkerSweep) {
  Rng rng(64);
  col::Int64Builder lk, rk, lid, rid;
  const int64_t ln = 20000;
  for (int64_t i = 0; i < ln; ++i) {
    lk.AppendMaybe(rng.UniformInt(0, 900), !rng.Bernoulli(0.03));
    lid.Append(i);
  }
  for (int64_t i = 0; i < 1200; ++i) {
    rk.AppendMaybe(rng.UniformInt(0, 900), !rng.Bernoulli(0.03));
    rid.Append(i);
  }
  auto left = MakeTable({{"k", lk.Finish().ValueOrDie()},
                         {"lid", lid.Finish().ValueOrDie()}});
  auto right = MakeTable({{"k", rk.Finish().ValueOrDie()},
                          {"rid", rid.Finish().ValueOrDie()}});
  for (JoinType type : {JoinType::kInner, JoinType::kLeft}) {
    JoinOptions jopts;
    jopts.type = type;
    auto serial = HashJoin(left, right, "k", "k", jopts).ValueOrDie();
    for (int workers : {1, 2, 4, 8}) {
      sim::ParallelOptions popts;
      popts.max_workers = workers;
      auto parallel =
          HashJoinParallel(left, right, "k", "k", jopts, popts).ValueOrDie();
      test::ExpectTablesEqual(serial, parallel);
    }
  }
}

// --- dictionary-encoded (categorical) string keys -------------------------

/// The same logical table twice: `plain` carries the string key column as
/// kString, `dict` carries its DictEncode as kCategorical codes. Kernels
/// must produce value-identical results on both representations.
struct DictTables {
  TablePtr plain;
  TablePtr dict;
};

DictTables DictPropertyTables(uint64_t seed, int64_t n, int cardinality) {
  Rng rng(seed);
  col::StringBuilder sb;
  col::Float64Builder vb;
  for (int64_t i = 0; i < n; ++i) {
    if (rng.Bernoulli(0.04)) {
      sb.AppendNull();
    } else {
      sb.Append("team" + std::to_string(rng.UniformInt(0, cardinality)));
    }
    vb.AppendMaybe(rng.UniformDouble(-50, 50), !rng.Bernoulli(0.05));
  }
  auto s = sb.Finish().ValueOrDie();
  auto v = vb.Finish().ValueOrDie();
  auto cat = DictEncode(s).ValueOrDie();
  return {MakeTable({{"k", s}, {"v", v}}),
          MakeTable({{"k", cat}, {"v", v}})};
}

std::vector<AggSpec> DictAggs() {
  return {{"v", AggKind::kSum, "s"},  {"v", AggKind::kMean, "m"},
          {"v", AggKind::kMin, "lo"}, {"v", AggKind::kMax, "hi"},
          {"v", AggKind::kStd, "sd"}, {"v", AggKind::kCount, "n"}};
}

TEST(GroupByTest, DictKeysMatchStringKeysAcrossWorkerCounts) {
  auto tables = DictPropertyTables(71, 15000, 40);
  auto aggs = DictAggs();
  // Value-identical to the string-key group-by (code hashing routes through
  // the per-dictionary entry hashes, so grouping decisions cannot differ).
  auto from_strings = GroupBy(tables.plain, {"k"}, aggs).ValueOrDie();
  auto serial = GroupBy(tables.dict, {"k"}, aggs).ValueOrDie();
  test::ExpectTablesEqual(from_strings, serial);
  for (int workers = 1; workers <= 8; ++workers) {
    sim::ParallelOptions opts;
    opts.max_workers = workers;
    auto partitioned =
        GroupByPartitioned(tables.dict, {"k"}, aggs, opts).ValueOrDie();
    test::ExpectTablesEqual(serial, partitioned);
  }
}

TEST(GroupByTest, DictKeysForcedHashCollisionsWorkerSweep) {
  auto tables = DictPropertyTables(72, 6000, 17);
  auto aggs = DictAggs();
  ScopedForcedHashCollisions forced;
  auto serial = GroupBy(tables.dict, {"k"}, aggs).ValueOrDie();
  test::ExpectTablesEqual(GroupBy(tables.plain, {"k"}, aggs).ValueOrDie(),
                          serial);
  for (int workers = 1; workers <= 8; ++workers) {
    sim::ParallelOptions opts;
    opts.max_workers = workers;
    auto partitioned =
        GroupByPartitioned(tables.dict, {"k"}, aggs, opts).ValueOrDie();
    test::ExpectTablesEqual(serial, partitioned);
  }
}

TEST(DedupTest, DictKeysWorkerSweep) {
  auto tables = DictPropertyTables(73, 12000, 30);
  auto from_strings = DropDuplicates(tables.plain, {"k"}).ValueOrDie();
  auto serial = DropDuplicates(tables.dict, {"k"}).ValueOrDie();
  ASSERT_EQ(from_strings->num_rows(), serial->num_rows());
  for (int workers = 1; workers <= 8; ++workers) {
    sim::ParallelOptions opts;
    opts.max_workers = workers;
    auto parallel =
        DropDuplicatesParallel(tables.dict, {"k"}, opts).ValueOrDie();
    test::ExpectTablesEqual(serial, parallel);
  }
}

TEST(DedupTest, DictKeysForcedHashCollisions) {
  auto tables = DictPropertyTables(74, 5000, 12);
  ScopedForcedHashCollisions forced;
  auto serial = DropDuplicates(tables.dict, {"k"}).ValueOrDie();
  for (int workers : {1, 4, 8}) {
    sim::ParallelOptions opts;
    opts.max_workers = workers;
    auto parallel =
        DropDuplicatesParallel(tables.dict, {"k"}, opts).ValueOrDie();
    test::ExpectTablesEqual(serial, parallel);
  }
}

TEST(JoinTest, DictKeysMatchStringKeysWorkerSweep) {
  // Left and right get independent DictEncode dictionaries (different
  // first-appearance orders), so the cross-dictionary equality path is
  // exercised, not just same-dict code equality.
  auto left_t = DictPropertyTables(75, 8000, 50);
  Rng rng(76);
  col::StringBuilder rk;
  col::Int64Builder rid;
  for (int64_t i = 0; i < 400; ++i) {
    if (rng.Bernoulli(0.03)) {
      rk.AppendNull();
    } else {
      rk.Append("team" + std::to_string(rng.UniformInt(0, 50)));
    }
    rid.Append(i);
  }
  auto rks = rk.Finish().ValueOrDie();
  auto right_plain = MakeTable(
      {{"k", rks}, {"rid", rid.Finish().ValueOrDie()}});
  auto right_dict =
      MakeTable({{"k", DictEncode(rks).ValueOrDie()},
                 {"rid", right_plain->GetColumn("rid").ValueOrDie()}});
  for (JoinType type : {JoinType::kInner, JoinType::kLeft}) {
    JoinOptions jopts;
    jopts.type = type;
    auto from_strings =
        HashJoin(left_t.plain, right_plain, "k", "k", jopts).ValueOrDie();
    auto serial =
        HashJoin(left_t.dict, right_dict, "k", "k", jopts).ValueOrDie();
    test::ExpectTablesEqual(from_strings, serial);
    for (int workers : {1, 3, 8}) {
      sim::ParallelOptions popts;
      popts.max_workers = workers;
      auto parallel =
          HashJoinParallel(left_t.dict, right_dict, "k", "k", jopts, popts)
              .ValueOrDie();
      test::ExpectTablesEqual(serial, parallel);
    }
  }
}

TEST(SortTest, DictKeysMatchStringKeys) {
  // The rank cache must order codes exactly like the decoded strings, with
  // stable tie-breaking over the payload column preserved.
  auto tables = DictPropertyTables(77, 10000, 35);
  for (bool ascending : {true, false}) {
    auto from_strings =
        SortTable(tables.plain, {{"k", ascending}}).ValueOrDie();
    auto from_codes = SortTable(tables.dict, {{"k", ascending}}).ValueOrDie();
    test::ExpectTablesEqual(from_strings, from_codes);
  }
  auto multi_strings =
      SortTable(tables.plain, {{"k", true}, {"v", false}}).ValueOrDie();
  auto multi_codes =
      SortTable(tables.dict, {{"k", true}, {"v", false}}).ValueOrDie();
  test::ExpectTablesEqual(multi_strings, multi_codes);
}

}  // namespace
}  // namespace bento::kern
