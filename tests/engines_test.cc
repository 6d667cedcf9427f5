#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstdio>

#include "engines/lazy_engine.h"
#include "engines/polars.h"
#include "engines/spark.h"
#include "engines/streaming_ops.h"
#include "frame/engine.h"
#include "io/csv.h"
#include "kernels/dedup.h"
#include "kernels/groupby.h"
#include "kernels/pivot.h"
#include "tests/test_util.h"
#include "util/random.h"

namespace bento::eng {
namespace {

using col::Scalar;
using col::TablePtr;
using col::TypeId;
using frame::Op;
using test::F64;
using test::I64;
using test::MakeTable;
using test::Str;

TablePtr SampleTable() {
  return MakeTable({
      {"k", I64({2, 1, 2, 3, 1})},
      {"v", F64({1.0, 2.0, 0.0, 4.0, 5.0}, {true, true, false, true, true})},
      {"s", Str({"Aa", "Bb", "Aa", "Cc", "Dd"})},
  });
}

/// The ops every engine must execute identically (shared kernels).
std::vector<Op> CommonPlan() {
  return {
      Op::Query("k >= 1"),
      Op::ApplyExpr("v2", "fillna(v, 0.0) * 2"),
      Op::StrLower("s"),
      Op::FillNa("v", Scalar::Double(-1.0)),
      Op::SortValues({{"k", true}, {"s", true}}),
      Op::Round("v2", 1),
      Op::Replace("s", Scalar::Str("aa"), Scalar::Str("ZZ")),
  };
}

TEST(RegistryTest, AllEnginesConstruct) {
  for (const std::string& id : frame::EngineIds()) {
    auto engine = frame::CreateEngine(id);
    ASSERT_TRUE(engine.ok()) << id;
    EXPECT_EQ(engine.ValueOrDie()->info().id, id);
  }
  EXPECT_FALSE(frame::CreateEngine("no_such_engine").ok());
}

TEST(RegistryTest, TableIFeatureBits) {
  auto get = [](const std::string& id) {
    return frame::CreateEngine(id).ValueOrDie()->info();
  };
  EXPECT_FALSE(get("pandas").multithreading);
  EXPECT_TRUE(get("polars").multithreading);
  EXPECT_TRUE(get("polars").lazy_evaluation);
  EXPECT_FALSE(get("cudf").lazy_evaluation);
  EXPECT_TRUE(get("cudf").gpu_acceleration);
  EXPECT_TRUE(get("spark_sql").cluster_deploy);
  EXPECT_FALSE(get("vaex").lazy_evaluation);  // only virtual columns
  EXPECT_EQ(get("datatable").paper_name, "DataTable");
}

TEST(CrossEngineTest, AllEnginesAgreeOnCommonPlan) {
  // The central equivalence property: every engine model must produce the
  // same dataframe for the same preparator sequence.
  TablePtr reference;
  for (const std::string& id : frame::EngineIds()) {
    SCOPED_TRACE(id);
    auto engine = frame::CreateEngine(id).ValueOrDie();
    auto frame = engine->FromTable(SampleTable()).ValueOrDie();
    for (const Op& op : CommonPlan()) {
      ASSERT_OK_AND_ASSIGN(frame, frame->Apply(op));
    }
    ASSERT_OK_AND_ASSIGN(auto result, frame->Collect());
    if (id == "spark_pd") {
      // SparkPD materializes its index column; strip it for comparison.
      ASSERT_OK_AND_ASSIGN(result, result->DropColumns({"__index__"}));
    }
    if (reference == nullptr) {
      reference = result;
    } else {
      test::ExpectTablesEqual(reference, result);
    }
  }
}

TEST(CrossEngineTest, ActionsAgree) {
  for (const std::string& id : frame::EngineIds()) {
    SCOPED_TRACE(id);
    auto engine = frame::CreateEngine(id).ValueOrDie();
    auto frame = engine->FromTable(SampleTable()).ValueOrDie();
    ASSERT_OK_AND_ASSIGN(auto isna, frame->RunAction(Op::IsNa()));
    std::vector<int64_t> expected = {0, 1, 0};
    if (id == "spark_pd") expected.push_back(0);  // index column
    EXPECT_EQ(isna.counts, expected);
    ASSERT_OK_AND_ASSIGN(auto search,
                         frame->RunAction(Op::SearchPattern("s", "A")));
    EXPECT_EQ(search.count, 2);
  }
}

TEST(CrossEngineTest, GroupByAgreesUpToOrder) {
  Op group = Op::GroupByAgg({"k"}, {{"v", kern::AggKind::kSum, "s"},
                                    {"v", kern::AggKind::kCount, "n"}});
  TablePtr reference;
  for (const std::string& id : frame::EngineIds()) {
    SCOPED_TRACE(id);
    auto engine = frame::CreateEngine(id).ValueOrDie();
    auto frame = engine->FromTable(SampleTable()).ValueOrDie();
    ASSERT_OK_AND_ASSIGN(frame, frame->Apply(group));
    ASSERT_OK_AND_ASSIGN(auto result, frame->Collect());
    if (reference == nullptr) {
      reference = result;
    } else {
      test::ExpectTablesEquivalent(reference, result, {"k"});
    }
  }
}

// A flat 30 000-term chain used to parse into a tree deep enough to overflow
// the stack when evaluated; eager and lazy engines must reject it instead.
TEST(CrossEngineTest, FlatExpressionChainIsInvalidNotACrash) {
  std::string chain = "k";
  for (int i = 1; i < 30000; ++i) chain += " + k";
  for (const char* id : {"pandas", "polars"}) {
    auto engine = frame::CreateEngine(id).ValueOrDie();
    for (const Op& op :
         {Op::Query(chain + " > 0"), Op::ApplyExpr("w", chain)}) {
      SCOPED_TRACE(std::string(id) + " " + frame::OpKindName(op.kind));
      auto frame = engine->FromTable(SampleTable()).ValueOrDie();
      auto applied = frame->Apply(op);
      const Status status = applied.ok()
                                ? applied.ValueOrDie()->Collect().status()
                                : applied.status();
      EXPECT_TRUE(status.IsInvalid()) << status.ToString();
    }
  }
}

TEST(LazyEngineTest, LazyEqualsEager) {
  for (auto [lazy_id, eager_id] :
       {std::pair<std::string, std::string>{"polars", "polars_eager"},
        {"spark_sql", "spark_sql_eager"}}) {
    SCOPED_TRACE(lazy_id);
    auto lazy = frame::CreateEngine(lazy_id).ValueOrDie();
    auto eager = frame::CreateEngine(eager_id).ValueOrDie();
    auto lf = lazy->FromTable(SampleTable()).ValueOrDie();
    auto ef = eager->FromTable(SampleTable()).ValueOrDie();
    for (const Op& op : CommonPlan()) {
      ASSERT_OK_AND_ASSIGN(lf, lf->Apply(op));
      ASSERT_OK_AND_ASSIGN(ef, ef->Apply(op));
    }
    ASSERT_OK_AND_ASSIGN(auto lt, lf->Collect());
    ASSERT_OK_AND_ASSIGN(auto et, ef->Collect());
    test::ExpectTablesEqual(lt, et);
  }
}

TEST(LazyEngineTest, PredicatePushdownPreservesSemantics) {
  PolarsEngine engine;
  std::vector<Op> plan = {
      Op::StrLower("s"),
      Op::Round("v", 1),
      Op::Query("k > 1"),  // should bubble ahead of both
  };
  auto optimized = engine.Optimize(plan);
  EXPECT_EQ(optimized[0].kind, frame::OpKind::kQuery);

  // And the result matches the unoptimized execution.
  LazySource source;
  source.kind = LazySource::Kind::kTable;
  source.table = SampleTable();
  auto with = engine.Execute(source, plan).ValueOrDie();
  PolarsEngine no_pushdown;  // execute the pre-optimized plan directly
  auto frame = no_pushdown.FromTable(SampleTable()).ValueOrDie();
  for (const Op& op : plan) frame = frame->Apply(op).ValueOrDie();
  auto without = frame->Collect().ValueOrDie();
  test::ExpectTablesEqual(without, with);
}

TEST(LazyEngineTest, PushdownBlockedByDependency) {
  PolarsEngine engine;
  std::vector<Op> plan = {
      Op::ApplyExpr("w", "v * 2"),
      Op::Query("w > 1"),  // depends on w: must NOT hop over its definition
  };
  auto optimized = engine.Optimize(plan);
  EXPECT_EQ(optimized[0].kind, frame::OpKind::kApplyExpr);
  EXPECT_EQ(optimized[1].kind, frame::OpKind::kQuery);
}

TEST(LazyEngineTest, ProjectionPushdownMovesDrops) {
  PolarsEngine engine;
  std::vector<Op> plan = {
      Op::Round("v", 2),
      Op::DropColumns({"s"}),  // s untouched by round: hops to front
  };
  auto optimized = engine.Optimize(plan);
  EXPECT_EQ(optimized[0].kind, frame::OpKind::kDropColumns);
}

TEST(LazyEngineTest, IsStreamableClassification) {
  // One op per kind in enum order, then the field-dependent edge cases.
  const kern::RowFn row_fn = [](const col::Table&, int64_t) {
    return Result<Scalar>(Scalar::Double(1.0));
  };
  const std::vector<std::pair<Op, bool>> cases = {
      {Op::IsNa(), false},
      {Op::LocateOutliers("v"), false},
      {Op::SearchPattern("s", "A"), false},
      {Op::SortValues({{"k", true}}), false},
      {Op::GetColumns(), false},
      {Op::GetDtypes(), false},
      {Op::Describe(), false},
      {Op::Query("a > 1"), true},
      {Op::Cast("k", TypeId::kFloat64), true},
      {Op::DropColumns({"s"}), true},
      {Op::Rename({{"s", "t"}}), true},
      {Op::Pivot("k", "s", "v"), false},
      {Op::ApplyExpr("w", "v * 2"), true},
      {Op::Merge(nullptr, "k", "k"), false},
      {Op::GetDummies("s"), false},
      {Op::CatCodes("s"), false},
      {Op::GroupByAgg({"k"}, {{"v", kern::AggKind::kSum, "v_sum"}}), false},
      {Op::ToDatetime("s"), true},
      {Op::DropNa({"v"}), true},
      {Op::StrLower("s"), true},
      {Op::Round("v", 1), true},
      {Op::DropDuplicates({"k"}), false},
      {Op::FillNa("v", Scalar::Double(0)), true},
      {Op::Replace("s", Scalar::Str("Aa"), Scalar::Str("Zz")), true},
      {Op::ApplyRow("r", row_fn, TypeId::kFloat64), true},
      // Edge cases: fillna with the mean needs a full pass first; empty
      // subsets and drop lists change no class; nor does a bad expression.
      {Op::FillNaMean("v"), false},
      {Op::DropNa(), true},
      {Op::DropDuplicates(), false},
      {Op::DropColumns({}), true},
      {Op::ApplyExpr("w", "v *"), true},
      {Op::Query("a >"), true},
  };
  for (size_t k = 0; k < 25; ++k) {
    EXPECT_EQ(static_cast<size_t>(cases[k].first.kind), k);
  }
  for (const auto& [op, streamable] : cases) {
    EXPECT_EQ(IsStreamable(op), streamable) << frame::OpKindName(op.kind);
  }
}

// --- streaming operators vs in-memory kernels ---

TablePtr RandomTable(int64_t rows, uint64_t seed) {
  Rng rng(seed);
  col::Int64Builder k;
  col::Float64Builder v;
  col::StringBuilder s;
  for (int64_t i = 0; i < rows; ++i) {
    k.Append(rng.UniformInt(0, 40));
    v.AppendMaybe(rng.UniformDouble(0, 100), !rng.Bernoulli(0.1));
    s.Append(std::string(1, static_cast<char>('a' + rng.Uniform(6))));
  }
  return MakeTable({{"k", k.Finish().ValueOrDie()},
                    {"v", v.Finish().ValueOrDie()},
                    {"s", s.Finish().ValueOrDie()}});
}

TEST(StreamingOpsTest, GroupByMatchesKernel) {
  auto t = RandomTable(5000, 3);
  std::vector<kern::AggSpec> aggs = {{"v", kern::AggKind::kSum, "sum"},
                                     {"v", kern::AggKind::kMean, "mean"},
                                     {"v", kern::AggKind::kStd, "std"},
                                     {"v", kern::AggKind::kCount, "n"},
                                     {"v", kern::AggKind::kMin, "lo"},
                                     {"v", kern::AggKind::kMax, "hi"}};
  auto expected = kern::GroupBy(t, {"k"}, aggs).ValueOrDie();
  TableChunkStream stream(t, 257);
  auto streaming = StreamingGroupBy(&stream, {"k"}, aggs, {}).ValueOrDie();
  // Same groups in the same order, and every float bit for bit.
  test::ExpectTablesEqual(expected, streaming);
}

/// Runs ExternalSortToFile over `stream` and reads the sorted file back.
TablePtr ExternalSortReadBack(ChunkStream* stream,
                              const std::vector<kern::SortKey>& keys,
                              int64_t run_rows) {
  auto path = ExternalSortToFile(stream, keys, {}, run_rows).ValueOrDie();
  auto sorted = io::BcfReader::Open(path).ValueOrDie()->ReadAll().ValueOrDie();
  std::remove(path.c_str());
  return sorted;
}

TEST(StreamingOpsTest, ExternalSortMatchesKernel) {
  auto t = RandomTable(3000, 11);
  std::vector<kern::SortKey> keys = {{"k", true}, {"v", false}};
  auto expected = kern::SortTable(t, keys).ValueOrDie();
  TableChunkStream stream(t, 200);
  test::ExpectTablesEqual(expected,
                          ExternalSortReadBack(&stream, keys, /*run_rows=*/512));
}

TEST(StreamingOpsTest, ExternalSortSingleRun) {
  auto t = RandomTable(100, 12);
  std::vector<kern::SortKey> keys = {{"v", true}};
  auto expected = kern::SortTable(t, keys).ValueOrDie();
  TableChunkStream stream(t, 50);
  test::ExpectTablesEqual(
      expected, ExternalSortReadBack(&stream, keys, /*run_rows=*/100000));
}

TEST(StreamingOpsTest, DedupMatchesKernel) {
  auto t = RandomTable(2000, 17);
  auto expected = kern::DropDuplicates(t, {"k", "s"}).ValueOrDie();
  TableChunkStream stream(t, 111);
  auto streaming = StreamingDedup(&stream, {"k", "s"}).ValueOrDie();
  EXPECT_EQ(expected->num_rows(), streaming->num_rows());
  test::ExpectTablesEqual(expected, streaming);
}

TEST(StreamingOpsTest, PivotMatchesKernel) {
  auto t = RandomTable(2000, 23);
  auto expected =
      kern::PivotTable(t, "k", "s", "v", kern::AggKind::kMean).ValueOrDie();
  TableChunkStream stream(t, 173);
  Op op = Op::Pivot("k", "s", "v", kern::AggKind::kMean);
  auto streaming = StreamingPivot(&stream, op, {}).ValueOrDie();
  // Same rows, columns, names and bits.
  test::ExpectTablesEqual(expected, streaming);
}

// --- device engine behaviour ---

TEST(CudfEngineTest, DeviceMemoryWall) {
  // A machine whose VRAM cannot hold the frame: ingest must OoM.
  sim::MachineSpec spec = sim::MachineSpec::Server();
  sim::GpuSpec gpu;
  gpu.vram_bytes = 64;  // absurdly small device
  spec.gpu = gpu;
  sim::Session session(spec);

  auto engine = frame::CreateEngine("cudf").ValueOrDie();
  auto result = engine->FromTable(SampleTable());
  EXPECT_TRUE(result.status().IsOutOfMemory()) << result.status().ToString();
}

TEST(CudfEngineTest, WorksWithAdequateVram) {
  sim::MachineSpec spec = sim::MachineSpec::Server();
  spec.gpu = sim::GpuSpec{};
  sim::Session session(spec);
  auto engine = frame::CreateEngine("cudf").ValueOrDie();
  auto frame = engine->FromTable(SampleTable()).ValueOrDie();
  ASSERT_OK_AND_ASSIGN(frame, frame->Apply(Op::Query("k > 1")));
  ASSERT_OK_AND_ASSIGN(auto out, frame->Collect());
  EXPECT_EQ(out->num_rows(), 3);
  EXPECT_GT(session.device_pool()->bytes_allocated(), 0u);
}

// --- engine I/O paths ---

TEST(EngineIoTest, CsvRoundTripPerEngine) {
  std::string path = "/tmp/bento_engine_io_" + std::to_string(getpid()) + ".csv";
  auto t = SampleTable();
  for (const std::string& id : frame::EngineIds()) {
    SCOPED_TRACE(id);
    auto engine = frame::CreateEngine(id).ValueOrDie();
    auto frame = engine->FromTable(t).ValueOrDie();
    ASSERT_OK(engine->WriteCsv(frame, path));
    ASSERT_OK_AND_ASSIGN(auto back, engine->ReadCsv(path, {}));
    ASSERT_OK_AND_ASSIGN(auto table, back->Collect());
    if (id == "spark_pd") {
      ASSERT_OK_AND_ASSIGN(table, table->DropColumns({"__index__"}));
    }
    test::ExpectTablesEqual(t, table);
  }
  std::remove(path.c_str());
}

TEST(EngineIoTest, HeaderOnlyCsvIsATypedEmptyFramePerEngine) {
  // A CSV holding only its header is io::ReadCsv's typed zero-row frame on
  // every engine, through a filter and under an action.
  const std::string path =
      "/tmp/bento_engine_header_" + std::to_string(getpid()) + ".csv";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("a,b\n", f);
  std::fclose(f);
  ASSERT_OK_AND_ASSIGN(auto expected, io::ReadCsv(path));
  ASSERT_EQ(expected->num_rows(), 0);
  ASSERT_EQ(expected->num_columns(), 2);
  for (const std::string& id : frame::EngineIds()) {
    SCOPED_TRACE(id);
    auto engine = frame::CreateEngine(id).ValueOrDie();
    ASSERT_OK_AND_ASSIGN(auto frame, engine->ReadCsv(path, {}));
    ASSERT_OK_AND_ASSIGN(auto filtered, frame->Apply(Op::Query("a == 'x'")));
    ASSERT_OK_AND_ASSIGN(auto table, filtered->Collect());
    test::ExpectTablesEqual(expected, table);
    for (int c = 0; c < table->num_columns(); ++c) {
      EXPECT_EQ(table->schema()->field(c).type,
                expected->schema()->field(c).type);
    }
    ASSERT_OK_AND_ASSIGN(auto isna, frame->RunAction(Op::IsNa()));
    EXPECT_EQ(isna.counts, std::vector<int64_t>({0, 0}));
  }
  std::remove(path.c_str());
}

TEST(EngineIoTest, DataTableHasNoBcf) {
  std::string path = "/tmp/bento_engine_bcf_" + std::to_string(getpid()) + ".bcf";
  auto engine = frame::CreateEngine("datatable").ValueOrDie();
  auto frame = engine->FromTable(SampleTable()).ValueOrDie();
  EXPECT_TRUE(engine->WriteBcf(frame, path).IsNotImplemented());
  EXPECT_TRUE(engine->ReadBcf(path).status().IsNotImplemented());
}

TEST(EngineIoTest, BcfRoundTripForSupportingEngines) {
  std::string path = "/tmp/bento_engine_bcf2_" + std::to_string(getpid()) + ".bcf";
  auto t = SampleTable();
  for (const char* id : {"pandas", "polars", "spark_sql", "vaex", "cudf"}) {
    SCOPED_TRACE(id);
    auto engine = frame::CreateEngine(id).ValueOrDie();
    auto frame = engine->FromTable(t).ValueOrDie();
    ASSERT_OK(engine->WriteBcf(frame, path));
    ASSERT_OK_AND_ASSIGN(auto back, engine->ReadBcf(path));
    ASSERT_OK_AND_ASSIGN(auto table, back->Collect());
    test::ExpectTablesEqual(t, table);
  }
  std::remove(path.c_str());
}

TEST(VaexEngineTest, CsvConvertsToColumnarStore) {
  std::string path = "/tmp/bento_vaex_" + std::to_string(getpid()) + ".csv";
  ASSERT_OK(io::WriteCsv(SampleTable(), path));
  auto engine = frame::CreateEngine("vaex").ValueOrDie();
  ASSERT_OK_AND_ASSIGN(auto frame, engine->ReadCsv(path, {}));
  ASSERT_OK_AND_ASSIGN(auto table, frame->Collect());
  EXPECT_EQ(table->num_rows(), 5);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace bento::eng
