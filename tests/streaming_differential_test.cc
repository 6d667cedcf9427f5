#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "bento/pipeline.h"
#include "bento/runner.h"
#include "engines/lazy_engine.h"
#include "engines/polars.h"
#include "engines/spark.h"
#include "engines/streaming_ops.h"
#include "engines/vaex.h"
#include "frame/engine.h"
#include "frame/exec.h"
#include "io/bcf.h"
#include "io/csv.h"
#include "kernels/dedup.h"
#include "kernels/flat_index.h"
#include "kernels/groupby.h"
#include "kernels/join.h"
#include "kernels/pivot.h"
#include "obs/metrics.h"
#include "sim/parallel.h"
#include "tests/test_util.h"
#include "util/random.h"

// The out-of-core lock: every chunked / spilled / partitioned execution path
// must be BIT-IDENTICAL to the in-memory eager result — same rows, same
// order, same floats. The fractional column `f` makes float aggregation
// depend on the order its values are added in, so a fold that adds in any
// other order than the kernel shows up as a hard mismatch, not an epsilon.

namespace bento::eng {
namespace {

using col::TablePtr;
using frame::Op;
using kern::AggKind;
using kern::AggSpec;
using test::I64;
using test::MakeTable;
using test::Str;

/// Random table: an integer key `k`, an integer-valued float `v` and an
/// integer `n` with nulls, a low-cardinality string `s`, and a fractional
/// float `f` with nulls, whose sums differ in the last bits when added in
/// another order. `f` draws from its own generator, so the other columns
/// hold the same values as without it.
TablePtr RandomTable(int64_t rows, uint64_t seed, int64_t key_card = 23) {
  Rng rng(seed);
  Rng frac_rng(seed + 0x5eed);
  col::Int64Builder k;
  col::Float64Builder v;
  col::Int64Builder n;
  col::StringBuilder s;
  col::Float64Builder f;
  for (int64_t i = 0; i < rows; ++i) {
    k.Append(rng.UniformInt(0, key_card - 1));
    v.AppendMaybe(static_cast<double>(rng.UniformInt(0, 1000)),
                  !rng.Bernoulli(0.15));
    n.AppendMaybe(rng.UniformInt(-50, 50), !rng.Bernoulli(0.05));
    s.Append(std::string(1, static_cast<char>('a' + rng.Uniform(4))));
    f.AppendMaybe(frac_rng.UniformDouble(-1000.0, 1000.0),
                  !frac_rng.Bernoulli(0.1));
  }
  return MakeTable({{"k", k.Finish().ValueOrDie()},
                    {"v", v.Finish().ValueOrDie()},
                    {"n", n.Finish().ValueOrDie()},
                    {"s", s.Finish().ValueOrDie()},
                    {"f", f.Finish().ValueOrDie()}});
}

/// Scoped BENTO_CHUNK_ROWS override (nullptr = unset).
class ChunkRowsGuard {
 public:
  explicit ChunkRowsGuard(const char* value) {
    if (value != nullptr) {
      setenv("BENTO_CHUNK_ROWS", value, 1);
    } else {
      unsetenv("BENTO_CHUNK_ROWS");
    }
  }
  ~ChunkRowsGuard() { unsetenv("BENTO_CHUNK_ROWS"); }
};

/// Scoped BENTO_PIPELINE_WORKERS override.
class PipelineWorkersGuard {
 public:
  explicit PipelineWorkersGuard(int workers) {
    setenv("BENTO_PIPELINE_WORKERS", std::to_string(workers).c_str(), 1);
  }
  ~PipelineWorkersGuard() { unsetenv("BENTO_PIPELINE_WORKERS"); }
};

std::vector<AggSpec> TestAggs() {
  return {{"v", AggKind::kSum, "v_sum"},   {"v", AggKind::kCount, "v_cnt"},
          {"v", AggKind::kMean, "v_mean"}, {"n", AggKind::kMin, "n_min"},
          {"n", AggKind::kMax, "n_max"},   {"v", AggKind::kStd, "v_std"},
          {"f", AggKind::kSum, "f_sum"},   {"f", AggKind::kMean, "f_mean"},
          {"f", AggKind::kStd, "f_std"}};
}

/// A pipeline that crosses every streaming breaker class: filter (streamable),
/// one-hot + fillna-mean (two-pass), group-by (the in-order fold), join
/// (probe / grace), sort (external). The fractional `f` and the
/// mean-filled `v` feed sums, means and deviations, which match only when
/// every fold adds in the kernel's order.
std::vector<Op> BreakersPlan(const std::shared_ptr<frame::DataFrame>& labels) {
  std::vector<AggSpec> aggs = {
      {"n", AggKind::kSum, "n_sum"},  {"n", AggKind::kMean, "n_mean"},
      {"n", AggKind::kStd, "n_std"},  {"v", AggKind::kMin, "v_min"},
      {"v", AggKind::kMax, "v_max"},  {"v", AggKind::kCount, "v_cnt"},
      {"v", AggKind::kSum, "v_sum"},  {"f", AggKind::kSum, "f_sum"},
      {"f", AggKind::kMean, "f_mean"}, {"f", AggKind::kStd, "f_std"}};
  return {
      Op::Query("k >= 2"),
      Op::GetDummies("s"),
      Op::FillNaMean("v"),
      Op::GroupByAgg({"k"}, std::move(aggs)),
      Op::Merge(labels, "k", "k", kern::JoinType::kLeft),
      Op::SortValues({{"n_sum", false}, {"k", true}}),
  };
}

TablePtr LabelsTable() {
  std::vector<int64_t> keys;
  std::vector<std::string> labels;
  for (int64_t i = 0; i < 18; ++i) {  // keys 18..22 stay unmatched (left join)
    keys.push_back(i);
    labels.push_back("label_" + std::to_string(i));
  }
  return MakeTable({{"k", I64(keys)}, {"label", Str(labels)}});
}

/// Chunked execution under a tight budget must equal unbounded in-memory
/// execution, for every streaming engine and for chunk sizes from degenerate
/// (1 row) through larger-than-the-table (whole-table one-shot). The
/// simulated session runs the modeled 4-worker pipeline by default; the
/// pinned one-worker arm runs the serial loop with streaming breakers.
TEST(StreamingDifferentialTest, TightBudgetMatchesUnboundedAcrossChunkSizes) {
  auto t = RandomTable(2500, /*seed=*/101);

  struct NamedEngine {
    const char* name;
    std::unique_ptr<LazyEngineBase> engine;
  };
  std::vector<NamedEngine> engines;
  engines.push_back({"spark_sql", std::make_unique<SparkSqlEngine>()});
  engines.push_back({"polars", std::make_unique<PolarsEngine>()});
  engines.push_back({"vaex", std::make_unique<VaexEngine>()});

  for (auto& [name, engine] : engines) {
    SCOPED_TRACE(name);
    ASSERT_TRUE(engine->StreamsBreakers()) << name;
    auto labels = engine->FromTable(LabelsTable()).ValueOrDie();
    std::vector<Op> plan = BreakersPlan(labels);
    LazySource source;
    source.kind = LazySource::Kind::kTable;
    source.table = t;

    TablePtr unbounded = engine->Execute(source, plan).ValueOrDie();

    for (bool serial : {false, true}) {
      std::optional<PipelineWorkersGuard> workers_guard;
      if (serial) workers_guard.emplace(1);
      for (const char* chunk_rows : {"1", "7", "65536", "1073741824"}) {
        SCOPED_TRACE(std::string("serial=") + (serial ? "1" : "0") +
                     " chunk_rows=" + chunk_rows);
        ChunkRowsGuard guard(chunk_rows);
        // Tight enough that MemoryTight() engages streaming (budget < 5x
        // the source), loose enough for one widened chunk + breaker state.
        sim::MachineSpec tight{"tight", 4,
                               static_cast<uint64_t>(t->ByteSize() * 4),
                               std::nullopt};
        sim::Session session(tight);
        auto streamed = engine->Execute(source, plan);
        ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
        test::ExpectTablesEqual(unbounded, streamed.ValueOrDie());
      }
    }
  }
}

/// Scoped temp file.
struct TempFile {
  explicit TempFile(const std::string& stem = "nonfinite",
                    const std::string& suffix = ".csv")
      : path(testing::TempDir() + "bento_" + stem + "_" +
             std::to_string(::getpid()) + suffix) {}
  ~TempFile() { std::remove(path.c_str()); }
  std::string path;
};

/// Every registered engine must produce the same frame regardless of worker
/// count and chunk-size override: parallel merges and chunked scans are
/// deterministic, not just "equivalent". An in-memory table runs whole-table
/// on the lazy engines at this budget, so the same table also comes in as
/// a CSV file, whose scan streams through the chunk driver.
TEST(StreamingDifferentialTest, AllEnginesStableAcrossWorkersAndChunks) {
  auto t = RandomTable(3000, /*seed=*/202);
  TempFile csv("stable");
  ASSERT_TRUE(io::WriteCsv(t, csv.path).ok());
  std::vector<Op> plan = {
      Op::Query("k >= 1"),
      Op::GroupByAgg({"k", "s"}, TestAggs()),
      Op::SortValues({{"v_sum", false}, {"k", true}, {"s", true}}),
  };

  for (const std::string& id : frame::EngineIds()) {
    for (bool from_csv : {false, true}) {
      SCOPED_TRACE(id + (from_csv ? " csv" : " table"));
      TablePtr baseline;
      for (int cores : {1, 2, 4}) {
        for (const char* chunk_rows :
             {static_cast<const char*>(nullptr), "513"}) {
          SCOPED_TRACE(std::string("cores=") + std::to_string(cores) +
                       " chunk_rows=" +
                       (chunk_rows != nullptr ? chunk_rows : "(default)"));
          ChunkRowsGuard guard(chunk_rows);
          sim::MachineSpec machine{"m", cores, 8ULL << 30, std::nullopt};
          sim::Session session(machine);
          auto engine = frame::CreateEngine(id).ValueOrDie();
          auto frame = from_csv ? engine->ReadCsv(csv.path).ValueOrDie()
                                : engine->FromTable(t).ValueOrDie();
          for (const Op& op : plan) frame = frame->Apply(op).ValueOrDie();
          auto result = frame->Collect().ValueOrDie();
          if (baseline == nullptr) {
            baseline = result;
          } else {
            test::ExpectTablesEqual(baseline, result);
          }
        }
      }
    }
  }
}

/// A table for the whole-table arm: integer key `k`, integer-valued float
/// `v` and integer `n` with nulls, a mixed-case string `s` with nulls and a
/// date string `d` with nulls and unparsable cells.
TablePtr MixedTable(int64_t rows, uint64_t seed) {
  static const char* const kWords[] = {"Alpha", "BETA", "gamma", "DeLtA"};
  static const char* const kDates[] = {"2021-03-04", "2020/12/31",
                                       "07/15/2019 ", "not a date",
                                       "2022-01-02 03:04:05"};
  Rng rng(seed);
  col::Int64Builder k;
  col::Float64Builder v;
  col::Int64Builder n;
  col::StringBuilder s;
  col::StringBuilder d;
  for (int64_t i = 0; i < rows; ++i) {
    k.Append(rng.UniformInt(0, 22));
    v.AppendMaybe(static_cast<double>(rng.UniformInt(0, 1000)),
                  !rng.Bernoulli(0.15));
    n.AppendMaybe(rng.UniformInt(-50, 50), !rng.Bernoulli(0.1));
    s.AppendMaybe(kWords[rng.Uniform(4)], !rng.Bernoulli(0.05));
    d.AppendMaybe(kDates[rng.Uniform(5)], !rng.Bernoulli(0.05));
  }
  return MakeTable({{"k", k.Finish().ValueOrDie()},
                    {"v", v.Finish().ValueOrDie()},
                    {"n", n.Finish().ValueOrDie()},
                    {"s", s.Finish().ValueOrDie()},
                    {"d", d.Finish().ValueOrDie()}});
}

/// An in-memory table runs whole-table unless the breakers stream. Without
/// a budget the streaming engines stream no chunk through a stage map; under
/// a budget of 4x the table they do, and the pivot streams. Both runs equal
/// the plain frame::ExecTransform chain, column names included, in
/// simulated and real sessions at 1 and 4 workers.
TEST(StreamingDifferentialTest, InMemoryTableRunsWholeTableUnlessBreakersStream) {
  auto t = MixedTable(6000, /*seed=*/111);
  const std::vector<std::vector<Op>> plans = {
      {Op::Query("k >= 2"), Op::Cast("n", col::TypeId::kFloat64),
       Op::GetDummies("s")},
      {Op::DropNa({"v"}), Op::ToDatetime("d"), Op::StrLower("s"),
       Op::FillNaMean("n")},
      {Op::Query("k >= 2"), Op::Pivot("k", "s", "v", AggKind::kMean)},
  };
  LazySource source;
  source.kind = LazySource::Kind::kTable;
  source.table = t;
  obs::Counter* chunks =
      obs::MetricsRegistry::Global().counter("lazy.stream_chunks");

  for (size_t p = 0; p < plans.size(); ++p) {
    TablePtr expected = t;
    for (const Op& op : plans[p]) {
      expected = frame::ExecTransform(expected, op, {}).ValueOrDie();
    }
    for (const char* engine_id : {"polars", "spark_sql", "vaex"}) {
      auto created = frame::CreateEngine(engine_id).ValueOrDie();
      auto* engine = dynamic_cast<LazyEngineBase*>(created.get());
      ASSERT_NE(engine, nullptr);
      for (int workers : {1, 4}) {
        PipelineWorkersGuard workers_guard(workers);
        ChunkRowsGuard chunk_guard("257");
        for (bool real : {false, true}) {
          for (bool tight : {false, true}) {
            SCOPED_TRACE(std::string(engine_id) + " plan " +
                         std::to_string(p) + " workers=" +
                         std::to_string(workers) +
                         (real ? " real" : " simulated") +
                         (tight ? " tight" : " unbounded"));
            sim::MachineSpec machine{
                "m", workers,
                tight ? static_cast<uint64_t>(t->ByteSize() * 4) : 0,
                std::nullopt};
            sim::Session session(machine);
            if (real) session.set_execution_mode(sim::ExecutionMode::kReal);
            const uint64_t before = chunks->value();
            auto got = engine->Execute(source, plans[p]);
            ASSERT_TRUE(got.ok()) << got.status().ToString();
            if (tight) {
              EXPECT_GT(chunks->value(), before);
            } else {
              EXPECT_EQ(chunks->value(), before);
            }
            EXPECT_TRUE(*expected->schema() == *got.ValueOrDie()->schema());
            test::ExpectTablesEqual(expected, got.ValueOrDie());
          }
        }
      }
    }
  }
}

/// Vaex's whole-table run charges the modeled per-chunk overhead of the
/// chunk stage it replaced: the same virtual seconds as the streamed run of
/// the same table, one charge per chunk the table spans. Real sessions take
/// no modeled credit, so the credit is exactly the charge.
TEST(StreamingDifferentialTest, VaexWholeTableChargesTheChunkStageOverhead) {
  auto t = RandomTable(3000, /*seed=*/404);
  VaexEngine vaex;
  ChunkRowsGuard chunk_guard("257");
  const std::vector<Op> plan = {Op::Query("k >= 1"), Op::StrLower("s")};
  LazySource source;
  source.kind = LazySource::Kind::kTable;
  source.table = t;
  obs::Counter* chunks =
      obs::MetricsRegistry::Global().counter("lazy.stream_chunks");
  auto charged = [&](uint64_t budget, uint64_t* streamed) {
    sim::Session session(sim::MachineSpec{"m", 4, budget, std::nullopt});
    session.set_execution_mode(sim::ExecutionMode::kReal);
    const uint64_t before = chunks->value();
    EXPECT_TRUE(vaex.Execute(source, plan).ok());
    *streamed = chunks->value() - before;
    return -session.credit_seconds();
  };
  uint64_t whole_chunks = 0;
  uint64_t stage_chunks = 0;
  const double whole = charged(0, &whole_chunks);
  const double staged =
      charged(static_cast<uint64_t>(t->ByteSize() * 4), &stage_chunks);
  EXPECT_EQ(whole_chunks, 0u);
  EXPECT_EQ(stage_chunks, 12u);  // ceil(3000 / 257)
  EXPECT_DOUBLE_EQ(whole, staged);
  EXPECT_DOUBLE_EQ(whole, 12 * vaex.PerChunkOverheadSeconds());
}

/// Forced spill must still be bit-identical to the eager kernel, for any
/// partition count: threshold 0 spills every key from the first chunk, and
/// a 16 KiB threshold engages after the first chunk, so the groups seen
/// there fold in memory and the rest fold from disk.
TEST(StreamingDifferentialTest, ForcedSpillGroupByBitIdentical) {
  auto t = RandomTable(6000, /*seed=*/303, /*key_card=*/500);
  auto aggs = TestAggs();
  auto eager = kern::GroupBy(t, {"k"}, aggs).ValueOrDie();
  frame::ExecPolicy policy;

  static obs::Counter* engaged =
      obs::MetricsRegistry::Global().counter("groupby.spill_engaged");
  for (int64_t threshold : {int64_t{0}, int64_t{16} << 10}) {
    for (int partitions : {1, 3, 16}) {
      SCOPED_TRACE("threshold=" + std::to_string(threshold) +
                   " partitions=" + std::to_string(partitions));
      const uint64_t engaged_before = engaged->value();
      StreamingGroupByOptions options;
      options.spill_partitions = partitions;
      options.spill_threshold_bytes = threshold;
      TableChunkStream spilled_in(t, 257);
      auto spilled = StreamingGroupBy(&spilled_in, {"k"}, aggs, policy, options)
                         .ValueOrDie();
      EXPECT_GT(engaged->value(), engaged_before);
      test::ExpectTablesEqual(eager, spilled);

      // And the default (never-spill without a session budget) path agrees.
      TableChunkStream memory_in(t, 257);
      auto in_memory =
          StreamingGroupBy(&memory_in, {"k"}, aggs, policy).ValueOrDie();
      test::ExpectTablesEqual(eager, in_memory);
    }
  }
}

/// Grace join must reproduce HashJoin exactly: same rows, same order, same
/// right-side nulls — across partition counts, chunk sizes, join types, null
/// keys, and empty inputs.
TEST(StreamingDifferentialTest, GraceJoinMatchesHashJoin) {
  Rng rng(404);
  col::Int64Builder pk;
  col::Float64Builder pv;
  for (int64_t i = 0; i < 3000; ++i) {
    pk.AppendMaybe(rng.UniformInt(0, 40), !rng.Bernoulli(0.1));
    pv.Append(static_cast<double>(rng.UniformInt(0, 100)));
  }
  auto probe = MakeTable(
      {{"k", pk.Finish().ValueOrDie()}, {"pv", pv.Finish().ValueOrDie()}});

  std::vector<int64_t> bk;
  std::vector<std::string> bl;
  for (int64_t i = 0; i < 30; ++i) {  // keys 30..40 unmatched
    bk.push_back(i);
    bl.push_back("b" + std::to_string(i));
  }
  auto build = MakeTable({{"k", I64(bk)}, {"label", Str(bl)}});

  for (kern::JoinType type : {kern::JoinType::kInner, kern::JoinType::kLeft}) {
    kern::JoinOptions options;
    options.type = type;
    auto expected = kern::HashJoin(probe, build, "k", "k", options).ValueOrDie();
    for (int partitions : {1, 2, 7}) {
      for (int64_t chunk : {int64_t{1}, int64_t{311}, int64_t{1} << 30}) {
        SCOPED_TRACE("type=" + std::to_string(static_cast<int>(type)) +
                     " partitions=" + std::to_string(partitions) +
                     " chunk=" + std::to_string(chunk));
        TableChunkStream stream(probe, chunk);
        auto grace =
            GraceHashJoin(&stream, build, "k", "k", options, partitions)
                .ValueOrDie();
        test::ExpectTablesEqual(expected, grace);
      }
    }
  }

  // Empty probe and empty build keep HashJoin's schema semantics.
  auto empty_probe = probe->Slice(0, 0).ValueOrDie();
  auto empty_build = build->Slice(0, 0).ValueOrDie();
  kern::JoinOptions inner;
  inner.type = kern::JoinType::kInner;
  {
    TableChunkStream stream(empty_probe, 64);
    auto grace = GraceHashJoin(&stream, build, "k", "k", inner, 4).ValueOrDie();
    auto expected =
        kern::HashJoin(empty_probe, build, "k", "k", inner).ValueOrDie();
    test::ExpectTablesEqual(expected, grace);
  }
  {
    TableChunkStream stream(probe, 64);
    auto grace =
        GraceHashJoin(&stream, empty_build, "k", "k", inner, 4).ValueOrDie();
    auto expected =
        kern::HashJoin(probe, empty_build, "k", "k", inner).ValueOrDie();
    test::ExpectTablesEqual(expected, grace);
  }
}

/// End-to-end through the engine: a budget too small for the group state
/// forces the group-by to spill, the plan still completes, and the frame
/// matches the unbounded run.
TEST(StreamingDifferentialTest, EngineGroupBySpillsUnderTinyBudgetAndMatches) {
  auto t = RandomTable(20000, /*seed=*/505, /*key_card=*/4000);
  SparkSqlEngine engine;
  LazySource source;
  source.kind = LazySource::Kind::kTable;
  source.table = t;
  std::vector<Op> plan = {Op::GroupByAgg({"k"}, TestAggs())};

  TablePtr unbounded = engine.Execute(source, plan).ValueOrDie();

  static obs::Counter* engaged =
      obs::MetricsRegistry::Global().counter("groupby.spill_engaged");
  const uint64_t engaged_before = engaged->value();
  sim::MachineSpec tight{"tight", 4,
                         static_cast<uint64_t>(t->ByteSize() * 2),
                         std::nullopt};
  sim::Session session(tight);
  auto streamed = engine.Execute(source, plan);
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
  EXPECT_GT(engaged->value(), engaged_before)
      << "budget/8 should be below the 4000-group state";
  test::ExpectTablesEqual(unbounded, streamed.ValueOrDie());
}

/// The fold's group states are plain heap, not pool buffers, so the fold
/// charges them to the session pool: a stream of distinct keys peaks at
/// least at its aggregation states, and the group-by returns the charge.
TEST(StreamingDifferentialTest, GroupByFoldStateChargesThePool) {
  auto t = RandomTable(20000, /*seed=*/707, /*key_card=*/int64_t{1} << 40);
  auto aggs = TestAggs();
  sim::Session session(sim::MachineSpec{"m", 4, 8ULL << 30, std::nullopt});
  sim::MemoryPool* pool = session.host_pool();
  const uint64_t before = pool->bytes_allocated();
  pool->ResetPeak();
  int64_t groups = 0;
  {
    TableChunkStream in(t, 1000);
    auto grouped = StreamingGroupBy(&in, {"k"}, aggs, frame::ExecPolicy())
                       .ValueOrDie();
    groups = grouped->num_rows();
  }
  ASSERT_GT(groups, 19000);  // nearly every key is distinct
  EXPECT_GE(pool->peak_bytes() - before,
            static_cast<uint64_t>(groups) * aggs.size() *
                sizeof(kern::AggState));
  EXPECT_EQ(pool->bytes_allocated(), before);
}

/// With every row spilled, each spill partition folds one frame at a time,
/// so a key-clustered stream never holds a partition's rows at once: the
/// peak stays far below the spilled bytes (key, value, hash and stream
/// position: 32 bytes a row), and the result is still the kernel's.
TEST(StreamingDifferentialTest, SpilledGroupByFoldsOneFrameAtATime) {
  constexpr int64_t kRows = 60000;
  Rng rng(808);
  std::vector<int64_t> keys;
  std::vector<double> values;
  for (int64_t i = 0; i < kRows; ++i) {
    keys.push_back(i / 100);  // 600 keys, each in one run of rows
    values.push_back(rng.UniformDouble(-1000.0, 1000.0));
  }
  auto t = MakeTable({{"k", I64(keys)}, {"f", test::F64(values)}});
  const std::vector<AggSpec> aggs = {{"f", AggKind::kSum, "f_sum"},
                                     {"f", AggKind::kStd, "f_std"}};
  auto eager = kern::GroupBy(t, {"k"}, aggs).ValueOrDie();

  sim::Session session(sim::MachineSpec{"m", 4, 8ULL << 30, std::nullopt});
  sim::MemoryPool* pool = session.host_pool();
  const uint64_t before = pool->bytes_allocated();
  pool->ResetPeak();
  StreamingGroupByOptions options;
  options.spill_threshold_bytes = 0;
  options.spill_partitions = 1;
  TableChunkStream in(t, 1000);
  auto spilled =
      StreamingGroupBy(&in, {"k"}, aggs, frame::ExecPolicy(), options)
          .ValueOrDie();
  test::ExpectTablesEqual(eager, spilled);
  EXPECT_LT(pool->peak_bytes() - before, static_cast<uint64_t>(kRows) * 32 / 4);
}

/// The pipelined group-by fold must be bit-identical to the eager kernel for
/// ANY worker count — including under forced hash collisions (every group in
/// one bucket chain) and forced spill (every key's rows hash-partitioned to
/// disk from the first chunk). Workers only run the per-chunk key hash; the
/// fold stays serial in claim order.
TEST(StreamingDifferentialTest, GroupByWorkerSweepBitIdentical) {
  auto t = RandomTable(5000, /*seed=*/606, /*key_card=*/200);
  auto aggs = TestAggs();
  frame::ExecPolicy policy;

  for (bool collisions : {false, true}) {
    std::optional<kern::ScopedForcedHashCollisions> forced;
    if (collisions) forced.emplace();
    auto eager = kern::GroupBy(t, {"k"}, aggs).ValueOrDie();
    for (bool spill : {false, true}) {
      for (int workers : {1, 2, 4, 8}) {
        SCOPED_TRACE("collisions=" + std::to_string(collisions) +
                     " spill=" + std::to_string(spill) +
                     " workers=" + std::to_string(workers));
        StreamingGroupByOptions options;
        options.pipeline.workers = workers;
        if (spill) options.spill_threshold_bytes = 0;
        int64_t claimed = 0;
        options.chunks_claimed = &claimed;
        TableChunkStream in(t, 311);
        auto result =
            StreamingGroupBy(&in, {"k"}, aggs, policy, options).ValueOrDie();
        test::ExpectTablesEqual(eager, result);
        EXPECT_EQ(claimed, (5000 + 310) / 311);
      }
    }
  }
}

/// The streaming pivot is the streaming group-by plus an in-memory pivot of
/// one value per cell, so every cell — fractional sums, means and
/// deviations included — equals kern::PivotTable's bit for bit, under the
/// kernel's column names, at chunk sizes from one row to the whole table,
/// at 1 to 8 workers, under forced collisions and under forced spill.
TEST(StreamingDifferentialTest, PivotMatchesKernelBitForBit) {
  // Two edge cells after the random rows: (40, a) holds only nulls, which
  // the kernel leaves null under every aggregation, count included, and
  // (41, b) holds only -0.0.
  auto edge = MakeTable({{"k", I64({40, 40, 41})},
                         {"v", test::F64({0.0, 0.0, 0.0})},
                         {"n", I64({0, 0, 0})},
                         {"s", Str({"a", "a", "b"})},
                         {"f", test::F64({1.0, 2.0, -0.0},
                                         {false, false, true})}});
  auto t = col::ConcatTables({RandomTable(1500, /*seed=*/313, /*key_card=*/40),
                              edge})
               .ValueOrDie();
  frame::ExecPolicy policy;
  struct Arm {
    int64_t chunk;
    int workers;
    bool collisions;
    int64_t spill_threshold;  // -1: never
    int partitions;
  };
  std::vector<Arm> arms;
  for (int64_t chunk :
       {int64_t{1}, int64_t{7}, int64_t{64}, int64_t{1} << 30}) {
    for (int workers : {1, 2, 4, 8}) {
      arms.push_back({chunk, workers, false, -1, 16});
    }
  }
  for (bool collisions : {false, true}) {
    for (int partitions : {1, 3, 16}) {
      for (int64_t threshold : {int64_t{0}, int64_t{4} << 10}) {
        arms.push_back({64, 4, collisions, threshold, partitions});
      }
    }
  }
  for (AggKind agg : {AggKind::kSum, AggKind::kMean, AggKind::kStd,
                      AggKind::kMin, AggKind::kMax, AggKind::kCount}) {
    const Op op = Op::Pivot("k", "s", "f", agg);
    for (const Arm& arm : arms) {
      SCOPED_TRACE(std::string(kern::AggName(agg)) +
                   " chunk=" + std::to_string(arm.chunk) +
                   " workers=" + std::to_string(arm.workers) +
                   " collisions=" + std::to_string(arm.collisions) +
                   " threshold=" + std::to_string(arm.spill_threshold) +
                   " partitions=" + std::to_string(arm.partitions));
      std::optional<kern::ScopedForcedHashCollisions> forced;
      if (arm.collisions) forced.emplace();
      auto expected = kern::PivotTable(t, "k", "s", "f", agg).ValueOrDie();
      StreamingGroupByOptions options;
      options.pipeline.workers = arm.workers;
      options.spill_threshold_bytes = arm.spill_threshold;
      options.spill_partitions = arm.partitions;
      TableChunkStream in(t, arm.chunk);
      auto streamed = StreamingPivot(&in, op, policy, options);
      ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
      test::ExpectTablesEqual(expected, streamed.ValueOrDie());
    }
  }
}

/// FillNaMean's streamed mean and the kernel's are one fold: the valid cells
/// added one by one in row order, NaN skipped. A fractional column with
/// nulls and NaN cells, streamed through the two-pass fill under a tight
/// budget at chunk sizes 1, 7 and 64, fills exactly what frame::ExecTransform
/// fills in memory.
TEST(StreamingDifferentialTest, FillNaMeanMatchesInMemoryWithNaN) {
  Rng rng(515);
  col::Int64Builder k;
  col::Float64Builder f;
  for (int64_t i = 0; i < 3000; ++i) {
    k.Append(rng.UniformInt(0, 22));
    const bool nan = rng.Bernoulli(0.05);
    f.AppendMaybe(nan ? std::nan("") : rng.UniformDouble(-100.0, 100.0),
                  !rng.Bernoulli(0.2));
  }
  auto t = MakeTable(
      {{"k", k.Finish().ValueOrDie()}, {"f", f.Finish().ValueOrDie()}});
  const std::vector<Op> plan = {Op::Query("k >= 2"), Op::FillNaMean("f")};
  TablePtr expected = t;
  for (const Op& op : plan) {
    expected = frame::ExecTransform(expected, op, {}).ValueOrDie();
  }
  LazySource source;
  source.kind = LazySource::Kind::kTable;
  source.table = t;
  for (const char* engine_id : {"spark_sql", "polars", "vaex"}) {
    auto created = frame::CreateEngine(engine_id).ValueOrDie();
    auto* engine = dynamic_cast<LazyEngineBase*>(created.get());
    ASSERT_NE(engine, nullptr);
    for (const char* chunk_rows : {"1", "7", "64"}) {
      SCOPED_TRACE(std::string(engine_id) + " chunk_rows=" + chunk_rows);
      ChunkRowsGuard guard(chunk_rows);
      sim::Session session(sim::MachineSpec{
          "tight", 4, static_cast<uint64_t>(t->ByteSize() * 4), std::nullopt});
      auto streamed = engine->Execute(source, plan);
      ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
      test::ExpectTablesEqual(expected, streamed.ValueOrDie());
    }
  }
}

/// Same contract for the pipelined dedup, checked against the kernel
/// reference: hashing fans out across workers, the first-seen filter stays
/// serial, and the kept rows equal kern::DropDuplicates for any worker count
/// and chunking — also when every row hashes alike, where only the row
/// equality check tells distinct rows apart.
TEST(StreamingDifferentialTest, DedupWorkerSweepBitIdentical) {
  auto t = RandomTable(4000, /*seed=*/707, /*key_card=*/37);
  for (bool collisions : {false, true}) {
    std::optional<kern::ScopedForcedHashCollisions> forced;
    if (collisions) forced.emplace();
    auto expected = kern::DropDuplicates(t, {"k", "s"}).ValueOrDie();
    ASSERT_EQ(expected->num_rows(), 148);
    for (int workers : {1, 2, 4, 8}) {
      for (int64_t chunk : {int64_t{64}, int64_t{509}, int64_t{1} << 30}) {
        SCOPED_TRACE("collisions=" + std::to_string(collisions) +
                     " workers=" + std::to_string(workers) +
                     " chunk=" + std::to_string(chunk));
        StreamingDedupOptions options;
        options.pipeline.workers = workers;
        int64_t claimed = 0;
        options.chunks_claimed = &claimed;
        TableChunkStream in(t, chunk);
        auto result = StreamingDedup(&in, {"k", "s"}, options).ValueOrDie();
        test::ExpectTablesEqual(expected, result);
        EXPECT_EQ(claimed, (4000 + chunk - 1) / chunk);
      }
    }
  }
}

/// End-to-end through the engines in REAL execution mode: the full breaker
/// plan (two-pass one-hot + fillna-mean, pipelined group-by, probe join,
/// external sort) under a tight budget must produce the same frame for 1,
/// 2, 4 and 8 pipeline workers as the unbounded in-memory run — and stay
/// under the budget while doing it.
TEST(StreamingDifferentialTest, EnginePipelineWorkerSweepMatchesInMemory) {
  auto t = RandomTable(6000, /*seed=*/808);

  struct NamedEngine {
    const char* name;
    std::unique_ptr<LazyEngineBase> engine;
  };
  std::vector<NamedEngine> engines;
  engines.push_back({"spark_sql", std::make_unique<SparkSqlEngine>()});
  engines.push_back({"polars", std::make_unique<PolarsEngine>()});
  engines.push_back({"vaex", std::make_unique<VaexEngine>()});

  for (auto& [name, engine] : engines) {
    SCOPED_TRACE(name);
    auto labels = engine->FromTable(LabelsTable()).ValueOrDie();
    std::vector<Op> plan = BreakersPlan(labels);
    LazySource source;
    source.kind = LazySource::Kind::kTable;
    source.table = t;

    TablePtr unbounded = engine->Execute(source, plan).ValueOrDie();

    for (int workers : {1, 2, 4, 8}) {
      SCOPED_TRACE("workers=" + std::to_string(workers));
      PipelineWorkersGuard workers_guard(workers);
      ChunkRowsGuard chunk_guard("257");
      sim::MachineSpec tight{"tight", 4,
                             static_cast<uint64_t>(t->ByteSize() * 4),
                             std::nullopt};
      sim::Session session(tight);
      session.set_execution_mode(sim::ExecutionMode::kReal);
      auto streamed = engine->Execute(source, plan);
      ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
      test::ExpectTablesEqual(unbounded, streamed.ValueOrDie());
      EXPECT_LE(session.host_pool()->peak_bytes(),
                session.host_pool()->budget());
    }
  }
}

/// Writes a CSV whose float column `v` holds `inf`, `-inf` and `nan` cells
/// (the first one `nan`) among integer values and empty (null) cells, next
/// to a unique integer `id`, an integer key `k` and a string `s`.
void WriteNonFiniteCsv(const std::string& path, int64_t rows, uint64_t seed) {
  static const char* const kNonFinite[] = {"inf", "-inf", "nan"};
  Rng rng(seed);
  std::ofstream out(path);
  out << "id,k,v,s\n";
  for (int64_t i = 0; i < rows; ++i) {
    out << i << ',' << rng.UniformInt(0, 22) << ',';
    const uint64_t roll = rng.Uniform(20);
    if (i == 0) {
      out << "nan";
    } else if (roll == 1) {
      out << kNonFinite[rng.Uniform(3)];
    } else if (roll != 0) {
      out << rng.UniformInt(0, 1000);
    }
    out << ',' << static_cast<char>('a' + rng.Uniform(4)) << '\n';
  }
}

/// Non-finite floats must survive every file the streaming engines write
/// for themselves: Vaex's converted store, the two-pass and sort spill
/// files, and the mapped materialization under a tight budget.
TEST(StreamingDifferentialTest, VaexCsvIngestKeepsNonFiniteFloats) {
  TempFile csv;
  WriteNonFiniteCsv(csv.path, 5000, /*seed=*/909);
  auto pandas = frame::CreateEngine("pandas").ValueOrDie();
  TablePtr expected =
      pandas->ReadCsv(csv.path).ValueOrDie()->Collect().ValueOrDie();
  VaexEngine vaex;
  auto frame = vaex.ReadCsv(csv.path, {});
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  auto read = frame.ValueOrDie()->Collect();
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  test::ExpectTablesEqual(expected, read.ValueOrDie());
}

/// Under a budget of 4x the CSV, filter -> fillna-mean -> sort spills the
/// two-pass input and the sorted runs and maps the result back from a BCF
/// file; all of them carry the non-finite cells.
TEST(StreamingDifferentialTest, NonFiniteCsvTightBudgetMatchesUnbounded) {
  TempFile csv;
  WriteNonFiniteCsv(csv.path, 20000, /*seed=*/910);
  const std::vector<Op> plan = {
      Op::Query("k >= 2"),
      Op::FillNaMean("v"),
      Op::SortValues({{"k", true}, {"id", false}}),
  };
  auto run = [&](LazyEngineBase* engine) -> Result<TablePtr> {
    BENTO_ASSIGN_OR_RETURN(auto frame, engine->ReadCsv(csv.path, {}));
    for (const Op& op : plan) {
      BENTO_ASSIGN_OR_RETURN(frame, frame->Apply(op));
    }
    return frame->Collect();
  };
  const uint64_t csv_bytes = std::filesystem::file_size(csv.path);

  struct NamedEngine {
    const char* name;
    std::unique_ptr<LazyEngineBase> engine;
  };
  std::vector<NamedEngine> engines;
  engines.push_back({"spark_sql", std::make_unique<SparkSqlEngine>()});
  engines.push_back({"polars", std::make_unique<PolarsEngine>()});
  engines.push_back({"vaex", std::make_unique<VaexEngine>()});

  obs::Counter* mapped =
      obs::MetricsRegistry::Global().counter("lazy.mapped_materializations");
  obs::Counter* spill_files =
      obs::MetricsRegistry::Global().counter("spill.files");
  for (auto& [name, engine] : engines) {
    SCOPED_TRACE(name);
    auto unbounded = run(engine.get());
    ASSERT_TRUE(unbounded.ok()) << unbounded.status().ToString();

    ChunkRowsGuard chunk_guard("1024");
    const uint64_t mapped_before = mapped->value();
    const uint64_t spills_before = spill_files->value();
    sim::MachineSpec tight{"tight", 4, csv_bytes * 4, std::nullopt};
    sim::Session session(tight);
    auto streamed = run(engine.get());
    EXPECT_TRUE(streamed.ok()) << streamed.status().ToString();
    if (!streamed.ok()) continue;
    test::ExpectTablesEqual(unbounded.ValueOrDie(), streamed.ValueOrDie());
    EXPECT_GT(mapped->value(), mapped_before);
    EXPECT_GT(spill_files->value(), spills_before);
  }
}

/// An integer key `k`, an integer-valued float `v` and an integer `n` (both
/// with nulls), and a string `s` whose cells hold commas, doubled quotes, LF
/// and CRLF newlines, mixed case, the empty string and nulls.
TablePtr HazardTable(int64_t rows, uint64_t seed) {
  static const char* const kStrings[] = {"plain", "a,b",       "say \"hi\"",
                                         "two\nlines", "cr\r\nlf", "MiXeD",
                                         ""};
  Rng rng(seed);
  col::Int64Builder k;
  col::Float64Builder v;
  col::Int64Builder n;
  col::StringBuilder s;
  for (int64_t i = 0; i < rows; ++i) {
    k.Append(rng.UniformInt(0, 22));
    v.AppendMaybe(static_cast<double>(rng.UniformInt(0, 1000)),
                  !rng.Bernoulli(0.15));
    n.AppendMaybe(rng.UniformInt(-50, 50), !rng.Bernoulli(0.05));
    s.AppendMaybe(kStrings[rng.Uniform(7)], !rng.Bernoulli(0.1));
  }
  return MakeTable({{"k", k.Finish().ValueOrDie()},
                    {"v", v.Finish().ValueOrDie()},
                    {"n", n.Finish().ValueOrDie()},
                    {"s", s.Finish().ValueOrDie()}});
}

/// A streaming-only plan (the drain concatenates decoded chunks) and one
/// that ends in breakers (under a tight budget they stream from the raw
/// source stream).
std::vector<std::vector<Op>> SourcePlans() {
  return {
      {Op::Query("k >= 2"), Op::StrLower("s"), Op::Round("v", 0)},
      {Op::Query("k >= 2"), Op::StrLower("s"),
       Op::GroupByAgg({"k", "s"},
                      {{"n", AggKind::kSum, "n_sum"},
                       {"v", AggKind::kMax, "v_max"},
                       {"v", AggKind::kCount, "v_cnt"}}),
       Op::SortValues({{"n_sum", false}, {"k", true}, {"s", true}})},
  };
}

/// A CSV source streams through the cut/decode split: claims cut the text,
/// and the decodes run on the pipeline workers (real, 4 workers) or inline
/// (serial and modeled). Whatever the chunk size, worker count, execution
/// mode and budget, the result must be bit-identical to the whole-file
/// io::ReadCsv run through the in-memory kernels, for a streaming-only plan
/// (the drain concatenates decoded chunks) and for one that ends in
/// breakers (under the tight budget they stream from the raw CSV stream).
TEST(StreamingDifferentialTest, CsvSourceMatchesWholeFileReadAcrossWorkers) {
  TempFile csv("hazard");
  ASSERT_TRUE(io::WriteCsv(HazardTable(6000, /*seed=*/707), csv.path).ok());
  const uint64_t csv_bytes = std::filesystem::file_size(csv.path);
  const std::vector<std::vector<Op>> plans = SourcePlans();

  for (size_t p = 0; p < plans.size(); ++p) {
    TablePtr expected = io::ReadCsv(csv.path).ValueOrDie();
    for (const Op& op : plans[p]) {
      expected = frame::ExecTransform(expected, op, {}).ValueOrDie();
    }
    for (const char* engine_id : {"polars", "spark_sql"}) {
      auto engine = frame::CreateEngine(engine_id).ValueOrDie();
      for (int workers : {1, 4}) {
        PipelineWorkersGuard workers_guard(workers);
        for (const char* chunk_rows : {"1", "7", "2048"}) {
          ChunkRowsGuard chunk_guard(chunk_rows);
          for (bool real : {false, true}) {
            // A tight budget streams the breakers from the raw CSV stream;
            // with 1-row chunks that only adds spill work the table-source
            // sweeps above already cover, so that arm stays unbounded.
            for (bool tight : {false, true}) {
              if (tight && std::string(chunk_rows) == "1") continue;
              SCOPED_TRACE(std::string(engine_id) + " plan " +
                           std::to_string(p) + " workers=" +
                           std::to_string(workers) + " chunk_rows=" +
                           chunk_rows + (real ? " real" : " simulated") +
                           (tight ? " tight" : " unbounded"));
              sim::MachineSpec machine{"m", 4, tight ? csv_bytes * 4 : 0,
                                       std::nullopt};
              sim::Session session(machine);
              if (real) session.set_execution_mode(sim::ExecutionMode::kReal);
              auto frame = engine->ReadCsv(csv.path, {});
              ASSERT_TRUE(frame.ok()) << frame.status().ToString();
              auto df = frame.ValueOrDie();
              for (const Op& op : plans[p]) df = df->Apply(op).ValueOrDie();
              auto got = df->Collect();
              ASSERT_TRUE(got.ok()) << got.status().ToString();
              EXPECT_TRUE(*expected->schema() == *got.ValueOrDie()->schema());
              test::ExpectTablesEqual(expected, got.ValueOrDie());
            }
          }
        }
      }
    }
  }
}

/// A BCF source streams through claims that only take a row-group index;
/// the reads and decodes run on the pipeline workers (real, 4 workers) or
/// inline (serial and modeled). Whatever the engine, worker count,
/// execution mode and budget, the result must be bit-identical to
/// io::BcfReader::ReadAll run through the in-memory kernels.
TEST(StreamingDifferentialTest, BcfSourceMatchesWholeFileReadAcrossWorkers) {
  TempFile bcf("hazard", ".bcf");
  io::BcfWriteOptions write_options;
  write_options.row_group_rows = 500;
  ASSERT_TRUE(
      io::WriteBcf(HazardTable(6000, /*seed=*/708), bcf.path, write_options)
          .ok());
  const uint64_t bcf_bytes = std::filesystem::file_size(bcf.path);
  const std::vector<std::vector<Op>> plans = SourcePlans();

  for (size_t p = 0; p < plans.size(); ++p) {
    TablePtr expected =
        io::BcfReader::Open(bcf.path).ValueOrDie()->ReadAll().ValueOrDie();
    for (const Op& op : plans[p]) {
      expected = frame::ExecTransform(expected, op, {}).ValueOrDie();
    }
    for (const char* engine_id : {"polars", "spark_sql", "vaex"}) {
      auto engine = frame::CreateEngine(engine_id).ValueOrDie();
      for (int workers : {1, 4}) {
        PipelineWorkersGuard workers_guard(workers);
        for (bool real : {false, true}) {
          for (bool tight : {false, true}) {
            SCOPED_TRACE(std::string(engine_id) + " plan " +
                         std::to_string(p) + " workers=" +
                         std::to_string(workers) +
                         (real ? " real" : " simulated") +
                         (tight ? " tight" : " unbounded"));
            sim::MachineSpec machine{"m", 4, tight ? bcf_bytes * 4 : 0,
                                     std::nullopt};
            sim::Session session(machine);
            if (real) session.set_execution_mode(sim::ExecutionMode::kReal);
            auto frame = engine->ReadBcf(bcf.path);
            ASSERT_TRUE(frame.ok()) << frame.status().ToString();
            auto df = frame.ValueOrDie();
            for (const Op& op : plans[p]) df = df->Apply(op).ValueOrDie();
            auto got = df->Collect();
            ASSERT_TRUE(got.ok()) << got.status().ToString();
            EXPECT_TRUE(*expected->schema() == *got.ValueOrDie()->schema());
            test::ExpectTablesEqual(expected, got.ValueOrDie());
          }
        }
      }
    }
  }
}

/// A filter that keeps no row empties every chunk ahead of a streaming
/// breaker, so under a tight budget the group-by, pivot and dedup folds
/// see only zero-row chunks. Each must return the typed empty frame of the
/// unbounded run, for table, CSV and BCF sources at 1 and 4 workers.
TEST(StreamingDifferentialTest, EmptiedStreamMatchesUnbounded) {
  auto t = RandomTable(3000, /*seed=*/919);
  TempFile csv("emptied");
  TempFile bcf("emptied", ".bcf");
  ASSERT_TRUE(io::WriteCsv(t, csv.path).ok());
  io::BcfWriteOptions write_options;
  write_options.row_group_rows = 512;
  ASSERT_TRUE(io::WriteBcf(t, bcf.path, write_options).ok());
  const std::vector<std::vector<Op>> plans = {
      {Op::Query("k < 0"), Op::GroupByAgg({"k", "s"}, TestAggs())},
      {Op::Query("k < 0"), Op::Pivot("k", "s", "v", AggKind::kSum)},
      {Op::Query("k < 0"), Op::DropDuplicates({"k", "s"})},
  };
  enum class Source { kTable, kCsv, kBcf };
  obs::Counter* chunks =
      obs::MetricsRegistry::Global().counter("lazy.stream_chunks");

  for (const char* engine_id : {"spark_sql", "polars", "vaex"}) {
    auto engine = frame::CreateEngine(engine_id).ValueOrDie();
    for (Source source : {Source::kTable, Source::kCsv, Source::kBcf}) {
      const uint64_t source_bytes =
          source == Source::kTable ? t->ByteSize()
          : source == Source::kCsv ? std::filesystem::file_size(csv.path)
                                   : std::filesystem::file_size(bcf.path);
      for (size_t p = 0; p < plans.size(); ++p) {
        auto run = [&]() -> Result<TablePtr> {
          BENTO_ASSIGN_OR_RETURN(
              auto frame, source == Source::kTable ? engine->FromTable(t)
                          : source == Source::kCsv
                              ? engine->ReadCsv(csv.path)
                              : engine->ReadBcf(bcf.path));
          for (const Op& op : plans[p]) {
            BENTO_ASSIGN_OR_RETURN(frame, frame->Apply(op));
          }
          return frame->Collect();
        };
        const std::string label = std::string(engine_id) + " source " +
                                  std::to_string(static_cast<int>(source)) +
                                  " plan " + std::to_string(p);
        SCOPED_TRACE(label);
        auto unbounded = run();
        ASSERT_TRUE(unbounded.ok()) << unbounded.status().ToString();
        ASSERT_EQ(unbounded.ValueOrDie()->num_rows(), 0);
        for (int workers : {1, 4}) {
          for (bool real : {false, true}) {
            SCOPED_TRACE("workers=" + std::to_string(workers) +
                         (real ? " real" : " simulated"));
            PipelineWorkersGuard workers_guard(workers);
            sim::MachineSpec tight{"tight", 4, source_bytes * 4,
                                   std::nullopt};
            sim::Session session(tight);
            if (real) session.set_execution_mode(sim::ExecutionMode::kReal);
            const uint64_t before = chunks->value();
            auto streamed = run();
            ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
            EXPECT_GT(chunks->value(), before);
            EXPECT_TRUE(*unbounded.ValueOrDie()->schema() ==
                        *streamed.ValueOrDie()->schema());
            test::ExpectTablesEqual(unbounded.ValueOrDie(),
                                    streamed.ValueOrDie());
          }
        }
      }
    }
  }

  // A stream with no chunk at all has no columns: the group-by finds no
  // column to aggregate, and the dedup returns the zero-column frame.
  VectorChunkStream no_chunks({});
  auto grouped =
      StreamingGroupBy(&no_chunks, {"k"}, TestAggs(), frame::ExecPolicy{});
  EXPECT_TRUE(grouped.status().IsKeyError()) << grouped.status().ToString();
  VectorChunkStream no_chunks_again({});
  auto deduped = StreamingDedup(&no_chunks_again, {});
  ASSERT_TRUE(deduped.ok()) << deduped.status().ToString();
  EXPECT_EQ(deduped.ValueOrDie()->num_columns(), 0);
  EXPECT_EQ(deduped.ValueOrDie()->num_rows(), 0);
}

/// The paper-scale acceptance claim, shrunk by BENTO_SCALE: the patrol and
/// taxi pipelines complete on the streaming engines under the (scaled)
/// laptop RAM model, with the MemoryPool peak below the budget.
TEST(OutOfCoreAcceptanceTest, PatrolAndTaxiFitTheLaptopBudget) {
  const std::string dir =
      "/tmp/bento_ooc_accept_" + std::to_string(::getpid());
  run::Runner runner(dir, 0.001);
  for (const char* dataset : {"patrol", "taxi"}) {
    auto pipeline = run::PipelineFor(dataset).ValueOrDie();
    for (const char* engine_id : {"vaex", "spark_sql", "polars"}) {
      SCOPED_TRACE(std::string(dataset) + "/" + engine_id);
      run::RunConfig config;
      config.engine_id = engine_id;
      config.machine = sim::MachineSpec::Laptop();
      config.mode = run::RunMode::kPipelineStage;
      config.use_bcf_source = std::string(engine_id) != "vaex";
      auto report = runner.Run(config, pipeline, dataset).ValueOrDie();
      EXPECT_TRUE(report.status.ok()) << report.status.ToString();
      EXPECT_GT(report.peak_host_bytes, 0u);
      EXPECT_LE(report.peak_host_bytes,
                runner.EffectiveMachine(config).ram_bytes);
    }
  }
  const std::string cmd = "rm -rf " + dir;
  (void)!system(cmd.c_str());
}

}  // namespace
}  // namespace bento::eng
