#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <utility>

#include "engines/lazy_engine.h"
#include "engines/spark.h"
#include "engines/streaming_ops.h"
#include "frame/exec.h"
#include "kernels/encode.h"
#include "kernels/sort.h"
#include "obs/metrics.h"
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

TablePtr RandomTable(int64_t rows, uint64_t seed) {
  Rng rng(seed);
  col::Int64Builder k;
  col::Float64Builder v;
  col::StringBuilder s;
  for (int64_t i = 0; i < rows; ++i) {
    k.Append(rng.UniformInt(0, 25));
    v.AppendMaybe(rng.UniformDouble(0, 10), !rng.Bernoulli(0.2));
    s.Append(std::string(1, static_cast<char>('a' + rng.Uniform(5))));
  }
  return MakeTable({{"k", k.Finish().ValueOrDie()},
                    {"v", v.Finish().ValueOrDie()},
                    {"s", s.Finish().ValueOrDie()}});
}

TEST(TableChunkStreamTest, TailChunkCoversEveryRow) {
  auto t = RandomTable(10, 21);
  for (int64_t chunk_rows : {3, 5, 7, 9}) {
    SCOPED_TRACE(chunk_rows);
    TableChunkStream stream(t, chunk_rows);
    std::vector<TablePtr> chunks;
    int64_t rows = 0;
    while (true) {
      auto chunk = stream.Next().ValueOrDie();
      if (chunk == nullptr) break;
      EXPECT_LE(chunk->num_rows(), chunk_rows);
      rows += chunk->num_rows();
      chunks.push_back(chunk);
    }
    EXPECT_EQ(rows, 10);
    test::ExpectTablesEqual(t, col::ConcatTables(chunks).ValueOrDie());
  }
}

TEST(TableChunkStreamTest, WholeTableChunkIsPassThrough) {
  auto t = RandomTable(10, 22);
  for (int64_t chunk_rows : {int64_t{10}, int64_t{11}, int64_t{1} << 40}) {
    TableChunkStream stream(t, chunk_rows);
    // Covering chunk sizes hand back the table itself (no slice copy)...
    EXPECT_EQ(stream.Next().ValueOrDie().get(), t.get());
    // ...exactly once.
    EXPECT_EQ(stream.Next().ValueOrDie(), nullptr);
    EXPECT_EQ(stream.Next().ValueOrDie(), nullptr);
  }
}

TEST(TableChunkStreamTest, EmptyTableYieldsOneTypedChunk) {
  auto t = RandomTable(5, 23)->Slice(0, 0).ValueOrDie();
  TableChunkStream stream(t, 100);
  auto chunk = stream.Next().ValueOrDie();
  ASSERT_NE(chunk, nullptr);
  EXPECT_EQ(chunk->num_rows(), 0);
  EXPECT_EQ(chunk->schema()->names(), t->schema()->names());
  EXPECT_EQ(stream.Next().ValueOrDie(), nullptr);
}

TEST(ConcatReleasingTest, MatchesPlainConcat) {
  auto t = RandomTable(5000, 1);
  std::vector<TablePtr> a, b;
  for (int64_t off = 0; off < 5000; off += 700) {
    int64_t len = std::min<int64_t>(700, 5000 - off);
    a.push_back(t->Slice(off, len).ValueOrDie());
    b.push_back(t->Slice(off, len).ValueOrDie());
  }
  auto plain = col::ConcatTables(a).ValueOrDie();
  auto releasing = col::ConcatTablesReleasing(&b).ValueOrDie();
  EXPECT_TRUE(b.empty());
  test::ExpectTablesEqual(plain, releasing);
}

TEST(ConcatReleasingTest, SingleTablePassThrough) {
  auto t = RandomTable(10, 2);
  std::vector<TablePtr> one = {t};
  auto out = col::ConcatTablesReleasing(&one).ValueOrDie();
  EXPECT_EQ(out.get(), t.get());
  std::vector<TablePtr> none;
  EXPECT_FALSE(col::ConcatTablesReleasing(&none).ok());
}

TEST(SpillTest, SpillStreamRoundTrip) {
  auto t = RandomTable(3000, 3);
  TableChunkStream stream(t, 500);
  auto path = SpillStreamToFile(&stream).ValueOrDie();
  auto back = io::BcfReader::Open(path).ValueOrDie()->ReadAll().ValueOrDie();
  test::ExpectTablesEqual(t, back);
  std::remove(path.c_str());
}

TEST(SpillTest, DistinctValuesFirstSeenOrder) {
  auto t = MakeTable({{"c", Str({"b", "a", "b", "c", "a"},
                                {true, true, true, true, false})}});
  TableChunkStream stream(t, 2);
  auto distinct = StreamDistinctValues(&stream, "c").ValueOrDie();
  EXPECT_EQ(distinct, (std::vector<std::string>{"b", "a", "c"}));
}

TEST(SpillTest, StreamColumnMean) {
  auto t = MakeTable({{"v", F64({1.0, 2.0, 0.0, 3.0},
                                {true, true, false, true})}});
  TableChunkStream stream(t, 3);
  EXPECT_DOUBLE_EQ(StreamColumnMean(&stream, "v").ValueOrDie(), 2.0);
}

TEST(ExternalSortToFileTest, MatchesInMemorySort) {
  auto t = RandomTable(4000, 7);
  std::vector<kern::SortKey> keys = {{"k", true}, {"v", true}};
  auto expected = kern::SortTable(t, keys).ValueOrDie();
  TableChunkStream stream(t, 333);
  auto path =
      ExternalSortToFile(&stream, keys, {}, /*run_rows=*/600).ValueOrDie();
  auto back = io::BcfReader::Open(path).ValueOrDie()->ReadAll().ValueOrDie();
  test::ExpectTablesEqual(expected, back);
  std::remove(path.c_str());
}

TEST(EncodeFixedTest, GetDummiesWithCategoriesMatchesDiscovery) {
  auto t = MakeTable({{"c", Str({"x", "y", "x", "z"})}});
  auto discovered = kern::GetDummies(t, "c").ValueOrDie();
  auto fixed =
      kern::GetDummiesWithCategories(t, "c", {"x", "y", "z"}).ValueOrDie();
  test::ExpectTablesEqual(discovered, fixed);
  // A fixed list that misses a value leaves its rows all-zero.
  auto narrow = kern::GetDummiesWithCategories(t, "c", {"x"}).ValueOrDie();
  EXPECT_EQ(narrow->GetColumn("c_x").ValueOrDie()->int64_data()[3], 0);
}

TEST(EncodeFixedTest, CatCodesWithDict) {
  auto v = Str({"b", "a", "?"}, {true, true, true});
  auto codes = kern::CatCodesWithDict(v, {"a", "b"}).ValueOrDie();
  EXPECT_EQ(codes->int64_data()[0], 1);
  EXPECT_EQ(codes->int64_data()[1], 0);
  EXPECT_TRUE(codes->IsNull(2));  // unseen under a fixed dictionary
}

/// The two-pass streaming breakers must produce the same frames as the
/// in-memory path: run the same plan with spark under a tight budget
/// (forces streaming) and without (in-memory) and compare.
TEST(TwoPassBreakersTest, TightMemoryMatchesUnbounded) {
  auto t = RandomTable(20000, 11);

  std::vector<Op> plan = {
      Op::Query("k >= 1"),
      Op::GetDummies("s"),
      Op::FillNaMean("v"),
      Op::SortValues({{"k", true}, {"v", true}}),
      Op::Round("v", 3),
  };

  SparkSqlEngine engine;
  LazySource source;
  source.kind = LazySource::Kind::kTable;
  source.table = t;

  TablePtr unbounded = engine.Execute(source, plan).ValueOrDie();

  // Budget ~1.7x the OUTPUT (one-hot widens the frame): enough for the
  // result plus streaming chunks, well below the >2.3x that the in-memory
  // path (drain + sort input/indices/output) needs.
  sim::MachineSpec tight{"tight", 4,
                         static_cast<uint64_t>(unbounded->ByteSize() * 17 / 10),
                         std::nullopt};
  // The source table lives outside the session; only working memory counts.
  sim::Session session(tight);
  auto streamed = engine.Execute(source, plan);
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
  test::ExpectTablesEqual(unbounded, streamed.ValueOrDie());
}

TEST(TwoPassBreakersTest, MergeStreamsToo) {
  auto left = RandomTable(8000, 13);
  auto right = MakeTable({{"k", I64({0, 1, 2, 3, 4})},
                          {"label", Str({"a", "b", "c", "d", "e"})}});
  SparkSqlEngine engine;
  auto right_frame = engine.FromTable(right).ValueOrDie();

  std::vector<Op> plan = {
      Op::Merge(right_frame, "k", "k", kern::JoinType::kLeft),
      Op::StrLower("label"),
  };
  LazySource source;
  source.kind = LazySource::Kind::kTable;
  source.table = left;

  TablePtr unbounded = engine.Execute(source, plan).ValueOrDie();
  sim::MachineSpec tight{"tight", 4,
                         static_cast<uint64_t>(left->ByteSize() * 2),
                         std::nullopt};
  sim::Session session(tight);
  auto streamed = engine.Execute(source, plan);
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
  test::ExpectTablesEqual(unbounded, streamed.ValueOrDie());
}

TEST(StreamingActionsTest, MatchMaterializedActions) {
  auto t = RandomTable(10000, 17);
  SparkSqlEngine engine;
  LazySource source;
  source.kind = LazySource::Kind::kTable;
  source.table = t;
  std::vector<Op> plan = {Op::Query("k > 2")};

  // Reference: materialize then act.
  auto table = engine.Execute(source, plan).ValueOrDie();
  auto expected_isna =
      frame::ExecAction(table, Op::IsNa(), engine.ExecutionPolicy())
          .ValueOrDie();
  auto expected_search = frame::ExecAction(t, Op::SearchPattern("s", "a"),
                                           engine.ExecutionPolicy())
                             .ValueOrDie();

  // Streaming: via ExecuteAction, on 1, 2 and 4 real pipeline workers. Every
  // worker count gives the same answers and streams the same chunks and
  // rows through the stage map.
  static obs::Counter* chunks =
      obs::MetricsRegistry::Global().counter("lazy.stream_chunks");
  static obs::Counter* rows =
      obs::MetricsRegistry::Global().counter("lazy.stream_rows");
  using Streamed = std::pair<uint64_t, uint64_t>;  // (chunks, rows) deltas
  std::optional<Streamed> isna_streamed, search_streamed;
  for (int workers : {1, 2, 4}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    setenv("BENTO_PIPELINE_WORKERS", std::to_string(workers).c_str(), 1);
    sim::Session session(sim::MachineSpec{"m", 4, 8ULL << 30, std::nullopt});
    session.set_execution_mode(sim::ExecutionMode::kReal);
    auto counted = [&](const std::vector<Op>& p, const Op& action,
                       frame::ActionResult* out) {
      const Streamed before{chunks->value(), rows->value()};
      *out = engine.ExecuteAction(source, p, action).ValueOrDie();
      return Streamed{chunks->value() - before.first,
                      rows->value() - before.second};
    };

    frame::ActionResult isna;
    const Streamed isna_delta = counted(plan, Op::IsNa(), &isna);
    EXPECT_EQ(isna.counts, expected_isna.counts);
    EXPECT_EQ(isna_delta.second, static_cast<uint64_t>(t->num_rows()));
    if (!isna_streamed) isna_streamed = isna_delta;
    EXPECT_EQ(isna_delta, *isna_streamed);

    frame::ActionResult search;
    const Streamed search_delta =
        counted({}, Op::SearchPattern("s", "a"), &search);
    EXPECT_EQ(search.count, expected_search.count);
    if (!search_streamed) search_streamed = search_delta;
    EXPECT_EQ(search_delta, *search_streamed);

    auto cols =
        engine.ExecuteAction(source, plan, Op::GetColumns()).ValueOrDie();
    EXPECT_EQ(cols.names, t->schema()->names());
  }
  unsetenv("BENTO_PIPELINE_WORKERS");
  EXPECT_GT(isna_streamed->first, 1u);
}

TEST(ObjectStringModelTest, PandasChargesBoxingOverhead) {
  // 1000 rows x 1 string column x 57 bytes must appear in the pool while the
  // pandas frame is alive, and vanish when it dies.
  std::vector<std::string> values(1000, "abc");
  auto t = MakeTable({{"s", Str(values)}});

  sim::MemoryPool pool("measure", 0);
  uint64_t with_frame = 0;
  {
    sim::MemoryScope scope(&pool);
    auto engine = frame::CreateEngine("pandas").ValueOrDie();
    auto frame = engine->FromTable(t).ValueOrDie();
    with_frame = pool.bytes_allocated();
  }
  EXPECT_GE(with_frame, 1000u * 57u);
  EXPECT_EQ(pool.bytes_allocated(), 0u);

  // An Arrow-backed engine charges nothing extra.
  sim::MemoryPool pool2("measure2", 0);
  {
    sim::MemoryScope scope(&pool2);
    auto engine = frame::CreateEngine("polars").ValueOrDie();
    auto frame = engine->FromTable(t).ValueOrDie();
    EXPECT_LT(pool2.bytes_allocated(), 1000u * 57u);
  }
}

TEST(ScaledBatchRowsTest, ScalesWithCostScale) {
  // Default BENTO_SCALE in tests is 0.001 -> full-scale 128k shrinks to the
  // clamp floor.
  EXPECT_EQ(ScaledBatchRows(128 * 1024), 2048);
  EXPECT_EQ(ScaledBatchRows(128 * 1024, 100), 131);
}

}  // namespace
}  // namespace bento::eng
