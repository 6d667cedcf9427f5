#include "engines/pipeline_driver.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "engines/chunk_stream.h"
#include "io/csv.h"
#include "obs/metrics.h"
#include "sim/machine.h"
#include "tests/test_util.h"
#include "util/random.h"

// Property suite for the morsel-driven pipeline stage and the background
// prefetch stage: claim-order delivery regardless of completion order,
// errors surfacing at their stream position, bounded in-flight chunks,
// clean early destruction, and prefetch buffers charging the MemoryPool so
// readahead obeys the session budget.

namespace bento::eng {
namespace {

using col::TablePtr;
using test::I64;
using test::MakeTable;

/// One chunk holding `values[i]` per row plus its index, so the reassembled
/// stream is checkable row by row.
TablePtr Chunk(const std::vector<int64_t>& values) {
  std::vector<int64_t> index(values.size());
  for (size_t i = 0; i < values.size(); ++i) index[i] = static_cast<int64_t>(i);
  return MakeTable({{"v", I64(values)}, {"i", I64(index)}});
}

/// Ragged chunk list: mixed sizes, empty chunks in the middle, empty tail.
std::vector<TablePtr> RaggedChunks(uint64_t seed, int n_chunks) {
  Rng rng(seed);
  std::vector<TablePtr> chunks;
  for (int c = 0; c < n_chunks; ++c) {
    int64_t rows = rng.UniformInt(0, 40);
    if (c == n_chunks - 1 || c == n_chunks / 2) rows = 0;  // empty mid + tail
    std::vector<int64_t> values;
    for (int64_t r = 0; r < rows; ++r) {
      values.push_back(rng.UniformInt(-1000, 1000));
    }
    chunks.push_back(Chunk(values));
  }
  return chunks;
}

/// The map under test: a real per-chunk transform (v -> v * 2 + seq tag)
/// with a completion-order scrambler — earlier chunks sleep longer, so with
/// several workers chunk k+1 routinely finishes before chunk k and the
/// reorder buffer must restore claim order.
ParallelPipelineDriver::MapFn ScrambledDouble() {
  return [](TablePtr chunk, int64_t seq) -> Result<TablePtr> {
    std::this_thread::sleep_for(
        std::chrono::microseconds(seq % 4 == 0 ? 800 : 50));
    BENTO_ASSIGN_OR_RETURN(auto v, chunk->GetColumn("v"));
    col::Int64Builder b;
    b.Reserve(v->length());
    for (int64_t i = 0; i < v->length(); ++i) {
      b.Append(v->int64_data()[i] * 2 + seq);
    }
    BENTO_ASSIGN_OR_RETURN(auto doubled, b.Finish());
    return chunk->SetColumn("v", std::move(doubled));
  };
}

TEST(ParallelPipelineDriverTest, OrderedSinkMatchesSerialAcrossWorkers) {
  const auto chunks = RaggedChunks(/*seed=*/7, /*n_chunks=*/24);

  // Serial reference: the same map applied inline in stream order.
  std::vector<TablePtr> expected;
  {
    auto map = ScrambledDouble();
    for (size_t c = 0; c < chunks.size(); ++c) {
      expected.push_back(
          map(chunks[c], static_cast<int64_t>(c)).ValueOrDie());
    }
  }

  for (int workers : {1, 2, 4, 8}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    VectorChunkStream inner(chunks);
    PipelineOptions options;
    options.workers = workers;
    ParallelPipelineDriver driver(&inner, ScrambledDouble(), options);
    size_t out = 0;
    while (true) {
      auto chunk = driver.Next();
      ASSERT_TRUE(chunk.ok()) << chunk.status().ToString();
      if (chunk.ValueOrDie() == nullptr) break;
      ASSERT_LT(out, expected.size());
      test::ExpectTablesEqual(expected[out], chunk.ValueOrDie());
      ++out;
    }
    EXPECT_EQ(out, expected.size());
    EXPECT_EQ(driver.chunks_claimed(),
              static_cast<int64_t>(chunks.size()));
    // Drained stream stays drained.
    auto again = driver.Next();
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again.ValueOrDie(), nullptr);
  }
}

TEST(ParallelPipelineDriverTest, ErrorSurfacesAtItsStreamPosition) {
  const auto chunks = RaggedChunks(/*seed=*/11, /*n_chunks=*/16);
  constexpr int64_t kBadSeq = 5;

  for (int workers : {1, 2, 4, 8}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    VectorChunkStream inner(chunks);
    PipelineOptions options;
    options.workers = workers;
    ParallelPipelineDriver driver(
        &inner,
        [](TablePtr chunk, int64_t seq) -> Result<TablePtr> {
          std::this_thread::sleep_for(
              std::chrono::microseconds(seq == kBadSeq ? 500 : 20));
          if (seq == kBadSeq) return Status::Invalid("poisoned chunk");
          return chunk;
        },
        options);
    // Chunks before the poisoned one are delivered intact...
    for (int64_t seq = 0; seq < kBadSeq; ++seq) {
      auto chunk = driver.Next();
      ASSERT_TRUE(chunk.ok()) << chunk.status().ToString();
      ASSERT_NE(chunk.ValueOrDie(), nullptr);
      test::ExpectTablesEqual(chunks[static_cast<size_t>(seq)],
                              chunk.ValueOrDie());
    }
    // ...and the failure arrives exactly where the serial loop would put it.
    auto bad = driver.Next();
    ASSERT_FALSE(bad.ok());
    EXPECT_NE(bad.status().ToString().find("poisoned chunk"), std::string::npos)
        << bad.status().ToString();
    // The stream is terminal after an error.
    auto after = driver.Next();
    ASSERT_FALSE(after.ok());
  }
}

TEST(ParallelPipelineDriverTest, EarlyDestructionJoinsWorkersCleanly) {
  for (int round = 0; round < 8; ++round) {
    const auto chunks = RaggedChunks(/*seed=*/100 + round, /*n_chunks=*/64);
    VectorChunkStream inner(chunks);
    PipelineOptions options;
    options.workers = 4;
    ParallelPipelineDriver driver(
        &inner,
        [](TablePtr chunk, int64_t) -> Result<TablePtr> {
          std::this_thread::sleep_for(std::chrono::microseconds(100));
          return chunk;
        },
        options);
    for (int k = 0; k <= round % 3; ++k) {
      auto chunk = driver.Next();
      ASSERT_TRUE(chunk.ok());
    }
    // Destructor must cancel in-flight claims and join without hanging.
  }
}

TEST(ParallelPipelineDriverTest, ConcurrentMapsNeverExceedWorkerCount) {
  const auto chunks = RaggedChunks(/*seed=*/31, /*n_chunks=*/48);
  for (int workers : {2, 4}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    std::atomic<int> inflight{0};
    std::atomic<int> high_water{0};
    VectorChunkStream inner(chunks);
    PipelineOptions options;
    options.workers = workers;
    ParallelPipelineDriver driver(
        &inner,
        [&](TablePtr chunk, int64_t) -> Result<TablePtr> {
          const int now = inflight.fetch_add(1) + 1;
          int seen = high_water.load();
          while (now > seen && !high_water.compare_exchange_weak(seen, now)) {
          }
          std::this_thread::sleep_for(std::chrono::microseconds(200));
          inflight.fetch_sub(1);
          return chunk;
        },
        options);
    while (true) {
      auto chunk = driver.Next();
      ASSERT_TRUE(chunk.ok());
      if (chunk.ValueOrDie() == nullptr) break;
    }
    EXPECT_GE(high_water.load(), 1);
    EXPECT_LE(high_water.load(), workers);
  }
}

/// Inner stream that allocates a fresh table per chunk (so buffer bytes are
/// charged to whatever pool is installed on the PULLING thread) after an
/// optional delay — the stand-in for a CSV parse / BCF decode.
class AllocatingStream : public ChunkStream {
 public:
  AllocatingStream(int n_chunks, int64_t rows, int delay_us)
      : n_chunks_(n_chunks), rows_(rows), delay_us_(delay_us) {}

  Result<TablePtr> Next() override {
    if (produced_ >= n_chunks_) return TablePtr(nullptr);
    if (delay_us_ > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(delay_us_));
    }
    const int64_t base = static_cast<int64_t>(produced_) * rows_;
    col::Int64Builder b;
    b.Reserve(rows_);
    for (int64_t i = 0; i < rows_; ++i) b.Append(base + i);
    BENTO_ASSIGN_OR_RETURN(auto v, b.Finish());
    ++produced_;
    return MakeTable({{"v", std::move(v)}});
  }

 private:
  int n_chunks_;
  int64_t rows_;
  int delay_us_;
  int produced_ = 0;
};

TEST(PrefetchChunkStreamTest, PreservesContentAndCountsStalls) {
  static obs::Counter* stalls =
      obs::MetricsRegistry::Global().counter("pipeline.prefetch.stalls");
  const uint64_t stalls_before = stalls->value();

  // Producer slower than consumer: every pull should find the queue empty
  // at least sometimes, exercising the stall path.
  PrefetchChunkStream stream(
      std::make_unique<AllocatingStream>(/*n_chunks=*/20, /*rows=*/128,
                                         /*delay_us=*/300),
      /*depth=*/2);
  AllocatingStream reference(/*n_chunks=*/20, /*rows=*/128, /*delay_us=*/0);
  int chunks = 0;
  while (true) {
    auto got = stream.Next();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    auto want = reference.Next();
    ASSERT_TRUE(want.ok());
    ASSERT_EQ(got.ValueOrDie() == nullptr, want.ValueOrDie() == nullptr);
    if (got.ValueOrDie() == nullptr) break;
    test::ExpectTablesEqual(want.ValueOrDie(), got.ValueOrDie());
    ++chunks;
  }
  EXPECT_EQ(chunks, 20);
  EXPECT_GT(stalls->value(), stalls_before);
}

TEST(PrefetchChunkStreamTest, ChargesPoolAndBackpressureKeepsPeakUnderBudget) {
  // Each chunk is ~rows * 8 bytes of int64 data. Budget six chunks; a
  // depth-16 readahead without backpressure would blow straight through it
  // (Reserve fails hard over budget), so completing cleanly under the
  // budget proves both that prefetch buffers charge the session pool and
  // that the headroom rule throttles the producer.
  constexpr int64_t kRows = 64 * 1024;
  const uint64_t chunk_bytes = static_cast<uint64_t>(kRows) * 8;
  sim::MachineSpec tight{"tight", 4, chunk_bytes * 6, std::nullopt};
  sim::Session session(tight);

  PrefetchChunkStream stream(
      std::make_unique<AllocatingStream>(/*n_chunks=*/32, kRows,
                                         /*delay_us=*/0),
      /*depth=*/16);
  // Let the producer race ahead before consuming at all: readahead must
  // accumulate several charged chunks, but never more than the headroom
  // rule admits. Polling peak_bytes (instead of pacing the consumer with a
  // fixed sleep) keeps the test deterministic under sanitizers and on
  // single-core hosts, where the producer may need arbitrarily long per
  // chunk.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (session.host_pool()->peak_bytes() <= chunk_bytes &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  int64_t total_rows = 0;
  while (true) {
    auto chunk = stream.Next();
    ASSERT_TRUE(chunk.ok()) << chunk.status().ToString();
    if (chunk.ValueOrDie() == nullptr) break;
    total_rows += chunk.ValueOrDie()->num_rows();
  }
  EXPECT_EQ(total_rows, 32 * kRows);
  EXPECT_GT(session.host_pool()->peak_bytes(), chunk_bytes)
      << "readahead must hold multiple charged chunks";
  EXPECT_LE(session.host_pool()->peak_bytes(), session.host_pool()->budget());
}

TEST(PrefetchChunkStreamTest, EarlyDestructionStopsProducer) {
  for (int round = 0; round < 4; ++round) {
    PrefetchChunkStream stream(
        std::make_unique<AllocatingStream>(/*n_chunks=*/64, /*rows=*/256,
                                           /*delay_us=*/100),
        /*depth=*/4);
    auto chunk = stream.Next();
    ASSERT_TRUE(chunk.ok());
    // Destructor cancels and joins the producer mid-stream.
  }
}

TEST(TableChunkStreamTest, AlignedSlicesChargeNoRowData) {
  sim::MachineSpec m{"m", 4, 1ULL << 30, std::nullopt};
  sim::Session session(m);

  // Nulls force validity bitmaps, strings force offset+chars buffers: the
  // full buffer menagerie must come back as views.
  Rng rng(55);
  col::Int64Builder a;
  col::Float64Builder b;
  col::StringBuilder s;
  for (int64_t i = 0; i < 4096; ++i) {
    a.AppendMaybe(rng.UniformInt(-100, 100), !rng.Bernoulli(0.1));
    b.AppendMaybe(static_cast<double>(i), !rng.Bernoulli(0.2));
    s.Append("row_" + std::to_string(i % 97));
  }
  auto table = MakeTable({{"a", a.Finish().ValueOrDie()},
                          {"b", b.Finish().ValueOrDie()},
                          {"s", s.Finish().ValueOrDie()}});

  const uint64_t before = session.host_pool()->bytes_allocated();
  {
    // 256 is byte-aligned (256 % 64 == 0): all buffers shared, zero charge.
    TableChunkStream stream(table, 256);
    std::vector<TablePtr> held;  // hold every chunk alive simultaneously
    while (true) {
      auto chunk = stream.Next().ValueOrDie();
      if (chunk == nullptr) break;
      held.push_back(std::move(chunk));
    }
    EXPECT_EQ(held.size(), 16u);
    EXPECT_EQ(session.host_pool()->bytes_allocated(), before)
        << "aligned slices must be zero-copy views";
  }

  {
    // A mid-byte chunk size may repack only the n/8-byte validity bitmaps —
    // never the row data (8-byte values, variable-width strings).
    TableChunkStream stream(table, 100);
    std::vector<TablePtr> held;
    while (true) {
      auto chunk = stream.Next().ValueOrDie();
      if (chunk == nullptr) break;
      held.push_back(std::move(chunk));
    }
    const uint64_t growth = session.host_pool()->bytes_allocated() - before;
    EXPECT_LT(growth, table->ByteSize() / 8)
        << "misaligned slices may repack validity only";
  }
}

/// End-to-end stage sanity: a parallel stage over a TableChunkStream with a
/// widening map stays bit-identical to serial while the source slices stay
/// zero-copy (the two properties composing).
TEST(ParallelPipelineDriverTest, StageOverTableSlicesMatchesSerial) {
  Rng rng(77);
  std::vector<int64_t> values;
  for (int64_t i = 0; i < 10000; ++i) values.push_back(rng.UniformInt(0, 999));
  auto table = Chunk(values);

  auto run = [&](int workers) -> std::vector<TablePtr> {
    TableChunkStream source(table, 512);
    PipelineOptions options;
    options.workers = workers;
    ParallelPipelineDriver driver(&source, ScrambledDouble(), options);
    std::vector<TablePtr> out;
    while (true) {
      auto chunk = driver.Next().ValueOrDie();
      if (chunk == nullptr) break;
      out.push_back(std::move(chunk));
    }
    return out;
  };

  const auto serial = run(1);
  for (int workers : {2, 8}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    const auto parallel = run(workers);
    ASSERT_EQ(serial.size(), parallel.size());
    for (size_t c = 0; c < serial.size(); ++c) {
      test::ExpectTablesEqual(serial[c], parallel[c]);
    }
  }
}

/// A CSV source under 4 workers: each claim only cuts the text, and the
/// decodes run concurrently on the workers, outside the claim lock. The
/// stage must deliver exactly the serial reader's chunks, mapped, in order.
TEST(ParallelPipelineDriverTest, CsvSourceDecodesOnWorkersMatchesSerial) {
  Rng rng(78);
  col::Int64Builder v;
  col::StringBuilder s;
  col::Float64Builder f;
  for (int64_t i = 0; i < 5000; ++i) {
    v.Append(rng.UniformInt(-1000, 1000));
    s.AppendMaybe(i % 3 == 0 ? "quoted \"x\", with\nnewline"
                             : rng.AsciiString(0, 12),
                  !rng.Bernoulli(0.1));
    f.AppendMaybe(rng.UniformDouble(-1, 1), !rng.Bernoulli(0.2));
  }
  auto table = MakeTable({{"v", v.Finish().ValueOrDie()},
                          {"s", s.Finish().ValueOrDie()},
                          {"f", f.Finish().ValueOrDie()}});
  const std::string path = testing::TempDir() + "bento_driver_csv_" +
                           std::to_string(::getpid()) + ".csv";
  ASSERT_TRUE(io::WriteCsv(table, path).ok());
  io::CsvReadOptions read_options;
  read_options.chunk_rows = 97;

  std::vector<TablePtr> expected;
  {
    auto reader = io::CsvChunkReader::Open(path, read_options).ValueOrDie();
    auto map = ScrambledDouble();
    for (int64_t seq = 0;; ++seq) {
      auto chunk = reader->Next().ValueOrDie();
      if (chunk == nullptr) break;
      expected.push_back(map(chunk, seq).ValueOrDie());
    }
  }

  auto source = CsvChunkStream::Open(path, read_options).ValueOrDie();
  PipelineOptions options;
  options.workers = 4;
  ParallelPipelineDriver driver(source.get(), ScrambledDouble(), options);
  size_t out = 0;
  while (true) {
    auto chunk = driver.Next();
    ASSERT_TRUE(chunk.ok()) << chunk.status().ToString();
    if (chunk.ValueOrDie() == nullptr) break;
    ASSERT_LT(out, expected.size());
    test::ExpectTablesEqual(expected[out], chunk.ValueOrDie());
    ++out;
  }
  EXPECT_EQ(out, expected.size());
  EXPECT_EQ(driver.chunks_claimed(), static_cast<int64_t>(expected.size()));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace bento::eng
