#include "engines/pipeline_driver.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
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

// Property suite for the morsel-driven pipeline stage: claim-order delivery
// regardless of completion order, errors surfacing at their stream
// position, bounded in-flight chunks, clean early destruction, and CSV and
// BCF sources decoding on the workers, where the decoded buffers charge the
// MemoryPool so in-flight chunks obey the session budget.

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

/// The map under test: a real per-chunk transform (v -> v * 2) with a
/// completion-order scrambler — every fourth call sleeps longer, so with
/// several workers a later chunk routinely finishes before an earlier one
/// and the reorder buffer must restore claim order.
ChunkMapFn ScrambledDouble() {
  auto calls = std::make_shared<std::atomic<int64_t>>(0);
  return [calls](TablePtr chunk) -> Result<TablePtr> {
    std::this_thread::sleep_for(
        std::chrono::microseconds(calls->fetch_add(1) % 4 == 0 ? 800 : 50));
    BENTO_ASSIGN_OR_RETURN(auto v, chunk->GetColumn("v"));
    col::Int64Builder b;
    b.Reserve(v->length());
    for (int64_t i = 0; i < v->length(); ++i) {
      b.Append(v->int64_data()[i] * 2);
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
    for (const TablePtr& chunk : chunks) {
      expected.push_back(map(chunk).ValueOrDie());
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
    const TablePtr poisoned = chunks[static_cast<size_t>(kBadSeq)];
    ParallelPipelineDriver driver(
        &inner,
        [poisoned](TablePtr chunk) -> Result<TablePtr> {
          std::this_thread::sleep_for(
              std::chrono::microseconds(chunk == poisoned ? 500 : 20));
          if (chunk == poisoned) return Status::Invalid("poisoned chunk");
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
        [](TablePtr chunk) -> Result<TablePtr> {
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
        [&](TablePtr chunk) -> Result<TablePtr> {
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

/// An int64 `v`, a string `s` holding quotes, commas and newlines, and a
/// float `f`; `s` and `f` have nulls.
TablePtr HazardTable(int64_t rows, uint64_t seed) {
  Rng rng(seed);
  col::Int64Builder v;
  col::StringBuilder s;
  col::Float64Builder f;
  for (int64_t i = 0; i < rows; ++i) {
    v.Append(rng.UniformInt(-1000, 1000));
    s.AppendMaybe(i % 3 == 0 ? "quoted \"x\", with\nnewline"
                             : rng.AsciiString(0, 12),
                  !rng.Bernoulli(0.1));
    f.AppendMaybe(rng.UniformDouble(-1, 1), !rng.Bernoulli(0.2));
  }
  return MakeTable({{"v", v.Finish().ValueOrDie()},
                    {"s", s.Finish().ValueOrDie()},
                    {"f", f.Finish().ValueOrDie()}});
}

/// A scratch file path unique to this process.
std::string TempFile(const std::string& stem, const std::string& suffix) {
  return testing::TempDir() + "bento_driver_" + stem + "_" +
         std::to_string(::getpid()) + suffix;
}

/// Every chunk of `stream` in order, up to its end or first error.
std::vector<TablePtr> Drain(ChunkStream* stream) {
  std::vector<TablePtr> out;
  while (true) {
    auto chunk = stream->Next();
    EXPECT_TRUE(chunk.ok()) << chunk.status().ToString();
    if (!chunk.ok() || chunk.ValueOrDie() == nullptr) return out;
    out.push_back(std::move(chunk).ValueOrDie());
  }
}

/// A CSV source under 4 workers: each claim only cuts the text, and the
/// decodes run concurrently on the workers, outside the claim lock. The
/// stage must deliver exactly the serial reader's chunks, mapped, in order.
TEST(ParallelPipelineDriverTest, CsvSourceDecodesOnWorkersMatchesSerial) {
  auto table = HazardTable(5000, /*seed=*/78);
  const std::string path = TempFile("csv", ".csv");
  ASSERT_TRUE(io::WriteCsv(table, path).ok());
  io::CsvReadOptions read_options;
  read_options.chunk_rows = 97;

  std::vector<TablePtr> expected;
  {
    auto reader = io::CsvChunkReader::Open(path, read_options).ValueOrDie();
    auto map = ScrambledDouble();
    while (true) {
      auto chunk = reader->Next().ValueOrDie();
      if (chunk == nullptr) break;
      expected.push_back(map(chunk).ValueOrDie());
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

/// A BCF source under any worker count: each claim only takes the next
/// row-group index, and the reads and decodes run on the workers. For a
/// compressed file and a mappable aligned one, read buffered and through
/// mmap, whole and projected, the stage must deliver exactly the serial
/// reader's row groups, mapped, in order.
TEST(ParallelPipelineDriverTest, BcfSourceDecodesOnWorkersMatchesSerial) {
  auto table = HazardTable(5000, /*seed=*/79);
  io::BcfWriteOptions compressed;
  compressed.row_group_rows = 97;
  io::BcfWriteOptions mappable = compressed;
  mappable.compression = false;
  mappable.align_pages = true;
  mappable.mappable = true;
  struct File {
    const char* name;
    io::BcfWriteOptions options;
  };
  for (const File& file :
       {File{"compressed", compressed}, File{"mappable", mappable}}) {
    const std::string path = TempFile(file.name, ".bcf");
    ASSERT_TRUE(io::WriteBcf(table, path, file.options).ok());
    for (bool use_mmap : {false, true}) {
      io::BcfReadOptions read_options;
      read_options.use_mmap = use_mmap;
      for (const std::vector<std::string>& projection :
           {std::vector<std::string>{}, std::vector<std::string>{"f", "v"}}) {
        std::vector<TablePtr> expected;
        {
          auto reader = io::BcfReader::Open(path, read_options).ValueOrDie();
          auto map = ScrambledDouble();
          for (int g = 0; g < reader->num_row_groups(); ++g) {
            expected.push_back(
                map(reader->ReadRowGroup(g, projection).ValueOrDie())
                    .ValueOrDie());
          }
        }
        ASSERT_EQ(expected.size(), 52u);  // ceil(5000 / 97)
        for (int workers : {1, 2, 4, 8}) {
          SCOPED_TRACE(std::string(file.name) + (use_mmap ? " mmap" : "") +
                       " columns=" + std::to_string(projection.size()) +
                       " workers=" + std::to_string(workers));
          auto source =
              BcfChunkStream::Open(path, projection, read_options).ValueOrDie();
          PipelineOptions options;
          options.workers = workers;
          ParallelPipelineDriver driver(source.get(), ScrambledDouble(),
                                        options);
          const std::vector<TablePtr> got = Drain(&driver);
          ASSERT_EQ(got.size(), expected.size());
          for (size_t c = 0; c < got.size(); ++c) {
            test::ExpectTablesEqual(expected[c], got[c]);
          }
          EXPECT_EQ(driver.chunks_claimed(),
                    static_cast<int64_t>(expected.size()));
        }
      }
    }
    std::remove(path.c_str());
  }
}

/// Pipeline workers read row groups of one buffered reader at the same
/// time. Each read must return what a serial read of the group returns.
TEST(BcfReaderTest, ConcurrentBufferedRowGroupReadsMatchSerial) {
  const std::string path = TempFile("concurrent", ".bcf");
  io::BcfWriteOptions write_options;
  write_options.row_group_rows = 32;
  ASSERT_TRUE(
      io::WriteBcf(HazardTable(4000, /*seed=*/80), path, write_options).ok());
  auto reader = io::BcfReader::Open(path).ValueOrDie();
  ASSERT_FALSE(reader->mmap_active());
  const int groups = reader->num_row_groups();
  std::vector<TablePtr> serial;
  for (int g = 0; g < groups; ++g) {
    serial.push_back(reader->ReadRowGroup(g).ValueOrDie());
  }

  // The threads start together, and each reads every group 16 times,
  // starting a quarter further along than the thread before it, so reads
  // interleave.
  constexpr int kThreads = 4;
  const int reads = 16 * groups;
  auto group_of = [&](int t, int k) {
    return (k + t * groups / kThreads) % groups;
  };
  std::vector<std::vector<Result<TablePtr>>> got(kThreads);
  std::atomic<int> started{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      started.fetch_add(1);
      while (started.load() < kThreads) std::this_thread::yield();
      for (int k = 0; k < reads; ++k) {
        got[t].push_back(reader->ReadRowGroup(group_of(t, k)));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    for (int k = 0; k < reads; ++k) {
      SCOPED_TRACE("thread " + std::to_string(t) + " read " +
                   std::to_string(k));
      const Result<TablePtr>& read = got[t][static_cast<size_t>(k)];
      ASSERT_TRUE(read.ok()) << read.status().ToString();
      test::ExpectTablesEqual(serial[static_cast<size_t>(group_of(t, k))],
                              read.ValueOrDie());
    }
  }
  std::remove(path.c_str());
}

/// Row groups decoding on the workers charge the session's pool as they
/// are read: with the consumer idle, the workers fill their in-flight
/// slots, so the peak rises above one chunk, and it stays under the budget.
TEST(ParallelPipelineDriverTest, InFlightBcfDecodesChargeThePool) {
  constexpr int64_t kRows = 16 * 1024;
  constexpr int kGroups = 24;
  Rng rng(81);
  col::Int64Builder v;
  for (int64_t i = 0; i < kRows * kGroups; ++i) {
    v.Append(rng.UniformInt(-1000000, 1000000));
  }
  const std::string path = TempFile("charge", ".bcf");
  io::BcfWriteOptions write_options;
  write_options.row_group_rows = kRows;
  ASSERT_TRUE(io::WriteBcf(MakeTable({{"v", v.Finish().ValueOrDie()}}), path,
                           write_options)
                  .ok());

  const uint64_t chunk_bytes = static_cast<uint64_t>(kRows) * 8;
  sim::MachineSpec tight{"tight", 4, chunk_bytes * 16, std::nullopt};
  sim::Session session(tight);
  auto source = BcfChunkStream::Open(path).ValueOrDie();
  PipelineOptions options;
  options.workers = 4;
  ParallelPipelineDriver driver(
      source.get(),
      [](TablePtr chunk) -> Result<TablePtr> { return chunk; },
      options);
  // Polling the peak (instead of pacing the consumer with a fixed sleep)
  // keeps the test deterministic under sanitizers and on one core.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (session.host_pool()->peak_bytes() <= chunk_bytes &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  int64_t rows = 0;
  while (true) {
    auto chunk = driver.Next();
    ASSERT_TRUE(chunk.ok()) << chunk.status().ToString();
    if (chunk.ValueOrDie() == nullptr) break;
    rows += chunk.ValueOrDie()->num_rows();
  }
  EXPECT_EQ(rows, kRows * kGroups);
  EXPECT_GT(session.host_pool()->peak_bytes(), chunk_bytes)
      << "in-flight decodes must hold several charged chunks";
  EXPECT_LE(session.host_pool()->peak_bytes(), session.host_pool()->budget());
  std::remove(path.c_str());
}

/// A claimed decode co-owns the reader, so it runs after its stream is
/// gone; and a stage and its BCF stream can be destroyed while workers
/// still read row groups.
TEST(ParallelPipelineDriverTest, BcfStageDestroyedMidStreamIsClean) {
  const std::string path = TempFile("teardown", ".bcf");
  io::BcfWriteOptions write_options;
  write_options.row_group_rows = 50;
  ASSERT_TRUE(
      io::WriteBcf(HazardTable(3000, /*seed=*/82), path, write_options).ok());
  {
    auto source = BcfChunkStream::Open(path).ValueOrDie();
    ChunkStream::Deferred first = source->ClaimDeferred().ValueOrDie();
    ChunkStream::Deferred second = source->ClaimDeferred().ValueOrDie();
    source.reset();
    auto reader = io::BcfReader::Open(path).ValueOrDie();
    test::ExpectTablesEqual(reader->ReadRowGroup(1).ValueOrDie(),
                            second().ValueOrDie());
    test::ExpectTablesEqual(reader->ReadRowGroup(0).ValueOrDie(),
                            first().ValueOrDie());
  }
  for (int round = 0; round < 8; ++round) {
    io::BcfReadOptions read_options;
    read_options.use_mmap = round % 2 == 1;
    auto source = BcfChunkStream::Open(path, {}, read_options).ValueOrDie();
    PipelineOptions options;
    options.workers = 4;
    auto driver = std::make_unique<ParallelPipelineDriver>(
        source.get(),
        [](TablePtr chunk) -> Result<TablePtr> {
          std::this_thread::sleep_for(std::chrono::microseconds(100));
          return chunk;
        },
        options);
    for (int k = 0; k <= round % 3; ++k) ASSERT_TRUE(driver->Next().ok());
    driver.reset();  // cancels and joins workers mid-stream
    source.reset();
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace bento::eng
