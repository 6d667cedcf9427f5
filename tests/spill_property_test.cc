#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "engines/spill_frames.h"
#include "engines/streaming_ops.h"
#include "io/bcf.h"
#include "kernels/groupby.h"
#include "kernels/sort.h"
#include "sim/spill.h"
#include "tests/test_util.h"
#include "util/random.h"

// Property tests for the spill layer: random round-trips through SpillFile
// and SpillFrameStore, spill-merge equivalence under skewed partition loads,
// and injected short-write/short-read faults that must surface as clean
// Status errors — never as corrupt frames or crashes.

namespace bento::eng {
namespace {

using col::TablePtr;
using kern::AggKind;
using kern::AggSpec;
using test::MakeTable;

/// Disarms the process-wide spill fuses even when an assertion bails out.
struct FaultGuard {
  ~FaultGuard() { sim::SpillFile::ClearFaults(); }
};

/// One column of every type, each with nulls, so every page encoding and
/// the validity repack pass through the frame codec.
TablePtr RandomChunk(Rng* rng, int64_t rows) {
  col::Int64Builder a;
  col::Float64Builder b;
  col::StringBuilder c;
  col::BoolBuilder d;
  col::TimestampBuilder e;
  col::CategoricalBuilder f;
  for (int64_t i = 0; i < rows; ++i) {
    a.AppendMaybe(rng->UniformInt(-1000, 1000), !rng->Bernoulli(0.1));
    b.AppendMaybe(static_cast<double>(rng->UniformInt(0, 500)),
                  !rng->Bernoulli(0.2));
    c.AppendMaybe(
        std::string("s").append(std::to_string(rng->UniformInt(0, 9))),
        !rng->Bernoulli(0.05));
    d.AppendMaybe(rng->Bernoulli(0.5), !rng->Bernoulli(0.15));
    e.AppendMaybe(1600000000000000 + rng->UniformInt(0, 1 << 20) * 1000,
                  !rng->Bernoulli(0.1));
    if (rng->Bernoulli(0.1)) {
      f.AppendNull();
    } else {
      f.Append(static_cast<int32_t>(rng->Uniform(5)));
    }
  }
  auto dict = std::make_shared<const std::vector<std::string>>(
      std::vector<std::string>{"north", "south", "east", "west", "centre"});
  return MakeTable({{"a", a.Finish().ValueOrDie()},
                    {"b", b.Finish().ValueOrDie()},
                    {"c", c.Finish().ValueOrDie()},
                    {"d", d.Finish().ValueOrDie()},
                    {"e", e.Finish().ValueOrDie()},
                    {"f", f.Finish(dict).ValueOrDie()}});
}

TEST(SpillFilePropertyTest, RandomBlocksRoundTripInAnyReadOrder) {
  Rng rng(1);
  auto spill = sim::SpillFile::Create().ValueOrDie();
  struct Block {
    uint64_t offset;
    std::vector<uint8_t> bytes;
  };
  std::vector<Block> blocks;
  uint64_t total = 0;
  for (int i = 0; i < 200; ++i) {
    std::vector<uint8_t> bytes(1 + rng.Uniform(4096));
    for (uint8_t& byte : bytes) {
      byte = static_cast<uint8_t>(rng.Uniform(256));
    }
    auto offset = spill->Write(bytes.data(), bytes.size()).ValueOrDie();
    EXPECT_EQ(offset, total);  // strictly appending
    total += bytes.size();
    blocks.push_back({offset, std::move(bytes)});
  }
  EXPECT_EQ(spill->bytes_written(), total);

  // Read back in a shuffled order, twice (reads must not disturb state).
  std::vector<size_t> order(blocks.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.Uniform(i)]);
  }
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t idx : order) {
      const Block& block = blocks[idx];
      std::vector<uint8_t> out(block.bytes.size());
      ASSERT_OK(spill->Read(block.offset, out.size(), out.data()));
      EXPECT_EQ(out, block.bytes) << "block " << idx << " pass " << pass;
    }
  }
}

TEST(SpillFilePropertyTest, InjectedShortWriteFailsCleanlyAndRearms) {
  FaultGuard guard;
  auto spill = sim::SpillFile::Create().ValueOrDie();
  std::vector<uint8_t> bytes(64, 0xAB);

  // Fuse allows exactly one more 64-byte write, then blows.
  sim::SpillFile::InjectFaults(/*write_bytes=*/64, /*read_bytes=*/UINT64_MAX);
  ASSERT_OK(spill->Write(bytes.data(), bytes.size()).status());
  auto blown = spill->Write(bytes.data(), bytes.size());
  ASSERT_FALSE(blown.ok());
  EXPECT_TRUE(blown.status().IsIOError()) << blown.status().ToString();
  EXPECT_NE(blown.status().ToString().find("injected short write"),
            std::string::npos)
      << blown.status().ToString();

  // Disarming restores service; earlier bytes are intact.
  sim::SpillFile::ClearFaults();
  ASSERT_OK(spill->Write(bytes.data(), bytes.size()).status());
  std::vector<uint8_t> out(64);
  ASSERT_OK(spill->Read(0, out.size(), out.data()));
  EXPECT_EQ(out, bytes);
}

TEST(SpillFilePropertyTest, InjectedShortReadFailsCleanly) {
  FaultGuard guard;
  auto spill = sim::SpillFile::Create().ValueOrDie();
  std::vector<uint8_t> bytes(128, 0x5C);
  ASSERT_OK(spill->Write(bytes.data(), bytes.size()).status());

  sim::SpillFile::InjectFaults(/*write_bytes=*/UINT64_MAX, /*read_bytes=*/64);
  std::vector<uint8_t> out(64);
  ASSERT_OK(spill->Read(0, 64, out.data()));
  Status blown = spill->Read(64, 64, out.data());
  ASSERT_FALSE(blown.ok());
  EXPECT_TRUE(blown.IsIOError()) << blown.ToString();
  EXPECT_NE(blown.ToString().find("injected short read"), std::string::npos)
      << blown.ToString();
  sim::SpillFile::ClearFaults();
  ASSERT_OK(spill->Read(64, 64, out.data()));
}

TEST(SpillFrameStoreTest, RandomFramesRoundTripPerPartition) {
  Rng rng(7);
  auto store = SpillFrameStore::Create(3).ValueOrDie();
  std::vector<std::vector<TablePtr>> appended(3);
  for (int i = 0; i < 30; ++i) {
    const int partition = static_cast<int>(rng.Uniform(3));
    const int64_t rows = 1 + rng.UniformInt(0, 400);
    auto chunk = RandomChunk(&rng, rows + 16);
    // Every other chunk is a slice starting at an odd row (1, 3, ..., 15),
    // so its validity bits begin mid-byte and must be repacked.
    const int64_t offset = i % 2 == 0 ? 0 : 1 + 2 * rng.UniformInt(0, 7);
    chunk = chunk->Slice(offset, rows).ValueOrDie();
    ASSERT_OK(store->Append(partition, chunk));
    appended[static_cast<size_t>(partition)].push_back(chunk);
  }
  EXPECT_GT(store->bytes_written(), 0u);

  for (int p = 0; p < 3; ++p) {
    SCOPED_TRACE(p);
    const auto& expected = appended[static_cast<size_t>(p)];
    auto frames = store->ReadPartition(p).ValueOrDie();
    ASSERT_EQ(frames.size(), expected.size());
    int64_t rows = 0;
    for (size_t i = 0; i < frames.size(); ++i) {
      test::ExpectTablesEqual(expected[i], frames[i]);  // append order
      rows += expected[i]->num_rows();
    }
    EXPECT_EQ(store->partition_rows(p), rows);
    EXPECT_EQ(store->partition_frames(p),
              static_cast<int64_t>(expected.size()));

    // The streaming cursor yields the same frames.
    auto stream = store->OpenPartition(p).ValueOrDie();
    for (const TablePtr& want : expected) {
      auto got = stream->Next().ValueOrDie();
      ASSERT_NE(got, nullptr);
      test::ExpectTablesEqual(want, got);
    }
    EXPECT_EQ(stream->Next().ValueOrDie(), nullptr);
  }
}

TEST(SpillFrameStoreTest, EmptyPartitionsAndSchemaRules) {
  Rng rng(9);
  auto store = SpillFrameStore::Create(1).ValueOrDie();
  auto chunk = RandomChunk(&rng, 50);

  // A schema-less partition streams nothing.
  const int bare = store->AddPartition();
  {
    auto stream = store->OpenPartition(bare).ValueOrDie();
    EXPECT_EQ(stream->Next().ValueOrDie(), nullptr);
  }

  // A zero-row append records the schema; the stream emits one typed empty
  // chunk (so downstream operators keep their column types).
  const int typed = store->AddPartition();
  ASSERT_OK(store->Append(typed, chunk->Slice(0, 0).ValueOrDie()));
  EXPECT_EQ(store->partition_frames(typed), 0);
  {
    auto stream = store->OpenPartition(typed).ValueOrDie();
    auto empty = stream->Next().ValueOrDie();
    ASSERT_NE(empty, nullptr);
    EXPECT_EQ(empty->num_rows(), 0);
    EXPECT_EQ(empty->schema()->names(), chunk->schema()->names());
    EXPECT_EQ(stream->Next().ValueOrDie(), nullptr);
  }

  // Appending a different schema to a committed partition is rejected.
  ASSERT_OK(store->Append(0, chunk));
  auto other = MakeTable({{"z", test::I64({1, 2, 3})}});
  EXPECT_FALSE(store->Append(0, other).ok());

  // Out-of-range partitions error instead of crashing.
  EXPECT_FALSE(store->Append(99, chunk).ok());
  EXPECT_FALSE(store->ReadPartition(-1).ok());
  EXPECT_FALSE(store->OpenPartition(99).ok());
  EXPECT_FALSE(SpillFrameStore::Create(-1).ok());
}

TEST(SpillFrameStoreTest, FaultsNeverSurfaceCorruptFrames) {
  FaultGuard guard;
  Rng rng(11);
  auto store = SpillFrameStore::Create(1).ValueOrDie();
  auto chunk = RandomChunk(&rng, 200);
  ASSERT_OK(store->Append(0, chunk));

  // Write fuse: the failed Append registers no frame, and the partition
  // still reads back exactly what was committed before the fault.
  sim::SpillFile::InjectFaults(/*write_bytes=*/16, /*read_bytes=*/UINT64_MAX);
  Status blown = store->Append(0, chunk);
  ASSERT_FALSE(blown.ok());
  EXPECT_TRUE(blown.IsIOError()) << blown.ToString();
  sim::SpillFile::ClearFaults();
  EXPECT_EQ(store->partition_frames(0), 1);
  auto frames = store->ReadPartition(0).ValueOrDie();
  ASSERT_EQ(frames.size(), 1u);
  test::ExpectTablesEqual(chunk, frames[0]);

  // Read fuse: a blown read is a clean error, and clearing it recovers.
  sim::SpillFile::InjectFaults(/*write_bytes=*/UINT64_MAX, /*read_bytes=*/8);
  auto bad = store->ReadPartition(0);
  ASSERT_FALSE(bad.ok());
  EXPECT_TRUE(bad.status().IsIOError()) << bad.status().ToString();
  sim::SpillFile::ClearFaults();
  ASSERT_OK(store->ReadPartition(0).status());
}

/// Lays `chunk` out as SpillFrameStore::Append does: every column through
/// the BCF chunk codec, uncompressed and unpadded, into one frame.
std::vector<uint8_t> EncodeFrame(const TablePtr& chunk,
                                 std::vector<io::ChunkMeta>* metas) {
  std::vector<uint8_t> frame;
  uint64_t size = 0;
  const io::ByteSink sink = [&frame](const void* data, size_t n) {
    const auto* begin = static_cast<const uint8_t*>(data);
    frame.insert(frame.end(), begin, begin + n);
    return Status::OK();
  };
  io::BcfWriteOptions pages;
  pages.compression = false;
  for (int c = 0; c < chunk->num_columns(); ++c) {
    metas->push_back(
        io::WriteChunk(chunk->column(c), pages, &size, sink).ValueOrDie());
  }
  return frame;
}

/// Decodes a frame as SpillFrameStore::ReadFrame does, from its index.
Result<TablePtr> DecodeFrame(const col::SchemaPtr& schema,
                             const std::vector<io::ChunkMeta>& metas,
                             int64_t rows, const std::vector<uint8_t>& frame) {
  std::vector<col::ArrayPtr> columns;
  for (size_t c = 0; c < metas.size(); ++c) {
    const io::ChunkMeta& meta = metas[c];
    BENTO_RETURN_NOT_OK(io::CheckChunkMeta(meta, rows, 0, frame.size()));
    BENTO_ASSIGN_OR_RETURN(
        auto column,
        io::ReadChunk(schema->field(static_cast<int>(c)).type, meta, rows,
                      frame.data() + meta.validity_offset,
                      frame.data() + meta.data_offset, nullptr));
    columns.push_back(std::move(column));
  }
  return col::Table::Make(schema, std::move(columns));
}

TEST(SpillFrameStoreTest, CorruptFrameBytesFailCleanly) {
  // bcf_robustness_test's hostile-bytes sweep, run on a spill frame: seeded
  // truncations and byte flips of one frame, decoded through the chunk codec
  // against the frame's in-memory index. Each decode returns a Status or a
  // table with the indexed row count, and never crashes.
  Rng rng(13);
  const int64_t rows = 300;
  auto chunk = RandomChunk(&rng, rows);
  std::vector<io::ChunkMeta> metas;
  const std::vector<uint8_t> frame = EncodeFrame(chunk, &metas);
  test::ExpectTablesEqual(
      chunk, DecodeFrame(chunk->schema(), metas, rows, frame).ValueOrDie());
  // The store writes exactly this frame: its pages and nothing else.
  auto store = SpillFrameStore::Create(1).ValueOrDie();
  ASSERT_OK(store->Append(0, chunk));
  EXPECT_EQ(store->bytes_written(), frame.size());

  int truncations = 0;
  int failures = 0;
  for (uint64_t seed = 0; seed < 300; ++seed) {
    SCOPED_TRACE(seed);
    Rng mutate(seed);
    std::vector<uint8_t> bytes = frame;
    if (seed % 3 == 0) {
      // A fresh allocation of exactly the kept bytes, so a decode that
      // reads past them leaves the heap block (ASan reports it).
      bytes = std::vector<uint8_t>(
          frame.begin(),
          frame.begin() + static_cast<ptrdiff_t>(mutate.Uniform(frame.size())));
      ++truncations;
    } else {
      for (uint64_t k = 1 + mutate.Uniform(8); k > 0; --k) {
        bytes[mutate.Uniform(bytes.size())] ^=
            static_cast<uint8_t>(1 + mutate.Uniform(255));
      }
    }
    auto decoded = DecodeFrame(chunk->schema(), metas, rows, bytes);
    if (decoded.ok()) {
      EXPECT_EQ(decoded.ValueOrDie()->num_rows(), rows);
    } else {
      ++failures;
    }
  }
  // A truncated frame can never pass the meta check of its last column.
  EXPECT_GE(failures, truncations);
}

/// Integer-valued table with a heavily skewed key: ~90% of rows share key 0,
/// so one spill partition carries almost all the data while others are near
/// empty (some genuinely empty at low partition counts).
TablePtr SkewedTable(int64_t rows, uint64_t seed, int64_t key_card) {
  Rng rng(seed);
  col::Int64Builder k;
  col::Float64Builder v;
  for (int64_t i = 0; i < rows; ++i) {
    k.Append(rng.Bernoulli(0.9) ? 0 : rng.UniformInt(1, key_card - 1));
    v.AppendMaybe(static_cast<double>(rng.UniformInt(0, 100)),
                  !rng.Bernoulli(0.1));
  }
  return MakeTable(
      {{"k", k.Finish().ValueOrDie()}, {"v", v.Finish().ValueOrDie()}});
}

TEST(SpillMergePropertyTest, GroupBySpillMergeMatchesUnderSkew) {
  std::vector<AggSpec> aggs = {{"v", AggKind::kSum, "v_sum"},
                               {"v", AggKind::kCount, "v_cnt"},
                               {"v", AggKind::kMin, "v_min"},
                               {"v", AggKind::kStd, "v_std"}};
  frame::ExecPolicy policy;
  for (uint64_t seed : {21, 22, 23}) {
    auto t = SkewedTable(5000, seed, /*key_card=*/200);
    auto eager = kern::GroupBy(t, {"k"}, aggs).ValueOrDie();
    for (int partitions : {2, 4, 32}) {
      SCOPED_TRACE("seed=" + std::to_string(seed) +
                   " partitions=" + std::to_string(partitions));
      StreamingGroupByOptions options;
      options.spill_partitions = partitions;
      options.spill_threshold_bytes = 0;
      TableChunkStream stream(t, 123);
      auto spilled =
          StreamingGroupBy(&stream, {"k"}, aggs, policy, options).ValueOrDie();
      test::ExpectTablesEqual(eager, spilled);
    }
  }
}

TEST(SpillMergePropertyTest, ExternalSortTinyRunsMatchInMemorySort) {
  Rng rng(31);
  // Heavy duplication in the key exercises merge stability: equal keys must
  // come out in input order, exactly as the in-memory stable sort emits them.
  col::Int64Builder k;
  col::Float64Builder v;
  for (int64_t i = 0; i < 4000; ++i) {
    k.Append(rng.UniformInt(0, 7));
    v.AppendMaybe(static_cast<double>(rng.UniformInt(0, 50)),
                  !rng.Bernoulli(0.1));
  }
  auto t = MakeTable(
      {{"k", k.Finish().ValueOrDie()}, {"v", v.Finish().ValueOrDie()}});
  std::vector<kern::SortKey> keys = {{"k", true}, {"v", false}};
  auto expected = kern::SortTable(t, keys).ValueOrDie();
  for (int64_t run_rows : {64, 555, 100000}) {
    SCOPED_TRACE(run_rows);
    TableChunkStream stream(t, 321);
    auto path = ExternalSortToFile(&stream, keys, {}, run_rows).ValueOrDie();
    auto sorted =
        io::BcfReader::Open(path).ValueOrDie()->ReadAll().ValueOrDie();
    std::remove(path.c_str());
    test::ExpectTablesEqual(expected, sorted);
  }
}

TEST(SpillMergePropertyTest, GroupBySpillWriteFaultAbortsCleanly) {
  FaultGuard guard;
  auto t = SkewedTable(3000, 41, /*key_card=*/100);
  StreamingGroupByOptions options;
  options.spill_threshold_bytes = 0;
  // Let a few frames through, then blow mid-spill.
  sim::SpillFile::InjectFaults(/*write_bytes=*/4096,
                               /*read_bytes=*/UINT64_MAX);
  TableChunkStream stream(t, 100);
  auto result = StreamingGroupBy(&stream, {"k"},
                                 {{"v", AggKind::kSum, "v_sum"}}, {}, options);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsIOError()) << result.status().ToString();
  EXPECT_NE(result.status().ToString().find("injected"), std::string::npos)
      << result.status().ToString();
}

TEST(SpillMergePropertyTest, ExternalSortReadFaultAbortsCleanly) {
  FaultGuard guard;
  auto t = SkewedTable(3000, 43, /*key_card=*/100);
  // Runs spill fine; the k-way merge's reads hit the fuse.
  sim::SpillFile::InjectFaults(/*write_bytes=*/UINT64_MAX,
                               /*read_bytes=*/2048);
  TableChunkStream stream(t, 300);
  auto result =
      ExternalSortToFile(&stream, {{"k", true}}, {}, /*run_rows=*/200);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsIOError()) << result.status().ToString();
}

}  // namespace
}  // namespace bento::eng
