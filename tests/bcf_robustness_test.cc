#include <gtest/gtest.h>

#include <unistd.h>

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "io/bcf.h"
#include "io/compress.h"
#include "tests/test_util.h"
#include "util/random.h"

// Robustness of the BCF reader against damaged files — truncation, bad
// magic, corrupt row-group headers — and a differential lock that the mmap
// zero-copy path decodes every layout exactly like the buffered path.

namespace bento::io {
namespace {

using col::TablePtr;
using test::MakeTable;

class MmapEnvGuard {
 public:
  explicit MmapEnvGuard(const char* value) {
    if (value != nullptr) {
      setenv("BENTO_BCF_MMAP", value, 1);
    } else {
      unsetenv("BENTO_BCF_MMAP");
    }
  }
  ~MmapEnvGuard() { unsetenv("BENTO_BCF_MMAP"); }
};

std::string TempPath(const char* tag) {
  return "/tmp/bento_bcf_robust_" + std::to_string(::getpid()) + "_" + tag +
         ".bcf";
}

TablePtr SampleTable(int64_t rows, uint64_t seed) {
  Rng rng(seed);
  col::Int64Builder i;
  col::Float64Builder f;
  col::StringBuilder s;
  col::BoolBuilder b;
  for (int64_t r = 0; r < rows; ++r) {
    i.AppendMaybe(rng.UniformInt(-5000, 5000), !rng.Bernoulli(0.1));
    f.AppendMaybe(rng.UniformDouble(-10, 10), !rng.Bernoulli(0.2));
    s.AppendMaybe("v" + std::to_string(rng.UniformInt(0, 30)),
                  !rng.Bernoulli(0.05));
    b.AppendMaybe(rng.Bernoulli(0.5), !rng.Bernoulli(0.1));
  }
  return MakeTable({{"i", i.Finish().ValueOrDie()},
                    {"f", f.Finish().ValueOrDie()},
                    {"s", s.Finish().ValueOrDie()},
                    {"b", b.Finish().ValueOrDie()}});
}

std::vector<uint8_t> ReadFileBytes(const std::string& path) {
  FILE* f = fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  fseek(f, 0, SEEK_END);
  std::vector<uint8_t> bytes(static_cast<size_t>(ftell(f)));
  fseek(f, 0, SEEK_SET);
  EXPECT_EQ(fread(bytes.data(), 1, bytes.size(), f), bytes.size());
  fclose(f);
  return bytes;
}

void WriteFileBytes(const std::string& path,
                    const std::vector<uint8_t>& bytes) {
  FILE* f = fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  // An empty vector's data() may be null, which fwrite must never receive.
  if (!bytes.empty()) {
    ASSERT_EQ(fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  }
  fclose(f);
}

/// Splits a valid BCF image into (data pages, footer JSON); rebuilds a valid
/// image around a mutated footer so header-level corruption can be injected
/// without breaking the framing.
struct SplitFile {
  std::vector<uint8_t> data;  // "BCF1" + pages
  std::string footer;
};

SplitFile SplitBcf(const std::vector<uint8_t>& bytes) {
  SplitFile out;
  uint64_t footer_len = 0;
  std::memcpy(&footer_len, bytes.data() + bytes.size() - 12, 8);
  const size_t footer_at = bytes.size() - 12 - footer_len;
  out.data.assign(bytes.begin(), bytes.begin() + footer_at);
  out.footer.assign(bytes.begin() + footer_at,
                    bytes.begin() + footer_at + footer_len);
  return out;
}

std::vector<uint8_t> JoinBcf(const SplitFile& split) {
  std::vector<uint8_t> bytes = split.data;
  bytes.insert(bytes.end(), split.footer.begin(), split.footer.end());
  const uint64_t footer_len = split.footer.size();
  const size_t at = bytes.size();
  bytes.resize(at + 8);
  std::memcpy(bytes.data() + at, &footer_len, 8);
  const char magic[4] = {'B', 'C', 'F', '1'};
  bytes.insert(bytes.end(), magic, magic + 4);
  return bytes;
}

/// Replaces the digits following the first `"<key>":` with `digits`.
void PatchFooterInt(std::string* footer, const std::string& key,
                    const std::string& digits) {
  const std::string needle = "\"" + key + "\":";
  const size_t at = footer->find(needle);
  ASSERT_NE(at, std::string::npos) << key;
  size_t end = at + needle.size();
  while (end < footer->size() &&
         (isdigit((*footer)[end]) || (*footer)[end] == '-')) {
    ++end;
  }
  footer->replace(at + needle.size(), end - (at + needle.size()), digits);
}

void ExpectOpenFailsBothModes(const std::string& path) {
  for (bool use_mmap : {false, true}) {
    BcfReadOptions options;
    options.use_mmap = use_mmap;
    auto reader = BcfReader::Open(path, options);
    EXPECT_FALSE(reader.ok()) << path << " mmap=" << use_mmap;
  }
}

class BcfRobustnessTest : public ::testing::Test {
 protected:
  void SetUp() override {
    table_ = SampleTable(2000, 77);
    path_ = TempPath("base");
    BcfWriteOptions options;
    options.row_group_rows = 300;
    options.align_pages = true;
    options.compression = false;
    ASSERT_OK(WriteBcf(table_, path_, options));
    bytes_ = ReadFileBytes(path_);
    ASSERT_GT(bytes_.size(), 32u);
  }

  void TearDown() override {
    std::remove(path_.c_str());
    std::remove(mutant_.c_str());
  }

  /// Writes `bytes` to the mutant path and returns it.
  const std::string& Mutant(const std::vector<uint8_t>& bytes) {
    mutant_ = TempPath("mutant");
    WriteFileBytes(mutant_, bytes);
    return mutant_;
  }

  TablePtr table_;
  std::string path_;
  std::string mutant_;
  std::vector<uint8_t> bytes_;
};

TEST_F(BcfRobustnessTest, TruncatedFilesRejectedCleanly) {
  // Every truncation class: below the minimum frame, inside the pages,
  // inside the footer, and one byte short of the tail magic.
  for (size_t keep :
       {size_t{0}, size_t{3}, size_t{15}, bytes_.size() / 2,
        bytes_.size() - 20, bytes_.size() - 1}) {
    SCOPED_TRACE(keep);
    ExpectOpenFailsBothModes(
        Mutant(std::vector<uint8_t>(bytes_.begin(),
                                    bytes_.begin() + keep)));
  }
}

TEST_F(BcfRobustnessTest, BadMagicRejected) {
  auto head = bytes_;
  head[0] = 'X';
  ExpectOpenFailsBothModes(Mutant(head));

  auto tail = bytes_;
  tail[tail.size() - 1] = 'X';
  ExpectOpenFailsBothModes(Mutant(tail));
}

TEST_F(BcfRobustnessTest, OversizedFooterLengthRejected) {
  auto bytes = bytes_;
  const uint64_t huge = bytes.size() * 16;
  std::memcpy(bytes.data() + bytes.size() - 12, &huge, 8);
  ExpectOpenFailsBothModes(Mutant(bytes));
}

TEST_F(BcfRobustnessTest, CorruptRowGroupHeaderRejected) {
  // Value-page offset pointing past the data region.
  {
    SplitFile split = SplitBcf(bytes_);
    PatchFooterInt(&split.footer, "do", "4009999999");
    ExpectOpenFailsBothModes(Mutant(JoinBcf(split)));
  }
  // Value-page size overflowing the data region.
  {
    SplitFile split = SplitBcf(bytes_);
    PatchFooterInt(&split.footer, "ds", "4009999999");
    ExpectOpenFailsBothModes(Mutant(JoinBcf(split)));
  }
  // Encoding id outside the enum.
  {
    SplitFile split = SplitBcf(bytes_);
    PatchFooterInt(&split.footer, "enc", "9");
    ExpectOpenFailsBothModes(Mutant(JoinBcf(split)));
  }
  // Footer that is not JSON at all.
  {
    SplitFile split = SplitBcf(bytes_);
    split.footer = std::string(split.footer.size(), '@');
    ExpectOpenFailsBothModes(Mutant(JoinBcf(split)));
  }
}

TEST_F(BcfRobustnessTest, MmapAndBufferedReadsAreIdentical) {
  // Sweep every layout class: aligned/unaligned pages x compressed/plain.
  // Aligned uncompressed pages take the zero-copy path; everything else
  // falls back to buffered decode inside the same reader.
  for (bool align : {false, true}) {
    for (bool compress : {false, true}) {
      SCOPED_TRACE("align=" + std::to_string(align) +
                   " compress=" + std::to_string(compress));
      const std::string path = TempPath("layout");
      BcfWriteOptions wopts;
      wopts.row_group_rows = 450;
      wopts.align_pages = align;
      wopts.compression = compress;
      ASSERT_OK(WriteBcf(table_, path, wopts));

      BcfReadOptions buffered;
      auto plain = BcfReader::Open(path, buffered).ValueOrDie();
      EXPECT_FALSE(plain->mmap_active());

      BcfReadOptions mapped;
      mapped.use_mmap = true;
      auto mm = BcfReader::Open(path, mapped).ValueOrDie();
      EXPECT_TRUE(mm->mmap_active());

      test::ExpectTablesEqual(plain->ReadAll().ValueOrDie(),
                              mm->ReadAll().ValueOrDie());
      test::ExpectTablesEqual(table_, mm->ReadAll().ValueOrDie());
      // Projected per-group reads agree too.
      for (int g = 0; g < mm->num_row_groups(); ++g) {
        test::ExpectTablesEqual(
            plain->ReadRowGroup(g, {"i", "s"}).ValueOrDie(),
            mm->ReadRowGroup(g, {"i", "s"}).ValueOrDie());
      }
      std::remove(path.c_str());
    }
  }
}

TEST_F(BcfRobustnessTest, DoneWithGroupKeepsDataReadable) {
  BcfReadOptions options;
  options.use_mmap = true;
  auto reader = BcfReader::Open(path_, options).ValueOrDie();
  ASSERT_TRUE(reader->mmap_active());
  ASSERT_GE(reader->num_row_groups(), 2);

  auto first = reader->ReadRowGroup(0).ValueOrDie();
  reader->DoneWithGroup(0);
  reader->DoneWithGroup(-1);   // out of range: no-op
  reader->DoneWithGroup(999);  // out of range: no-op
  // Dropped pages fault back in: the group re-reads bit-identically, and
  // zero-copy views handed out before the advise stay valid.
  auto again = reader->ReadRowGroup(0).ValueOrDie();
  test::ExpectTablesEqual(first, again);
  test::ExpectTablesEqual(first, reader->ReadRowGroup(0).ValueOrDie());
}

TEST_F(BcfRobustnessTest, ZeroCopyViewsOutliveTheReader) {
  BcfReadOptions options;
  options.use_mmap = true;
  TablePtr held;
  {
    auto reader = BcfReader::Open(path_, options).ValueOrDie();
    ASSERT_TRUE(reader->mmap_active());
    held = reader->ReadAll().ValueOrDie();
  }
  // The mapping is co-owned by the column buffers; destroying the reader
  // must not unmap bytes still referenced by `held`.
  test::ExpectTablesEqual(table_, held);
}

TEST(LzRegressionTest, WindowEdgeMatchRoundTrips) {
  // 64 KiB of random bytes repeated twice: thousands of positions in the
  // second copy match exactly one window back. A compressor that accepts
  // distance == 64 KiB wraps the 16-bit distance to 0 and the stream fails
  // to decode (hit in the wild by >64 KiB row-group pages).
  Rng rng(123);
  std::vector<uint8_t> half(64 * 1024);
  for (uint8_t& b : half) b = static_cast<uint8_t>(rng.Uniform(256));
  std::vector<uint8_t> data = half;
  data.insert(data.end(), half.begin(), half.end());

  auto packed = LzCompress(data.data(), data.size());
  auto unpacked =
      LzDecompress(packed.data(), packed.size(), data.size()).ValueOrDie();
  EXPECT_EQ(unpacked, data);
}

TEST_F(BcfRobustnessTest, MmapEnvOverridesOption) {
  {
    MmapEnvGuard guard("off");
    BcfReadOptions options;
    options.use_mmap = true;
    auto reader = BcfReader::Open(path_, options).ValueOrDie();
    EXPECT_FALSE(reader->mmap_active());
  }
  {
    MmapEnvGuard guard("1");
    auto reader = BcfReader::Open(path_).ValueOrDie();
    EXPECT_TRUE(reader->mmap_active());
    test::ExpectTablesEqual(table_, reader->ReadAll().ValueOrDie());
  }
}

}  // namespace
}  // namespace bento::io
