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
#include "util/json.h"
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

/// Replaces the number following the `nth` (from 0) `"<key>":` with `digits`.
void PatchFooterInt(std::string* footer, const std::string& key,
                    const std::string& digits, size_t nth = 0) {
  const std::string needle = "\"" + key + "\":";
  size_t at = footer->find(needle);
  for (; nth > 0 && at != std::string::npos; --nth) {
    at = footer->find(needle, at + 1);
  }
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
  // The chunk meta check: a validity page shorter than BitmapBytes(rows)
  // (1 byte for the 300-row DICT string column "s" with nulls, which a
  // DICT decode would read past), a negative row count, and null counts
  // outside [0, rows].
  for (const auto& [key, digits, nth] :
       {std::tuple{"vs", "1", 2}, {"rows", "-3", 0}, {"nc", "-1", 0},
        {"nc", "301", 0}}) {
    SCOPED_TRACE(std::string(key) + "=" + digits);
    SplitFile split = SplitBcf(bytes_);
    PatchFooterInt(&split.footer, key, digits, nth);
    ExpectOpenFailsBothModes(Mutant(JoinBcf(split)));
  }
  // Integers outside int64_t's range.
  for (const char* key : {"rows", "num_rows", "vo", "nc"}) {
    SCOPED_TRACE(key);
    SplitFile split = SplitBcf(bytes_);
    PatchFooterInt(&split.footer, key, "1e300");
    ExpectOpenFailsBothModes(Mutant(JoinBcf(split)));
  }
  // A row count no value page can hold, on columns without nulls (so no
  // validity page bounds it): rejected before a decoder sizes a buffer by
  // it or wraps (rows + 1) * 8 over a STRVIEW page.
  {
    auto no_nulls = MakeTable({{"k", test::I64({1, 2, 3})},
                               {"w", test::Str({"x", "yy", "zzz"})}});
    ASSERT_OK(WriteBcf(no_nulls, path_));
    SplitFile split = SplitBcf(ReadFileBytes(path_));
    PatchFooterInt(&split.footer, "rows", "2305843009213693952");
    ExpectOpenFailsBothModes(Mutant(JoinBcf(split)));
  }
  // A compressed page whose raw size the LZ format cannot reach: rejected
  // before anything allocates it.
  {
    BcfWriteOptions options;
    options.row_group_rows = 300;
    ASSERT_OK(WriteBcf(table_, path_, options));
    SplitFile split = SplitBcf(ReadFileBytes(path_));
    const size_t z = split.footer.find("\"z\":true");
    ASSERT_NE(z, std::string::npos);
    size_t nth = 0;
    for (size_t at = split.footer.find("\"rs\":");
         split.footer.find("\"rs\":", at + 1) < z;
         at = split.footer.find("\"rs\":", at + 1)) {
      ++nth;
    }
    PatchFooterInt(&split.footer, "rs", "4000000000000000000", nth);
    ExpectOpenFailsBothModes(Mutant(JoinBcf(split)));
  }
}

TEST_F(BcfRobustnessTest, CorruptRowGroupBytesFailCleanly) {
  // Seeded truncations and byte flips of one row group's pages, read in
  // both modes, as strings and as categoricals: each read returns a Status
  // or a table with the footer's row count, and never crashes. The mappable
  // layout puts STRVIEW and PLAIN pages on the mmap zero-copy path.
  struct Layout {
    bool compression, mappable;
  };
  const std::string path = TempPath("sweep");
  for (const Layout& layout :
       {Layout{false, false}, Layout{true, false}, Layout{false, true}}) {
    SCOPED_TRACE("compression=" + std::to_string(layout.compression) +
                 " mappable=" + std::to_string(layout.mappable));
    BcfWriteOptions options;
    options.row_group_rows = 300;
    options.align_pages = true;
    options.compression = layout.compression;
    options.mappable = layout.mappable;
    ASSERT_OK(WriteBcf(table_, path, options));
    const std::vector<uint8_t> bytes = ReadFileBytes(path);
    const JsonValue group =
        ParseJson(SplitBcf(bytes).footer).ValueOrDie().Get("groups").at(1);
    const int64_t rows = group.GetInt("rows");
    uint64_t lo = UINT64_MAX, hi = 0;  // the group's page bytes
    for (const JsonValue& cj : group.Get("columns").items()) {
      for (const auto& [off, size] : {std::pair{"vo", "vs"}, {"do", "ds"}}) {
        if (cj.GetInt(size) == 0) continue;
        lo = std::min(lo, static_cast<uint64_t>(cj.GetInt(off)));
        hi = std::max(hi,
                      static_cast<uint64_t>(cj.GetInt(off) + cj.GetInt(size)));
      }
    }
    ASSERT_LT(lo, hi);

    for (uint64_t seed = 0; seed < 150; ++seed) {
      SCOPED_TRACE(seed);
      Rng mutate(seed);
      std::vector<uint8_t> mutant = bytes;
      if (seed % 3 == 0) {
        // Truncated pages: from a random cut on, the group reads as zeros
        // (the footer stays intact, so the file still opens).
        std::fill(mutant.begin() + static_cast<ptrdiff_t>(
                                       lo + mutate.Uniform(hi - lo)),
                  mutant.begin() + static_cast<ptrdiff_t>(hi), 0);
      } else {
        for (uint64_t k = 1 + mutate.Uniform(8); k > 0; --k) {
          mutant[lo + mutate.Uniform(hi - lo)] ^=
              static_cast<uint8_t>(1 + mutate.Uniform(255));
        }
      }
      const std::string& damaged = Mutant(mutant);
      for (bool use_mmap : {false, true}) {
        for (bool categorical : {false, true}) {
          BcfReadOptions read;
          read.use_mmap = use_mmap;
          read.strings_as_categorical = categorical;
          auto reader = BcfReader::Open(damaged, read).ValueOrDie();
          auto table = reader->ReadRowGroup(1);
          if (table.ok()) {
            EXPECT_EQ(table.ValueOrDie()->num_rows(), rows);
          }
        }
      }
    }
  }
  std::remove(path.c_str());
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

/// Fixed seven-column table covering every page encoding (DELTA, PLAIN,
/// DICT, STRVIEW, RLE) with and without nulls. Values come from closed-form
/// arithmetic, not a PRNG, so the bytes written never depend on one.
TablePtr GoldenTable() {
  const int64_t rows = 1000;
  col::Int64Builder i;
  col::Float64Builder f;
  col::StringBuilder s;
  col::StringBuilder u;
  col::BoolBuilder b;
  col::TimestampBuilder t;
  col::CategoricalBuilder c;
  for (int64_t r = 0; r < rows; ++r) {
    i.AppendMaybe((r * 7919) % 10007 - 5000, r % 11 != 3);
    f.AppendMaybe(static_cast<double>(r % 97) * 0.25 - 7.5, r % 13 != 5);
    s.AppendMaybe("city_" + std::to_string(r % 17), r % 19 != 7);
    u.Append("id-" + std::to_string(r * 104729 % 1000003));
    b.AppendMaybe(r % 3 == 0 || r % 7 == 0, r % 23 != 1);
    t.Append(1600000000000000 + r * 60000000 + (r % 5) * 1000);
    if (r % 29 == 4) {
      c.AppendNull();
    } else {
      c.Append(static_cast<int32_t>(r % 4));
    }
  }
  auto dict = std::make_shared<const std::vector<std::string>>(
      std::vector<std::string>{"red", "green", "blue", "violet"});
  return MakeTable({{"i", i.Finish().ValueOrDie()},
                    {"f", f.Finish().ValueOrDie()},
                    {"s", s.Finish().ValueOrDie()},
                    {"u", u.Finish().ValueOrDie()},
                    {"b", b.Finish().ValueOrDie()},
                    {"t", t.Finish().ValueOrDie()},
                    {"c", c.Finish(dict).ValueOrDie()}});
}

uint64_t Fnv1a64(const std::vector<uint8_t>& bytes) {
  uint64_t h = 14695981039346656037ull;
  for (uint8_t byte : bytes) {
    h ^= byte;
    h *= 1099511628211ull;
  }
  return h;
}

TEST(BcfGoldenTest, WriteBcfBytesAreStable) {
  // FNV-1a of WriteBcf's output over the four writer option axes, recorded
  // before the column-chunk codec was shared with the spill frames. A
  // mismatch means the on-disk format changed: existing files may no
  // longer open, so the change needs a new format version, not a new hash.
  struct Golden {
    bool compression, align_pages, mappable;
    int64_t row_group_rows;
    uint64_t hash;
  };
  const Golden kGolden[] = {
      {false, false, false, 300, 6241151620391975109ull},
      {false, false, false, 0, 16924773813314034020ull},
      {false, false, true, 300, 17651554391196284464ull},
      {false, false, true, 0, 11819777291015575473ull},
      {false, true, false, 300, 10557883654782490172ull},
      {false, true, false, 0, 1043450094785097490ull},
      {false, true, true, 300, 13547418842851081756ull},
      {false, true, true, 0, 4142294439399830730ull},
      {true, false, false, 300, 11413033387877265995ull},
      {true, false, false, 0, 18371324078582745956ull},
      {true, false, true, 300, 568805770323624068ull},
      {true, false, true, 0, 4455636276678157711ull},
      {true, true, false, 300, 18075123388163181463ull},
      {true, true, false, 0, 10664622055396929040ull},
      {true, true, true, 300, 10641426860431782838ull},
      {true, true, true, 0, 1144529108910065323ull},
  };
  const TablePtr table = GoldenTable();
  const std::string path = TempPath("golden");
  for (const Golden& g : kGolden) {
    SCOPED_TRACE("compression=" + std::to_string(g.compression) +
                 " align_pages=" + std::to_string(g.align_pages) +
                 " mappable=" + std::to_string(g.mappable) +
                 " row_group_rows=" + std::to_string(g.row_group_rows));
    BcfWriteOptions options;
    options.compression = g.compression;
    options.align_pages = g.align_pages;
    options.mappable = g.mappable;
    options.row_group_rows = g.row_group_rows;
    ASSERT_OK(WriteBcf(table, path, options));
    EXPECT_EQ(Fnv1a64(ReadFileBytes(path)), g.hash);
    for (bool use_mmap : {false, true}) {
      BcfReadOptions read;
      read.use_mmap = use_mmap;
      auto reader = BcfReader::Open(path, read).ValueOrDie();
      test::ExpectTablesEqual(table, reader->ReadAll().ValueOrDie());
    }
  }
  std::remove(path.c_str());
}

TEST(HostilePageTest, DecodersRejectImpossiblePages) {
  // Value pages a damaged file can hold, handed straight to the decoders.
  auto decode = [](col::TypeId type, Encoding encoding,
                   const std::vector<uint8_t>& page, int64_t rows) {
    return DecodeArray(type, encoding, page.data(), page.size(), rows,
                       nullptr, 0);
  };
  // A DICT page declaring 2^32 - 1 entries in 8 bytes: rejected before the
  // dictionary is reserved.
  EXPECT_FALSE(decode(col::TypeId::kString, Encoding::kDict,
                      {0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0}, 1)
                   .ok());
  // An RLE run past 2^63, far longer than the chunk.
  std::vector<uint8_t> rle;
  PutVarint(UINT64_MAX - 3, &rle);
  rle.push_back(1);
  EXPECT_FALSE(decode(col::TypeId::kBool, Encoding::kRle, rle, 4).ok());
  // A categorical column needs a DICT page: PLAIN codes have no dictionary.
  EXPECT_FALSE(decode(col::TypeId::kCategorical, Encoding::kPlain,
                      std::vector<uint8_t>(16, 0), 4)
                   .ok());
  // DELTA steps between the int64 extremes wrap, in the encoder and the
  // decoder alike, so the extremes round-trip without signed overflow.
  auto extremes = test::I64({INT64_MIN, INT64_MAX, INT64_MIN, 0});
  auto page = EncodeArray(extremes, Encoding::kDelta).ValueOrDie();
  auto back = decode(col::TypeId::kInt64, Encoding::kDelta, page, 4);
  ASSERT_OK(back.status());
  for (int64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(back.ValueOrDie()->int64_data()[i], extremes->int64_data()[i]);
  }
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
