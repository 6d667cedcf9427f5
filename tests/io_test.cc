#include <gtest/gtest.h>

#include <unistd.h>

#include <bit>
#include <cfloat>
#include <climits>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include "datagen/datasets.h"
#include "engines/chunk_stream.h"
#include "io/bcf.h"
#include "io/compress.h"
#include "io/csv.h"
#include "io/encoding.h"
#include "kernels/cast.h"
#include "obs/metrics.h"
#include "tests/test_util.h"
#include "util/random.h"
#include "util/string_util.h"

namespace bento::io {
namespace {

using col::TablePtr;
using col::TypeId;
using test::Bools;
using test::F64;
using test::I64;
using test::MakeTable;
using test::Str;

class TempPath {
 public:
  explicit TempPath(const std::string& suffix) {
    static int counter = 0;
    path_ = "/tmp/bento_io_test_" + std::to_string(getpid()) + "_" +
            std::to_string(counter++) + suffix;
  }
  ~TempPath() { std::remove(path_.c_str()); }
  const std::string& str() const { return path_; }

 private:
  std::string path_;
};

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

// --- LZ codec ---

TEST(CompressTest, RoundTripsText) {
  std::string text =
      "the quick brown fox jumps over the lazy dog; the quick brown fox "
      "jumps again and again and again over the very same lazy dog";
  auto packed = LzCompress(reinterpret_cast<const uint8_t*>(text.data()),
                           text.size());
  EXPECT_LT(packed.size(), text.size());  // repetitive text must compress
  auto unpacked =
      LzDecompress(packed.data(), packed.size(), text.size()).ValueOrDie();
  EXPECT_EQ(std::string(unpacked.begin(), unpacked.end()), text);
}

TEST(CompressTest, RoundTripsRandomProperty) {
  Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    size_t n = rng.Uniform(5000);
    std::vector<uint8_t> data(n);
    // Mix random bytes with runs so both token kinds are exercised.
    for (size_t i = 0; i < n; ++i) {
      data[i] = rng.Bernoulli(0.5) ? static_cast<uint8_t>(rng.Uniform(256))
                                   : static_cast<uint8_t>(7);
    }
    auto packed = LzCompress(data.data(), data.size());
    auto unpacked =
        LzDecompress(packed.data(), packed.size(), data.size()).ValueOrDie();
    ASSERT_EQ(unpacked, data);
  }
}

TEST(CompressTest, RejectsCorruptStreams) {
  std::vector<uint8_t> bogus = {0x85, 0x01};  // match token, truncated
  EXPECT_FALSE(LzDecompress(bogus.data(), bogus.size(), 10).ok());
  std::vector<uint8_t> bad_dist = {0x80, 0xFF, 0x00};  // distance > output
  EXPECT_FALSE(LzDecompress(bad_dist.data(), bad_dist.size(), 4).ok());
}

TEST(CompressTest, EmptyInput) {
  auto packed = LzCompress(nullptr, 0);
  EXPECT_TRUE(LzDecompress(packed.data(), packed.size(), 0).ValueOrDie().empty());
}

// --- encodings ---

TEST(EncodingTest, VarintRoundTrip) {
  std::vector<uint8_t> buf;
  for (uint64_t v : std::vector<uint64_t>{0, 1, 127, 128, 300000, UINT64_MAX}) {
    buf.clear();
    PutVarint(v, &buf);
    size_t pos = 0;
    EXPECT_EQ(GetVarint(buf.data(), buf.size(), &pos).ValueOrDie(), v);
    EXPECT_EQ(pos, buf.size());
  }
}

TEST(EncodingTest, ZigZag) {
  for (int64_t v : std::vector<int64_t>{0, 1, -1, 1000, -1000, INT64_MAX, INT64_MIN}) {
    EXPECT_EQ(UnZigZag(ZigZag(v)), v);
  }
}

TEST(EncodingTest, RoundTripPerEncoding) {
  struct Case {
    col::ArrayPtr array;
    Encoding encoding;
  };
  std::vector<Case> cases = {
      {I64({5, 6, 7, 100, -3}, {true, true, false, true, true}),
       Encoding::kDelta},
      {I64({1, 2, 3}), Encoding::kPlain},
      {F64({1.5, -2.5, 0.0}, {true, false, true}), Encoding::kPlain},
      {Bools({true, true, false, false, true}), Encoding::kRle},
      {Str({"aa", "bb", "aa", ""}, {true, true, true, false}),
       Encoding::kPlain},
      {Str({"x", "y", "x", "x"}, {true, true, true, true}), Encoding::kDict},
      {Str({"aa", "bb", "", "dddd"}, {true, true, false, true}),
       Encoding::kStrView},
  };
  for (const Case& c : cases) {
    auto encoded = EncodeArray(c.array, c.encoding).ValueOrDie();
    auto decoded =
        DecodeArray(c.array->type(), c.encoding, encoded.data(), encoded.size(),
                    c.array->length(), c.array->validity_buffer(),
                    c.array->cached_null_count())
            .ValueOrDie();
    ASSERT_EQ(decoded->length(), c.array->length());
    for (int64_t i = 0; i < c.array->length(); ++i) {
      EXPECT_EQ(test::CellStr(*c.array, i), test::CellStr(*decoded, i))
          << "encoding " << static_cast<int>(c.encoding) << " row " << i;
    }
  }
}

TEST(EncodingTest, ChooseEncodingHeuristics) {
  EXPECT_EQ(ChooseEncoding(I64({1, 2})), Encoding::kDelta);
  EXPECT_EQ(ChooseEncoding(Bools({true})), Encoding::kRle);
  EXPECT_EQ(ChooseEncoding(F64({1.0})), Encoding::kPlain);
  // Low-cardinality strings pick DICT.
  std::vector<std::string> repeated(100, "abc");
  EXPECT_EQ(ChooseEncoding(Str(repeated)), Encoding::kDict);
  // High-cardinality strings pick the mmap-ready STRVIEW layout.
  std::vector<std::string> unique(100);
  for (int i = 0; i < 100; ++i) {
    unique[i] = std::string("s").append(std::to_string(i));
  }
  EXPECT_EQ(ChooseEncoding(Str(unique)), Encoding::kStrView);
}

// --- CSV ---

TablePtr SampleTable() {
  return MakeTable({
      {"id", I64({1, 2, 3, 4})},
      {"score", F64({1.5, -2.0, 0.0, 99.25}, {true, true, false, true})},
      {"name", Str({"alice", "bob,comma", "quote\"inside", ""},
                   {true, true, true, false})},
      {"flag", Bools({true, false, true, false})},
  });
}

TEST(CsvTest, WriteReadRoundTrip) {
  TempPath path(".csv");
  auto t = SampleTable();
  ASSERT_TRUE(WriteCsv(t, path.str()).ok());
  auto back = ReadCsv(path.str()).ValueOrDie();
  test::ExpectTablesEqual(t, back);
}

TEST(CsvTest, TypeInferenceLadder) {
  TempPath path(".csv");
  FILE* f = fopen(path.str().c_str(), "w");
  fputs("i,f,b,s,empty\n1,1.5,true,hello,\n2,2,false,world,\n", f);
  fclose(f);
  auto t = ReadCsv(path.str()).ValueOrDie();
  EXPECT_EQ(t->schema()->GetField("i").ValueOrDie().type, TypeId::kInt64);
  EXPECT_EQ(t->schema()->GetField("f").ValueOrDie().type, TypeId::kFloat64);
  EXPECT_EQ(t->schema()->GetField("b").ValueOrDie().type, TypeId::kBool);
  EXPECT_EQ(t->schema()->GetField("s").ValueOrDie().type, TypeId::kString);
  // All-null column defaults to string.
  EXPECT_EQ(t->schema()->GetField("empty").ValueOrDie().type, TypeId::kString);
  EXPECT_EQ(t->GetColumn("empty").ValueOrDie()->null_count(), 2);
}

TEST(CsvTest, NullLiterals) {
  TempPath path(".csv");
  FILE* f = fopen(path.str().c_str(), "w");
  fputs("x,y\n1,a\nNA,null\n3,NaN\n", f);
  fclose(f);
  auto t = ReadCsv(path.str()).ValueOrDie();
  EXPECT_EQ(t->GetColumn("x").ValueOrDie()->null_count(), 1);
  EXPECT_EQ(t->GetColumn("y").ValueOrDie()->null_count(), 2);
}

TEST(CsvTest, QuotedFieldsWithEmbeddedNewline) {
  TempPath path(".csv");
  FILE* f = fopen(path.str().c_str(), "w");
  fputs("a,b\n\"line1\nline2\",\"x,y\"\n", f);
  fclose(f);
  auto t = ReadCsv(path.str()).ValueOrDie();
  ASSERT_EQ(t->num_rows(), 1);
  EXPECT_EQ(t->GetColumn("a").ValueOrDie()->GetView(0), "line1\nline2");
  EXPECT_EQ(t->GetColumn("b").ValueOrDie()->GetView(0), "x,y");
}

TEST(CsvTest, QuotedFieldTortureRoundTrip) {
  // Every quoting hazard at once: embedded delimiters, embedded newlines
  // (both \n and \r\n), doubled quotes, quotes adjacent to delimiters, and
  // fields that are nothing but separators. Writer and both readers
  // (buffered and mmap/parallel) must agree cell-for-cell.
  // Strings equal to a reader null literal must come back as strings.
  auto t = MakeTable({
      {"left", Str({"a,b", ",", "\"", "line1\nline2", "crlf\r\nrest", ""},
                   {true, true, true, true, true, false})},
      {"right", Str({"she said \"hi\"", "\",\"", "\n", ",,,", "x", "tail"})},
      {"literals", Str({"NA", "null", "NaN", "", "nan", "N/A"})},
      {"n", I64({1, 2, 3, 4, 5, 6})},
  });
  TempPath path(".csv");
  ASSERT_TRUE(WriteCsv(t, path.str()).ok());
  test::ExpectTablesEqual(t, ReadCsv(path.str()).ValueOrDie());
  test::ExpectTablesEqual(t, ReadCsvMmap(path.str()).ValueOrDie());
  auto reader = CsvChunkReader::Open(path.str()).ValueOrDie();
  test::ExpectTablesEqual(t, reader->Next().ValueOrDie());
  EXPECT_EQ(reader->Next().ValueOrDie(), nullptr);
}

TEST(CsvTest, WriteCsvGoldenBytes) {
  // The writer's text contract for every column type: nulls are bare empty
  // fields (row 2), the empty string and null literals are quoted, floats
  // are the shortest round-trip "%g", timestamps are UTC seconds.
  const double nan = std::nan("");
  const std::vector<bool> row2_null = {true, true, false, true, true, true};
  auto t = MakeTable({
      {"i", I64({1, INT64_MIN, 0, 42, INT64_MAX, -7}, row2_null)},
      {"f", F64({0.1 + 0.2, -0.0, 0.0, 1e-5, nan, 1e16}, row2_null)},
      {"g", F64({HUGE_VAL, -HUGE_VAL, 0.0, 5e-324, DBL_MAX, 1e-4}, row2_null)},
      {"b", Bools({true, false, false, true, false, true}, row2_null)},
      {"s", Str({"plain", "", "", "a,\"b\"", "NA", "line\nbreak"}, row2_null)},
      {"t", kern::Cast(I64({0, 1700000000123456, 0, -1000000, 951782400000000,
                            1},
                           row2_null),
                       TypeId::kTimestamp)
                .ValueOrDie()},
      {"c", kern::Cast(Str({"x", "NaN", "", "", "null", "x"}, row2_null),
                       TypeId::kCategorical)
                .ValueOrDie()},
  });
  const std::string expected =
      "i,f,g,b,s,t,c\n"
      "1,0.30000000000000004,inf,true,plain,1970-01-01 00:00:00,x\n"
      "-9223372036854775808,-0,-inf,false,\"\",2023-11-14 22:13:20,\"NaN\"\n"
      ",,,,,,\n"
      "42,1e-05,5e-324,true,\"a,\"\"b\"\"\",1969-12-31 23:59:59,\"\"\n"
      "9223372036854775807,nan,1.7976931348623157e+308,false,\"NA\","
      "2000-02-29 00:00:00,\"null\"\n"
      "-7,1e+16,0.0001,true,\"line\nbreak\",1970-01-01 00:00:00,x\n";
  TempPath serial(".csv");
  ASSERT_TRUE(WriteCsv(t, serial.str()).ok());
  EXPECT_EQ(ReadFileBytes(serial.str()), expected);
  TempPath parallel(".csv");
  sim::ParallelOptions popts;
  popts.max_workers = 2;
  ASSERT_TRUE(WriteCsvParallel(t, parallel.str(), {}, popts).ok());
  EXPECT_EQ(ReadFileBytes(parallel.str()), expected);
}

TEST(CsvTest, ParallelWriterQuotesEmbeddedNewlines) {
  // The chunked writer must keep quoting correct at chunk boundaries too.
  col::StringBuilder b;
  col::Int64Builder ids;
  for (int i = 0; i < 5000; ++i) {
    b.Append("row\n" + std::to_string(i) + ",with,commas");
    ids.Append(i);
  }
  auto t = MakeTable(
      {{"id", ids.Finish().ValueOrDie()}, {"s", b.Finish().ValueOrDie()}});
  TempPath path(".csv");
  sim::ParallelOptions popts;
  popts.max_workers = 4;
  ASSERT_TRUE(WriteCsvParallel(t, path.str(), {}, popts).ok());
  test::ExpectTablesEqual(t, ReadCsv(path.str()).ValueOrDie());
}

TEST(CsvTest, TrailingNullColumnsRoundTrip) {
  // Columns whose tail (or entirety) is null: rows end in bare commas, and
  // the readers must rebuild the same null pattern and row count.
  auto t = MakeTable({
      {"id", I64({1, 2, 3, 4})},
      {"mid", F64({1.5, 0.0, 0.0, 2.5}, {true, false, false, true})},
      {"tail", Str({"x", "", "", ""}, {true, false, false, false})},
  });
  TempPath path(".csv");
  ASSERT_TRUE(WriteCsv(t, path.str()).ok());
  auto back = ReadCsv(path.str()).ValueOrDie();
  test::ExpectTablesEqual(t, back);
  EXPECT_EQ(back->GetColumn("tail").ValueOrDie()->null_count(), 3);
  test::ExpectTablesEqual(t, ReadCsvMmap(path.str()).ValueOrDie());
}

TEST(CsvTest, AllNullLastColumnKeepsArity) {
  // An entirely-null final column must survive as a column, not collapse
  // the row arity (every data line ends with the delimiter).
  TempPath path(".csv");
  FILE* f = fopen(path.str().c_str(), "w");
  fputs("a,b\n1,\n2,\n3,\n", f);
  fclose(f);
  auto t = ReadCsv(path.str()).ValueOrDie();
  ASSERT_EQ(t->num_columns(), 2);
  ASSERT_EQ(t->num_rows(), 3);
  EXPECT_EQ(t->GetColumn("b").ValueOrDie()->null_count(), 3);
}

TEST(CsvTest, MissingTrailingFieldsBecomeNull) {
  TempPath path(".csv");
  FILE* f = fopen(path.str().c_str(), "w");
  fputs("a,b,c\n1,2,3\n4,5\n", f);
  fclose(f);
  auto t = ReadCsv(path.str()).ValueOrDie();
  EXPECT_EQ(t->GetColumn("c").ValueOrDie()->null_count(), 1);
}

TEST(CsvTest, MmapReaderMatchesBuffered) {
  TempPath path(".csv");
  auto t = SampleTable();
  ASSERT_TRUE(WriteCsv(t, path.str()).ok());
  auto buffered = ReadCsv(path.str()).ValueOrDie();
  auto mapped = ReadCsvMmap(path.str()).ValueOrDie();
  test::ExpectTablesEqual(buffered, mapped);
}

TEST(CsvTest, ChunkReaderStreamsAllRows) {
  TempPath path(".csv");
  col::Int64Builder b;
  for (int i = 0; i < 1000; ++i) b.Append(i);
  auto t = MakeTable({{"v", b.Finish().ValueOrDie()}});
  ASSERT_TRUE(WriteCsv(t, path.str()).ok());

  CsvReadOptions options;
  options.chunk_rows = 128;
  auto reader = CsvChunkReader::Open(path.str(), options).ValueOrDie();
  int64_t total = 0;
  int chunks = 0;
  int64_t expected_next = 0;
  while (true) {
    auto chunk = reader->Next().ValueOrDie();
    if (chunk == nullptr) break;
    ++chunks;
    total += chunk->num_rows();
    for (int64_t i = 0; i < chunk->num_rows(); ++i) {
      ASSERT_EQ(chunk->column(0)->int64_data()[i], expected_next++);
    }
  }
  EXPECT_EQ(total, 1000);
  EXPECT_GT(chunks, 1);
}

/// The chunk reader infers its schema from a 1 MiB prefix. A prefix that
/// stops short of end of file cuts its last record, which must not be
/// sampled: here the cut leaves only the `-` of the float `-1.5`.
TEST(CsvTest, ChunkReaderInfersFromWholeRecordsOnly) {
  TempPath path(".csv");
  {
    std::ofstream out(path.str(), std::ios::binary);
    out << "s,f\n";
    const std::string pad(2042, 'x');  // 2 KiB records
    for (int i = 0; i < 600; ++i) out << pad << ",-1.5\n";
  }
  {
    std::ifstream in(path.str(), std::ios::binary);
    std::string prefix(1 << 20, '\0');
    ASSERT_TRUE(in.read(prefix.data(), static_cast<std::streamsize>(
                                           prefix.size())));
    ASSERT_EQ(prefix.substr(prefix.size() - 3), "x,-");
  }
  auto expected = ReadCsv(path.str()).ValueOrDie();
  ASSERT_EQ(expected->schema()->field(1).type, TypeId::kFloat64);

  CsvReadOptions options;
  options.chunk_rows = 256;
  auto reader = CsvChunkReader::Open(path.str(), options).ValueOrDie();
  EXPECT_TRUE(*reader->schema() == *expected->schema());
  std::vector<TablePtr> chunks;
  while (true) {
    auto chunk = reader->Next();
    ASSERT_TRUE(chunk.ok()) << chunk.status().ToString();
    if (chunk.ValueOrDie() == nullptr) break;
    chunks.push_back(chunk.ValueOrDie());
  }
  auto got = col::ConcatTables(chunks).ValueOrDie();
  EXPECT_TRUE(*got->schema() == *expected->schema());
  test::ExpectTablesEqual(expected, got);
}

// --- CSV chunk boundaries ---

/// CRLF rows with `\r`-only (blank CRLF) lines, doubled quotes, quoted
/// CRLF and LF newlines, quoted empty strings, bare empty (null) cells and
/// no trailing newline.
std::string CrlfCsv() {
  std::string text = "id,name,note\r\n";
  for (int i = 0; i < 300; ++i) {
    text += std::to_string(i) + ",n" + std::to_string(i % 17) + ",";
    if (i % 7 == 0) {
      text += "\"say \"\"hi\"\" " + std::to_string(i) + "\"";
    } else if (i % 11 == 0) {
      text += "\"two\r\nlines\"";
    } else if (i % 13 == 0) {
      text += "\"lf\nonly\"";
    } else if (i % 9 == 0) {
      text += "\"\"";
    } else if (i % 4 != 0) {
      text += "x" + std::to_string(i);
    }
    if (i + 1 < 300) text += "\r\n";
    if (i % 5 == 0) text += "\r\n";
  }
  return text;
}

/// LF rows with a leading blank line, runs of blank and `\r`-only lines,
/// a quoted field spanning three lines, and a tail of one `\r`-only line
/// with no newline after it.
std::string LfBlankLinesCsv() {
  std::string text = "a,b\n\n";
  for (int i = 0; i < 250; ++i) {
    if (i % 6 == 0) text += "\n\n";
    if (i % 8 == 3) text += "\r\n";
    if (i % 19 == 0) {
      text += std::to_string(i) + ",\"x\ny\n\"\"z\"\"\"\n";
    } else {
      text += std::to_string(i) + "," + std::to_string(i * 3) + "\n";
    }
  }
  return text + "\r";
}

/// Wide rows over three 256 KiB read blocks (the chunk reader's read
/// size). The first block ends inside a quoted newline's record, the
/// second splits a doubled quote, the third splits a CRLF; blank CRLF
/// lines recur and the last row has no trailing newline.
std::string ReadBoundaryCsv() {
  constexpr size_t kBlock = 256 * 1024;
  const std::string header = "id,text,n\n";
  std::string body;
  int64_t id = 0;
  auto fill = [&](size_t until) {
    while (true) {
      std::string row = std::to_string(id) + "," +
                        std::string(900 + static_cast<size_t>(id % 97),
                                    static_cast<char>('a' + id % 26)) +
                        "," + std::to_string(id % 13) + "\n";
      if (id % 50 == 49) row += "\r\n";
      if (body.size() + row.size() + 1500 > until) return;
      body += row;
      ++id;
    }
  };
  // Pads `prefix` so the byte after the padding lands at body offset `at`.
  auto pad_to = [&](const std::string& prefix, size_t at) {
    return prefix + std::string(at - body.size() - prefix.size(), 'p');
  };
  fill(kBlock - 1);
  body += pad_to(std::to_string(id++) + ",\"", kBlock - 1) +
          "\nsecond line\",7\n";
  fill(2 * kBlock - 1);
  body += pad_to(std::to_string(id++) + ",\"", 2 * kBlock - 1) +
          "\"\"q\"\"\",8\n";
  fill(3 * kBlock - 1);
  body += pad_to(std::to_string(id++) + ",", 3 * kBlock - 1 - 2) + ",9\r\n";
  fill(3 * kBlock + 20000);
  body += std::to_string(id) + ",last,10";
  return header + body;
}

/// Per-chunk row counts of one CsvChunkReader pass, run-length encoded
/// ("7x42 3x1": 42 chunks of 7 rows, then one of 3). The chunks must also
/// concatenate to the whole-file ReadCsv result.
std::string ChunkRowCounts(const std::string& path, int64_t chunk_rows) {
  CsvReadOptions options;
  options.chunk_rows = chunk_rows;
  auto reader = CsvChunkReader::Open(path, options).ValueOrDie();
  std::vector<TablePtr> chunks;
  std::string out;
  int64_t run_rows = -1;
  int64_t run_length = 0;
  auto flush = [&] {
    if (run_length == 0) return;
    if (!out.empty()) out += ' ';
    out += std::to_string(run_rows) + "x" + std::to_string(run_length);
  };
  while (true) {
    auto chunk = reader->Next();
    EXPECT_TRUE(chunk.ok()) << chunk.status().ToString();
    if (!chunk.ok() || chunk.ValueOrDie() == nullptr) break;
    const int64_t rows = chunk.ValueOrDie()->num_rows();
    if (rows != run_rows) {
      flush();
      run_rows = rows;
      run_length = 0;
    }
    ++run_length;
    chunks.push_back(chunk.ValueOrDie());
  }
  flush();
  if (!chunks.empty()) {
    test::ExpectTablesEqual(ReadCsv(path).ValueOrDie(),
                            col::ConcatTables(chunks).ValueOrDie());
  }
  return out;
}

/// Each CSV reader moves io.csv.bytes_read by exactly the file size: the
/// whole-file and mapped reads, and a drained chunk reader, whose 1 MiB
/// inference prefix and 256 KiB reads both count (the 2.7 MiB file takes
/// both; the small one ends inside the prefix).
TEST(CsvTest, EveryReaderCountsTheFileBytes) {
  const obs::Counter* bytes_read =
      obs::MetricsRegistry::Global().counter("io.csv.bytes_read");
  for (int64_t rows : {int64_t{50}, int64_t{100000}}) {
    SCOPED_TRACE("rows=" + std::to_string(rows));
    TempPath path(".csv");
    Rng rng(static_cast<uint64_t>(rows));
    col::Int64Builder ints;
    col::StringBuilder strs;
    for (int64_t i = 0; i < rows; ++i) {
      ints.Append(rng.UniformInt(-1000000, 1000000));
      strs.Append(rng.AsciiString(10, 30));
    }
    ASSERT_TRUE(WriteCsv(MakeTable({{"i", ints.Finish().ValueOrDie()},
                                    {"s", strs.Finish().ValueOrDie()}}),
                         path.str())
                    .ok());
    const uint64_t size = ReadFileBytes(path.str()).size();
    ASSERT_GT(size, rows > 1000 ? 2u << 20 : 0u);

    uint64_t before = bytes_read->value();
    ASSERT_TRUE(ReadCsv(path.str()).ok());
    EXPECT_EQ(bytes_read->value() - before, size);
    before = bytes_read->value();
    ASSERT_TRUE(ReadCsvMmap(path.str()).ok());
    EXPECT_EQ(bytes_read->value() - before, size);

    before = bytes_read->value();
    CsvReadOptions options;
    options.chunk_rows = 4096;
    auto reader = CsvChunkReader::Open(path.str(), options).ValueOrDie();
    int64_t streamed = 0;
    for (auto chunk = reader->Next().ValueOrDie(); chunk != nullptr;
         chunk = reader->Next().ValueOrDie()) {
      streamed += chunk->num_rows();
    }
    EXPECT_EQ(streamed, rows);
    EXPECT_EQ(bytes_read->value() - before, size);
  }
}

/// Golden chunk boundaries, recorded with an independent two-pass reader
/// (count the buffered records, then cut): the one-pass cut must keep every
/// boundary, including where `\r`-only lines count toward the cut but
/// decode to no row (a chunk of them decodes to zero rows), and where the
/// final flush takes a tail with no newline.
TEST(CsvChunkBoundaryTest, MatchesGoldenCountsAcrossChunkSizes) {
  struct Case {
    const char* name;
    std::string text;
    std::vector<std::pair<int64_t, std::string>> golden;
  };
  const std::vector<Case> cases = {
      {"crlf",
       CrlfCsv(),
       {{1,
         "1x1 0x1 1x5 0x1 1x5 0x1 1x5 0x1 1x5 0x1 1x5 0x1 1x5 0x1 1x5 "
         "0x1 1x5 0x1 1x5 0x1 1x5 0x1 1x5 0x1 1x5 0x1 1x5 0x1 1x5 0x1 "
         "1x5 0x1 1x5 0x1 1x5 0x1 1x5 0x1 1x5 0x1 1x5 0x1 1x5 0x1 1x5 "
         "0x1 1x5 0x1 1x5 0x1 1x5 0x1 1x5 0x1 1x5 0x1 1x5 0x1 1x5 0x1 "
         "1x5 0x1 1x5 0x1 1x5 0x1 1x5 0x1 1x5 0x1 1x5 0x1 1x5 0x1 1x5 "
         "0x1 1x5 0x1 1x5 0x1 1x5 0x1 1x5 0x1 1x5 0x1 1x5 0x1 1x5 0x1 "
         "1x5 0x1 1x5 0x1 1x5 0x1 1x5 0x1 1x5 0x1 1x5 0x1 1x5 0x1 1x5 "
         "0x1 1x5 0x1 1x5 0x1 1x5 0x1 1x5 0x1 1x5 0x1 1x5 0x1 1x5 0x1 "
         "1x4"},
        {7,
         "6x1 5x1 6x5 5x1 6x5 5x1 6x5 5x1 6x5 5x1 6x5 5x1 6x5 5x1 6x5 "
         "5x1 6x5 5x1 6x1 3x1"},
        {64, "53x2 54x1 53x2 34x1"},
        {2048, "300x1"}}},
      {"lf_blank_lines",
       LfBlankLinesCsv(),
       {{1,
         "1x3 0x1 1x8 0x1 1x8 0x1 1x8 0x1 1x8 0x1 1x8 0x1 1x8 0x1 1x8 "
         "0x1 1x8 0x1 1x8 0x1 1x8 0x1 1x8 0x1 1x8 0x1 1x8 0x1 1x8 0x1 "
         "1x8 0x1 1x8 0x1 1x8 0x1 1x8 0x1 1x8 0x1 1x8 0x1 1x8 0x1 1x8 "
         "0x1 1x8 0x1 1x8 0x1 1x8 0x1 1x8 0x1 1x8 0x1 1x8 0x1 1x8 0x1 "
         "1x8 0x1 1x7 0x1"},
        {7,
         "6x2 7x1 6x4 7x1 6x3 7x1 6x4 7x1 6x3 7x1 6x4 7x1 6x3 7x1 6x4 "
         "7x1 6x3 7x1 6x1 1x1"},
        {64, "57x3 56x1 23x1"},
        {2048, "250x1"}}},
      {"read_boundary",
       ReadBoundaryCsv(),
       {{1,
         "1x50 0x1 1x50 0x1 1x50 0x1 1x50 0x1 1x50 0x1 1x50 0x1 1x50 0x1 "
         "1x50 0x1 1x50 0x1 1x50 0x1 1x50 0x1 1x50 0x1 1x50 0x1 1x50 0x1 "
         "1x50 0x1 1x50 0x1 1x41"},
        {7,
         "7x7 6x1 7x6 6x1 7x6 6x1 7x7 6x1 7x6 6x1 7x6 6x1 7x6 6x1 7x7 "
         "6x1 7x6 6x1 7x6 6x1 7x7 6x1 7x6 6x1 7x6 6x1 7x6 6x1 7x7 6x1 "
         "7x6 6x1 7x5 3x1"},
        {64, "63x3 62x1 63x3 62x1 63x3 62x1 63x1 25x1"},
        {2048, "841x1"}}},
      {"blank_body",
       "a,b\n\n\r\n\n",
       {{1, "0x1"}, {7, "0x1"}, {2048, "0x1"}}},
      {"header_only", "a,b\n", {{1, "0x1"}, {2048, "0x1"}}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    TempPath path(".csv");
    {
      std::ofstream out(path.str(), std::ios::binary);
      out << c.text;
    }
    for (const auto& [chunk_rows, golden] : c.golden) {
      SCOPED_TRACE("chunk_rows=" + std::to_string(chunk_rows));
      EXPECT_EQ(ChunkRowCounts(path.str(), chunk_rows), golden);
    }
  }
}

TEST(CsvTest, ParallelWriterMatchesSerial) {
  // 70K rows cross both the serial writer's 64K-row block and the parallel
  // writer's 8192-row minimum split.
  constexpr int kRows = 70000;
  Rng rng(7);
  col::Int64Builder ids;
  col::Float64Builder values;
  col::StringBuilder names;
  for (int i = 0; i < kRows; ++i) {
    ids.Append(static_cast<int64_t>(rng.Next()));
    values.AppendMaybe(rng.UniformInt(0, 100000) / 100.0, !rng.Bernoulli(0.3));
    names.AppendMaybe(i % 5 == 0 ? "NA" : rng.AsciiString(0, 6),
                      !rng.Bernoulli(0.1));
  }
  auto t = MakeTable({{"id", ids.Finish().ValueOrDie()},
                      {"v", values.Finish().ValueOrDie()},
                      {"s", names.Finish().ValueOrDie()}});
  TempPath serial(".csv");
  ASSERT_TRUE(WriteCsv(t, serial.str()).ok());
  const std::string expected = ReadFileBytes(serial.str());
  for (int workers : {1, 2, 3, 8}) {
    TempPath parallel(".csv");
    sim::ParallelOptions popts;
    popts.max_workers = workers;
    ASSERT_TRUE(WriteCsvParallel(t, parallel.str(), {}, popts).ok());
    EXPECT_TRUE(ReadFileBytes(parallel.str()) == expected)
        << workers << " workers";
  }
  test::ExpectTablesEqual(t, ReadCsv(serial.str()).ValueOrDie());
}

TEST(CsvTest, MissingFileErrors) {
  EXPECT_TRUE(ReadCsv("/nonexistent/nope.csv").status().IsIOError());
  EXPECT_TRUE(ReadCsvMmap("/nonexistent/nope.csv").status().IsIOError());
}

// --- CSV byte identity: goldens and the per-field reference ---

std::string WriteCsvBytes(const TablePtr& t) {
  TempPath path(".csv");
  EXPECT_OK(WriteCsv(t, path.str()));
  return ReadFileBytes(path.str());
}

/// Floats from every formatter path: short decimals at k = 0..7 and 1-17
/// digits, both edges of the short-decimal range and their neighbours,
/// random bit patterns (subnormals included), signed zeros, non-finite
/// values and nulls; beside them int64 extremes, bools, strings with every
/// quoting hazard, a categorical of null-literal spellings and timestamps.
TablePtr AdversarialWriteTable() {
  Rng rng(20261018);
  std::vector<double> specials = {
      0.0,    -0.0,   1e-4,   1e-5,  1e14,   1e15,   999999999999999.0,
      100.0,  120.0,  0.5,    0.1 + 0.2, 1.0 / 3.0, DBL_MAX, DBL_MIN,
      5e-324, HUGE_VAL, -HUGE_VAL, std::nan(""), 1234567890123456.0,
      123456789012345.6};
  for (double v : std::vector<double>(specials)) {
    specials.push_back(std::nextafter(v, -HUGE_VAL));
    specials.push_back(std::nextafter(v, HUGE_VAL));
    specials.push_back(-v);
  }
  const int64_t n = static_cast<int64_t>(specials.size()) + 3000;
  col::Float64Builder f;
  col::Int64Builder i;
  col::BoolBuilder b;
  col::StringBuilder s;
  col::StringBuilder c;
  col::Int64Builder t;
  const std::vector<std::string> hazards = {
      "", "NA", "null", "NaN", "nan", "a,b", "say \"hi\"", "\"", "line\nbreak",
      "cr\r\nlf", " padded ", "plain"};
  for (int64_t r = 0; r < n; ++r) {
    double v;
    if (r < static_cast<int64_t>(specials.size())) {
      v = specials[static_cast<size_t>(r)];
    } else if (r % 3 == 0) {
      v = std::bit_cast<double>(rng.Next());
    } else if (r % 3 == 1) {
      uint64_t lo = 1;
      for (int64_t d = rng.UniformInt(1, 17); d > 1; --d) lo *= 10;
      v = static_cast<double>(lo + rng.Uniform(9 * lo)) /
          std::pow(10.0, static_cast<double>(rng.UniformInt(0, 7)));
      if (rng.Bernoulli(0.5)) v = -v;
    } else {
      v = std::round(rng.Normal(15000.0, 8500.0) * 100.0) / 100.0;
    }
    f.AppendMaybe(v, !rng.Bernoulli(0.05));
    i.AppendMaybe(r % 50 == 0   ? INT64_MIN
                  : r % 50 == 1 ? INT64_MAX
                                : static_cast<int64_t>(rng.Next()),
                  !rng.Bernoulli(0.05));
    b.AppendMaybe(rng.Bernoulli(0.5), !rng.Bernoulli(0.05));
    s.AppendMaybe(rng.Bernoulli(0.5)
                      ? hazards[rng.Uniform(hazards.size())]
                      : rng.AsciiString(0, 12),
                  !rng.Bernoulli(0.05));
    c.AppendMaybe(hazards[rng.Uniform(5)], !rng.Bernoulli(0.05));
    t.AppendMaybe(rng.UniformInt(-4'000'000'000'000'000, 4'000'000'000'000'000),
                  !rng.Bernoulli(0.05));
  }
  return MakeTable(
      {{"f", f.Finish().ValueOrDie()},
       {"i", i.Finish().ValueOrDie()},
       {"b", b.Finish().ValueOrDie()},
       {"s", s.Finish().ValueOrDie()},
       {"c", kern::Cast(c.Finish().ValueOrDie(), TypeId::kCategorical)
                 .ValueOrDie()},
       {"t", kern::Cast(t.Finish().ValueOrDie(), TypeId::kTimestamp)
                 .ValueOrDie()}});
}

/// Digests of the WriteCsv bytes of datagen's tables (scale 0.001, seed 1)
/// and of AdversarialWriteTable, recorded before the short-decimal float
/// path and the one-pass decoder: the writer's bytes must not move.
TEST(CsvGoldenTest, WriteCsvBytesMatchGoldens) {
  const std::vector<std::pair<std::string, uint64_t>> goldens = {
      {"athlete", 0xdf154f732acdeb61ULL},
      {"loan", 0x36e1fadc0191add3ULL},
      {"patrol", 0x4fae5f7958257645ULL},
      {"taxi", 0x071442610c6dd032ULL},
  };
  for (const auto& [name, digest] : goldens) {
    SCOPED_TRACE(name);
    const uint64_t got = test::Fnv1a(
        WriteCsvBytes(gen::GenerateDataset(name, 0.001, 1).ValueOrDie()));
    EXPECT_EQ(got, digest) << std::hex << "0x" << got;
  }
  const TablePtr adversarial = AdversarialWriteTable();
  const std::string bytes = WriteCsvBytes(adversarial);
  const uint64_t got = test::Fnv1a(bytes);
  EXPECT_EQ(got, 0x16e3e886e98e52b5ULL) << std::hex << "0x" << got;
  TempPath parallel(".csv");
  sim::ParallelOptions popts;
  popts.max_workers = 3;
  ASSERT_OK(WriteCsvParallel(adversarial, parallel.str(), {}, popts));
  EXPECT_TRUE(ReadFileBytes(parallel.str()) == bytes);
}

/// FormatTimestampTo writes the bytes of Array::ValueToString (gmtime_r
/// and snprintf): the epoch, values around it down to a microsecond either
/// side (the sub-second part truncates toward zero), every day boundary,
/// leap day and year end of the years 1678-2262 with random times inside
/// them, the int64 extremes and random values across the whole range
/// (years of 1-6 digits, negative ones included). The CSV writer's cells
/// are those bytes.
TEST(CsvWriterTest, TimestampCellsMatchValueToString) {
  constexpr int64_t kDay = 86'400'000'000;
  std::vector<int64_t> micros = {0, INT64_MIN, INT64_MAX, INT64_MIN + 1,
                                 INT64_MAX - 1};
  for (int64_t base : {int64_t{0}, -kDay, kDay, int64_t{-1'000'000},
                       int64_t{1'000'000}}) {
    for (int64_t d : {-1'000'001, -1'000'000, -999'999, -1, 0, 1, 999'999,
                      1'000'000, 1'000'001}) {
      micros.push_back(base + d);
    }
  }
  Rng rng(1678);
  const int64_t first = -9'214'560'000'000'000;  // 1678-01-01 00:00:00
  const int64_t last = 9'214'646'400'000'000;    // 2262-01-01 00:00:00
  for (int64_t day = first; day <= last + 365 * kDay; day += kDay) {
    micros.push_back(day);
    micros.push_back(day - 1);
    micros.push_back(day + static_cast<int64_t>(rng.Uniform(kDay)));
  }
  for (int i = 0; i < 20000; ++i) {
    micros.push_back(static_cast<int64_t>(rng.Next()));
    micros.push_back(-static_cast<int64_t>(rng.Next() >> 1));
  }
  col::TimestampBuilder b;
  for (int64_t v : micros) b.Append(v);
  const col::ArrayPtr ts = b.Finish().ValueOrDie();
  std::string expected = "t\n";
  for (int64_t i = 0; i < ts->length(); ++i) {
    char buf[kFormatTimestampBufSize];
    const std::string_view got(buf,
                               FormatTimestampTo(ts->int64_data()[i], buf));
    ASSERT_EQ(got, ts->ValueToString(i)) << ts->int64_data()[i];
    expected += ts->ValueToString(i) + "\n";
  }
  EXPECT_TRUE(WriteCsvBytes(MakeTable({{"t", ts}})) == expected);
}

/// A CSV file of the cases the readers must keep byte for byte, over 64
/// KiB so that the 4-worker mapped read splits it: quoted fields with
/// doubled quotes, delimiters and LF or CRLF newlines, text after a closing
/// quote, a bare quote inside a field, CRLF ends, blank and '\r'-only
/// lines, short and long ragged rows, quoted and bare null literals,
/// numbers that do not parse (padding, '+', hex, overflow, trailing text),
/// every bool spelling, and an unterminated quote at the end.
std::string AdversarialCsvText() {
  Rng rng(424242);
  const std::vector<std::string> ints = {
      "0", "-7", "9223372036854775807", "-9223372036854775808",
      "9223372036854775808", " 12", "+5", "0x1A", "1e5", "12abc", "1.5",
      "\"42\"", "\"\"", "NA", "", "null", "NaN", "-"};
  const std::vector<std::string> floats = {
      "1.25", "-0", "-0.0", "1e-5", "nan", "inf", "-inf", "NaN", "1e400",
      "4.9e-324", " 1.5", "1.5.5", "0x1p3", "\"2.5\"", "\"NA\"", "",
      "12345.67", ".5", "5.", "-"};
  const std::vector<std::string> bools = {"true", "True", "false", "False",
                                          "TRUE", "1", "yes", "\"true\"",
                                          "NA", ""};
  const std::vector<std::string> strings = {
      "plain", "\"a,b\"", "\"say \"\"hi\"\"\"", "\"two\nlines\"",
      "\"crlf\r\nlines\"", "\"\"", "\"NA\"", "NA", "null", "", "\"x\"tail",
      "a\"b\"c", "  spaced  ", "missing-value-marker-long"};
  const std::vector<std::string> cats = {"red", "green", "\"blue\"", "NA",
                                         "", "red"};
  std::string text = "id,i,f,b,s,c,tail\n";
  for (int64_t r = 0; text.size() < 80 * 1024; ++r) {
    std::vector<std::string> fields = {
        std::to_string(r), ints[rng.Uniform(ints.size())],
        floats[rng.Uniform(floats.size())], bools[rng.Uniform(bools.size())],
        strings[rng.Uniform(strings.size())], cats[rng.Uniform(cats.size())],
        rng.Bernoulli(0.8) ? "" : "t" + std::to_string(r)};
    if (r % 17 == 3) fields.resize(static_cast<size_t>(rng.UniformInt(1, 6)));
    if (r % 19 == 5) fields.push_back("extra,\"more\",x");
    for (size_t k = 0; k < fields.size(); ++k) {
      if (k > 0) text += ',';
      text += fields[k];
    }
    text += r % 4 == 0 ? "\r\n" : "\n";
    if (r % 23 == 0) text += "\n";
    if (r % 29 == 0) text += "\r\n";
    if (r % 31 == 0) text += "\r";
  }
  return text + "9999,1,2.5,true,\"unterminated,x\n";
}

/// What each reader returns for the AdversarialCsvText file under each
/// option set, as one digest per (options, reader); recorded with the
/// per-record split decoder.
TEST(CsvGoldenTest, ReaderArraysMatchGoldens) {
  TempPath path(".csv");
  {
    std::ofstream out(path.str(), std::ios::binary);
    out << AdversarialCsvText();
  }
  std::vector<std::pair<std::string, CsvReadOptions>> option_sets(5);
  option_sets[0].first = "default";
  option_sets[1].first = "dictionary";
  option_sets[1].second.dictionary_encode_strings = true;
  option_sets[2].first = "null_literals";
  option_sets[2].second.null_literals = {"", "-", "missing-value-marker-long",
                                         "null"};
  option_sets[3].first = "drop_columns";
  option_sets[3].second.drop_columns = {"i", "tail"};
  option_sets[4].first = "schema";
  option_sets[4].second.schema = std::make_shared<col::Schema>(
      std::vector<col::Field>{{"id", TypeId::kInt64},
                              {"i", TypeId::kFloat64},
                              {"f", TypeId::kFloat64},
                              {"b", TypeId::kBool},
                              {"s", TypeId::kString},
                              {"c", TypeId::kCategorical},
                              {"tail", TypeId::kString}});
  const char* kReaders[] = {"read",     "mmap1",    "mmap4",   "chunk1",
                            "chunk7",   "chunk64",  "chunk_default"};
  // goldens[options][reader]
  const uint64_t goldens[5][7] = {
      // default
      {0xaf63140a38f4daceULL, 0xaf63140a38f4daceULL, 0xaf63140a38f4daceULL,
       0x838bd1e770961549ULL, 0xb848f9dd73f2d6c8ULL, 0x23683d335071c372ULL,
       0xaf63140a38f4daceULL},
      // dictionary
      {0x700af095148fa0fdULL, 0x700af095148fa0fdULL, 0x700af095148fa0fdULL,
       0xfdc976352547ebc9ULL, 0x09a0d14fab1aae17ULL, 0x7d1f6ba79dbe217bULL,
       0x700af095148fa0fdULL},
      // null_literals
      {0xce728568d2c00b1dULL, 0xce728568d2c00b1dULL, 0xce728568d2c00b1dULL,
       0x959ff656f91a102aULL, 0xf0be5c0329890e9eULL, 0x68c4e4668ab7806eULL,
       0xce728568d2c00b1dULL},
      // drop_columns
      {0x4a6d83fac929e9d8ULL, 0x4a6d83fac929e9d8ULL, 0x4a6d83fac929e9d8ULL,
       0x652b9907a47b51edULL, 0x787df1dbd1aa916fULL, 0x62f04fbd04dcaac2ULL,
       0x4a6d83fac929e9d8ULL},
      // schema
      {0x9456f32bb695e33aULL, 0x9456f32bb695e33aULL, 0x9456f32bb695e33aULL,
       0xa254828f35f5117bULL, 0x11c6cc73ea32fcd5ULL, 0x1762f18e66c40f96ULL,
       0x9456f32bb695e33aULL},
  };
  for (size_t o = 0; o < option_sets.size(); ++o) {
    const CsvReadOptions& options = option_sets[o].second;
    for (size_t r = 0; r < 7; ++r) {
      SCOPED_TRACE(option_sets[o].first + "/" + kReaders[r]);
      uint64_t digest = 0;
      if (r == 0) {
        digest = test::TableDigest(ReadCsv(path.str(), options).ValueOrDie());
      } else if (r <= 2) {
        sim::ParallelOptions popts;
        popts.max_workers = r == 1 ? 1 : 4;
        digest = test::TableDigest(
            ReadCsvMmap(path.str(), options, popts).ValueOrDie());
      } else {
        CsvReadOptions chunked = options;
        if (r < 6) chunked.chunk_rows = r == 3 ? 1 : r == 4 ? 7 : 64;
        auto reader = CsvChunkReader::Open(path.str(), chunked).ValueOrDie();
        for (auto chunk = reader->Next().ValueOrDie(); chunk != nullptr;
             chunk = reader->Next().ValueOrDie()) {
          digest = test::TableDigest(chunk, digest);
        }
      }
      EXPECT_EQ(digest, goldens[o][r]) << std::hex << "0x" << digest;
    }
  }
}

/// A random CSV file of `rows` records over columns i, f, b, s, c, x:
/// valid values, bare and quoted null literals from `null_literals`,
/// numbers that do not parse, all four bool spellings (and near misses),
/// quoted fields with doubled quotes, delimiters and (when
/// `quoted_newlines`) LF and CRLF newlines, LF and CRLF ends, blank lines,
/// and short and long ragged rows.
std::string RandomCsvText(Rng* rng, int64_t rows, bool quoted_newlines,
                          const std::vector<std::string>& null_literals) {
  auto pick = [&](const std::vector<std::string>& from) {
    return from[rng->Uniform(from.size())];
  };
  auto quote = [](const std::string& v) {
    std::string out = "\"";
    for (char ch : v) {
      if (ch == '"') out += '"';
      out += ch;
    }
    return out + "\"";
  };
  auto null_or = [&](std::string value) {
    const double u = rng->UniformDouble();
    if (u < 0.08) return pick(null_literals);
    if (u < 0.11) return quote(pick(null_literals));
    if (u < 0.16) return quote(value);
    return value;
  };
  std::vector<std::string> hazards = {"a,b", "say \"hi\"", "\"", ",", "x\"y"};
  if (quoted_newlines) {
    hazards.insert(hazards.end(), {"two\nlines", "crlf\r\nline", "\n"});
  }
  std::string text = "i,f,b,s,c,x\n";
  for (int64_t r = 0; r < rows; ++r) {
    if (rng->Bernoulli(0.03)) text += rng->Bernoulli(0.5) ? "\n" : "\r\n";
    std::vector<std::string> fields = {
        null_or(rng->Bernoulli(0.05)
                    ? pick({"12abc", "1.5", " 7", "+3", "0x10", "1e3"})
                    : std::to_string(rng->UniformInt(-1000000, 1000000))),
        null_or(rng->Bernoulli(0.05)
                    ? pick({"1.5.5", "abc", "1e400", "nan", "-inf", " 2"})
                    : FormatDouble(rng->Bernoulli(0.5)
                                       ? rng->UniformInt(-99999, 99999) / 100.0
                                       : rng->Normal(0.0, 1e6))),
        null_or(pick({"true", "True", "false", "False", "TRUE", "1", "no"})),
        rng->Bernoulli(0.2) ? quote(pick(hazards))
                            : null_or(rng->AsciiString(0, 10)),
        null_or(pick({"red", "green", "blue", "green"})),
        null_or(rng->AsciiString(0, 4))};
    if (rng->Bernoulli(0.07)) {
      fields.resize(static_cast<size_t>(rng->UniformInt(1, 5)));
    } else if (rng->Bernoulli(0.07)) {
      for (int64_t k = rng->UniformInt(1, 3); k > 0; --k) {
        fields.push_back(rng->Bernoulli(0.5) ? quote(pick(hazards)) : "extra");
      }
    }
    for (size_t k = 0; k < fields.size(); ++k) {
      if (k > 0) text += ',';
      text += fields[k];
    }
    if (r + 1 < rows || rng->Bernoulli(0.5)) {
      text += rng->Bernoulli(0.3) ? "\r\n" : "\n";
    }
  }
  return text;
}

/// Every reader returns the per-field builder reference's bytes: ReadCsv,
/// ReadCsvMmap with 1 and 4 workers (the 4-worker read only over files
/// without quoted newlines, which its split does not support) and
/// CsvChunkReader at several chunk sizes, concatenated.
TEST(CsvPropertyTest, EveryReaderMatchesFieldReference) {
  const std::vector<std::string> custom_nulls = {
      "", "-", "NA", "not-recorded-by-the-sensor"};
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    CsvReadOptions options;
    if (seed % 3 == 0) options.null_literals = custom_nulls;
    options.dictionary_encode_strings = seed % 2 == 0;
    if (seed % 4 == 1) options.drop_columns = {"b", "x"};
    const bool quoted_newlines = seed % 3 != 1;
    const std::string text = RandomCsvText(
        &rng, quoted_newlines ? 400 : 4000, quoted_newlines,
        options.null_literals);
    TempPath path(".csv");
    {
      std::ofstream out(path.str(), std::ios::binary);
      out << text;
    }
    CsvReadOptions all_columns = options;
    all_columns.drop_columns.clear();
    const col::SchemaPtr schema =
        ReadCsv(path.str(), all_columns).ValueOrDie()->schema();
    if (seed % 5 == 0) {
      // An explicit schema: the categorical and bool columns as typed,
      // inference off.
      options.schema = std::make_shared<col::Schema>(std::vector<col::Field>{
          {"i", TypeId::kInt64},
          {"f", TypeId::kFloat64},
          {"b", TypeId::kBool},
          {"s", TypeId::kString},
          {"c", TypeId::kCategorical},
          {"x", TypeId::kString}});
    }
    const TablePtr expected = test::ReferenceReadCsv(
        text, options, options.schema != nullptr ? options.schema : schema);
    {
      SCOPED_TRACE("ReadCsv");
      test::ExpectSameTableBytes(expected,
                                 ReadCsv(path.str(), options).ValueOrDie());
    }
    for (int workers : {1, 4}) {
      if (workers > 1 && quoted_newlines) continue;
      SCOPED_TRACE("ReadCsvMmap workers=" + std::to_string(workers));
      sim::ParallelOptions popts;
      popts.max_workers = workers;
      test::ExpectSameTableBytes(
          expected, ReadCsvMmap(path.str(), options, popts).ValueOrDie());
    }
    for (int64_t chunk_rows : {int64_t{1}, int64_t{7}, int64_t{64},
                               CsvReadOptions().chunk_rows}) {
      SCOPED_TRACE("CsvChunkReader chunk_rows=" + std::to_string(chunk_rows));
      CsvReadOptions chunked = options;
      chunked.chunk_rows = chunk_rows;
      auto reader = CsvChunkReader::Open(path.str(), chunked).ValueOrDie();
      std::vector<TablePtr> chunks;
      for (auto chunk = reader->Next().ValueOrDie(); chunk != nullptr;
           chunk = reader->Next().ValueOrDie()) {
        chunks.push_back(chunk);
      }
      test::ExpectSameTableBytes(expected,
                                 col::ConcatTables(chunks).ValueOrDie());
    }
  }
}

// --- BCF ---

TEST(BcfTest, WriteReadRoundTrip) {
  TempPath path(".bcf");
  auto t = SampleTable();
  ASSERT_TRUE(WriteBcf(t, path.str()).ok());
  auto reader = BcfReader::Open(path.str()).ValueOrDie();
  EXPECT_EQ(reader->num_rows(), t->num_rows());
  auto back = reader->ReadAll().ValueOrDie();
  test::ExpectTablesEqual(t, back);
}

TEST(BcfTest, MultipleRowGroups) {
  TempPath path(".bcf");
  col::Int64Builder b;
  for (int i = 0; i < 1000; ++i) b.Append(i * 3);
  auto t = MakeTable({{"v", b.Finish().ValueOrDie()}});
  BcfWriteOptions options;
  options.row_group_rows = 100;
  ASSERT_TRUE(WriteBcf(t, path.str(), options).ok());
  auto reader = BcfReader::Open(path.str()).ValueOrDie();
  EXPECT_EQ(reader->num_row_groups(), 10);
  auto g3 = reader->ReadRowGroup(3).ValueOrDie();
  EXPECT_EQ(g3->num_rows(), 100);
  EXPECT_EQ(g3->column(0)->int64_data()[0], 900);
  auto back = reader->ReadAll().ValueOrDie();
  test::ExpectTablesEqual(t, back);
}

TEST(BcfTest, ColumnProjection) {
  TempPath path(".bcf");
  auto t = SampleTable();
  ASSERT_TRUE(WriteBcf(t, path.str()).ok());
  auto reader = BcfReader::Open(path.str()).ValueOrDie();
  auto projected = reader->ReadAll({"name", "id"}).ValueOrDie();
  EXPECT_EQ(projected->num_columns(), 2);
  EXPECT_EQ(projected->schema()->field(0).name, "name");
  EXPECT_FALSE(reader->ReadAll({"missing"}).ok());
}

TEST(BcfTest, CompressionToggle) {
  // Highly repetitive strings: the compressed file must be smaller.
  std::vector<std::string> values(2000, "a rather repetitive value here");
  auto t = MakeTable({{"s", Str(values)}});
  TempPath packed(".bcf");
  TempPath raw(".bcf");
  BcfWriteOptions with;
  with.compression = true;
  BcfWriteOptions without;
  without.compression = false;
  ASSERT_TRUE(WriteBcf(t, packed.str(), with).ok());
  ASSERT_TRUE(WriteBcf(t, raw.str(), without).ok());

  auto size_of = [](const std::string& p) {
    FILE* f = fopen(p.c_str(), "rb");
    fseek(f, 0, SEEK_END);
    long size = ftell(f);
    fclose(f);
    return size;
  };
  EXPECT_LT(size_of(packed.str()), size_of(raw.str()));
  test::ExpectTablesEqual(
      t, BcfReader::Open(packed.str()).ValueOrDie()->ReadAll().ValueOrDie());
}

TEST(BcfTest, IncrementalWriter) {
  TempPath path(".bcf");
  auto writer = BcfWriter::Open(path.str()).ValueOrDie();
  auto t1 = MakeTable({{"v", I64({1, 2})}});
  auto t2 = MakeTable({{"v", I64({3})}});
  ASSERT_TRUE(writer->Append(t1).ok());
  ASSERT_TRUE(writer->Append(t2).ok());
  ASSERT_TRUE(writer->Finish().ok());
  auto back = BcfReader::Open(path.str()).ValueOrDie()->ReadAll().ValueOrDie();
  EXPECT_EQ(back->num_rows(), 3);
  EXPECT_EQ(back->column(0)->int64_data()[2], 3);
}

TEST(BcfTest, WriterRejectsSchemaDrift) {
  TempPath path(".bcf");
  auto writer = BcfWriter::Open(path.str()).ValueOrDie();
  ASSERT_TRUE(writer->Append(MakeTable({{"v", I64({1})}})).ok());
  EXPECT_FALSE(writer->Append(MakeTable({{"w", I64({1})}})).ok());
  ASSERT_TRUE(writer->Finish().ok());
  EXPECT_FALSE(writer->Finish().ok());  // double finish rejected
}

TEST(BcfTest, CorruptFilesRejected) {
  TempPath path(".bcf");
  FILE* f = fopen(path.str().c_str(), "w");
  fputs("definitely not a bcf file at all.....", f);
  fclose(f);
  EXPECT_FALSE(BcfReader::Open(path.str()).ok());
  EXPECT_FALSE(BcfReader::Open("/nonexistent/x.bcf").ok());
}

TEST(BcfTest, CategoricalColumnsRoundTrip) {
  auto s = Str({"b", "a", "b", "c"});
  auto cat = kern::Cast(s, TypeId::kCategorical).ValueOrDie();
  auto t = MakeTable({{"c", cat}});
  TempPath path(".bcf");
  ASSERT_TRUE(WriteBcf(t, path.str()).ok());
  auto back = BcfReader::Open(path.str()).ValueOrDie()->ReadAll().ValueOrDie();
  EXPECT_EQ(back->column(0)->type(), TypeId::kCategorical);
  EXPECT_EQ(test::CellStr(*back->column(0), 3), "c");
}

TEST(BcfTest, NonFiniteFloatsRoundTripBitExact) {
  // Nothing about the values reaches the footer, so every float64 bit
  // pattern reads back: NaN (also as a group's first valid value, here in
  // groups 0 and 1), ±inf, lowest()/max(), -0.0, and nulls between them.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double lo = std::numeric_limits<double>::lowest();
  const double hi = std::numeric_limits<double>::max();
  const std::vector<double> values = {nan,  1.5,  -kInf,  // group 0
                                      0.0,  nan,  -0.0,   // group 1
                                      kInf, -kInf, 7.0,   // group 2
                                      lo,   hi,   0.0};   // group 3
  const std::vector<bool> valid = {true, true, true,  false, true, true,
                                   true, true, true,  true,  true, false};
  auto t = MakeTable({{"x", F64(values, valid)}});

  BcfWriteOptions plain;
  plain.row_group_rows = 3;
  BcfWriteOptions mappable = plain;  // the spill / converted-store layout
  mappable.compression = false;
  mappable.align_pages = true;
  mappable.mappable = true;
  for (const BcfWriteOptions& wopts : {plain, mappable}) {
    TempPath path(".bcf");
    ASSERT_TRUE(WriteBcf(t, path.str(), wopts).ok());
    for (bool use_mmap : {false, true}) {
      SCOPED_TRACE(std::string(wopts.mappable ? "mappable" : "plain") +
                   (use_mmap ? " mmap" : " buffered"));
      BcfReadOptions ropts;
      ropts.use_mmap = use_mmap;
      auto reader = BcfReader::Open(path.str(), ropts);
      ASSERT_TRUE(reader.ok()) << reader.status().ToString();
      EXPECT_EQ(reader.ValueOrDie()->num_row_groups(), 4);
      auto back = reader.ValueOrDie()->ReadAll();
      ASSERT_TRUE(back.ok()) << back.status().ToString();
      const col::ArrayPtr& x = back.ValueOrDie()->column(0);
      ASSERT_EQ(x->length(), static_cast<int64_t>(values.size()));
      for (size_t i = 0; i < values.size(); ++i) {
        const auto row = static_cast<int64_t>(i);
        ASSERT_EQ(x->IsValid(row), valid[i]) << "row " << i;
        if (!valid[i]) continue;
        EXPECT_EQ(std::bit_cast<uint64_t>(x->float64_data()[row]),
                  std::bit_cast<uint64_t>(values[i]))
            << "row " << i;
      }
    }
  }
}

// --- chunk streams ---

TEST(ChunkStreamTest, TableStreamSlices) {
  col::Int64Builder b;
  for (int i = 0; i < 10; ++i) b.Append(i);
  auto t = MakeTable({{"v", b.Finish().ValueOrDie()}});
  eng::TableChunkStream stream(t, 4);
  std::vector<int64_t> sizes;
  while (true) {
    auto chunk = stream.Next().ValueOrDie();
    if (chunk == nullptr) break;
    sizes.push_back(chunk->num_rows());
  }
  EXPECT_EQ(sizes, (std::vector<int64_t>{4, 4, 2}));
}

TEST(ChunkStreamTest, BcfStreamProjects) {
  TempPath path(".bcf");
  auto t = SampleTable();
  BcfWriteOptions options;
  options.row_group_rows = 2;
  ASSERT_TRUE(WriteBcf(t, path.str(), options).ok());
  auto stream = eng::BcfChunkStream::Open(path.str(), {"id"}).ValueOrDie();
  int64_t rows = 0;
  while (true) {
    auto chunk = stream->Next().ValueOrDie();
    if (chunk == nullptr) break;
    EXPECT_EQ(chunk->num_columns(), 1);
    rows += chunk->num_rows();
  }
  EXPECT_EQ(rows, t->num_rows());
}

}  // namespace
}  // namespace bento::io
