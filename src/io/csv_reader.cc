#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <charconv>
#include <cstdint>
#include <cstring>
#include <set>

#include "columnar/bitmap.h"
#include "io/csv.h"
#include "kernels/flat_index.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/string_util.h"

namespace bento::io {

namespace {

using col::TypeId;

/// Splits one CSV record into fields. Quoted fields may contain the
/// delimiter and doubled quotes; `scratch` backs unescaped copies.
/// `quoted` (optional) records which fields were quoted — a quoted empty
/// field is an empty string, an unquoted one is null.
void SplitRecord(std::string_view line, char delimiter,
                 std::vector<std::string_view>* fields, std::string* scratch,
                 std::vector<bool>* quoted = nullptr) {
  fields->clear();
  scratch->clear();
  if (quoted != nullptr) quoted->clear();
  // Unescaped content never exceeds the raw line; reserving up front keeps
  // the string_views into scratch stable across push_backs.
  scratch->reserve(line.size());
  size_t pos = 0;
  while (true) {
    if (pos < line.size() && line[pos] == '"') {
      // Quoted field: unescape into scratch (stable because we reserve).
      const size_t scratch_start = scratch->size();
      ++pos;
      bool closed = false;
      while (pos < line.size()) {
        char c = line[pos];
        if (c == '"') {
          if (pos + 1 < line.size() && line[pos + 1] == '"') {
            scratch->push_back('"');
            pos += 2;
          } else {
            ++pos;
            closed = true;
            break;
          }
        } else {
          scratch->push_back(c);
          ++pos;
        }
      }
      (void)closed;
      fields->emplace_back(scratch->data() + scratch_start,
                           scratch->size() - scratch_start);
      if (quoted != nullptr) quoted->push_back(true);
      if (pos < line.size() && line[pos] == delimiter) {
        ++pos;
        continue;
      }
      break;
    }
    size_t next = line.find(delimiter, pos);
    if (next == std::string_view::npos) {
      fields->push_back(line.substr(pos));
      if (quoted != nullptr) quoted->push_back(false);
      break;
    }
    fields->push_back(line.substr(pos, next - pos));
    if (quoted != nullptr) quoted->push_back(false);
    pos = next + 1;
  }
}

/// The null literals of one parse, bucketed by length so that a field is
/// compared only with the literals of its own length.
class NullLiterals {
 public:
  explicit NullLiterals(const std::vector<std::string>& literals) {
    for (const std::string& lit : literals) {
      (lit.size() < kBuckets ? by_length_[lit.size()] : longer_)
          .push_back(lit);
    }
  }

  bool Match(std::string_view v) const {
    for (std::string_view lit :
         v.size() < kBuckets ? by_length_[v.size()] : longer_) {
      if (lit == v) return true;
    }
    return false;
  }

 private:
  static constexpr size_t kBuckets = 17;  // lengths 0..16; longer_ the rest
  std::array<std::vector<std::string_view>, kBuckets> by_length_;
  std::vector<std::string_view> longer_;
};

bool LooksLikeInt(std::string_view v) {
  int64_t out;
  auto [p, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
  return ec == std::errc() && p == v.data() + v.size();
}

bool LooksLikeDouble(std::string_view v) {
  double out;
  auto [p, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
  return ec == std::errc() && p == v.data() + v.size();
}

bool LooksLikeBool(std::string_view v) {
  return v == "true" || v == "false" || v == "True" || v == "False";
}

/// Offset of the '\n' that ends the record starting at `pos` (a newline
/// inside quotes does not), or npos when `text` holds no complete record
/// there. A record without quotes costs two memchr scans; `has_quote`
/// (optional) tells whether the record holds a '"'.
size_t RecordEnd(std::string_view text, size_t pos,
                 bool* has_quote = nullptr) {
  const char* data = text.data();
  const void* nl = std::memchr(data + pos, '\n', text.size() - pos);
  const size_t end =
      nl != nullptr ? static_cast<size_t>(static_cast<const char*>(nl) - data)
                    : text.size();
  const bool quote = std::memchr(data + pos, '"', end - pos) != nullptr;
  if (has_quote != nullptr) *has_quote = quote;
  if (!quote) return nl != nullptr ? end : std::string_view::npos;
  bool in_quotes = false;
  for (size_t i = pos; i < text.size(); ++i) {
    if (data[i] == '"') {
      in_quotes = !in_quotes;
    } else if (data[i] == '\n' && !in_quotes) {
      return i;
    }
  }
  return std::string_view::npos;
}

/// Calls `on_record(line, has_quote)` for each record of `text` (quoted
/// newlines stay inside their record), the last one possibly without a
/// newline unless `whole_only` (the text is a prefix that may cut its last
/// record), up to `max_records` of them. A trailing '\r' is stripped;
/// lines left empty are skipped.
template <typename Fn>
void ForEachRecord(std::string_view text, Fn on_record,
                   int64_t max_records = INT64_MAX, bool whole_only = false) {
  size_t pos = 0;
  for (int64_t records = 0; pos < text.size() && records < max_records;) {
    bool has_quote = false;
    size_t end = RecordEnd(text, pos, &has_quote);
    if (end == std::string_view::npos) {
      if (whole_only) return;
      end = text.size();
    }
    std::string_view line = text.substr(pos, end - pos);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (!line.empty()) {
      on_record(line, has_quote);
      ++records;
    }
    pos = end + 1;
  }
}

/// One column's staging for a parse of a known number of rows. Values
/// (int64, double, bool byte, categorical code) and string end offsets go
/// straight into the column's exact-size pool buffer; string bytes and the
/// validity bitmap stage in scratch memory and are copied into exact-size
/// pool buffers at Finish, the bitmap only if a row is null. The buffers
/// hold the bytes the column builders would: zero under a null value, a
/// -1 code, a repeated offset.
class ColumnStage {
 public:
  static Result<ColumnStage> Make(TypeId type, int64_t rows) {
    // A type the CSV text has no decoding for (timestamps) reads as strings.
    if (type != TypeId::kInt64 && type != TypeId::kFloat64 &&
        type != TypeId::kBool && type != TypeId::kCategorical) {
      type = TypeId::kString;
    }
    ColumnStage stage(type, rows);
    const int64_t slots = type == TypeId::kString ? rows + 1 : rows;
    BENTO_ASSIGN_OR_RETURN(stage.data_,
                           col::Buffer::Allocate(static_cast<uint64_t>(
                               slots * col::ByteWidth(type))));
    stage.values_ = stage.data_->mutable_data();
    return stage;
  }

  /// Decodes field `v` into `row`; `v` is content rather than a null
  /// literal, yet unparsable numbers and bools still become null.
  void Set(int64_t row, std::string_view v) {
    bool valid = true;
    switch (type_) {
      case TypeId::kInt64:
        valid = ParseInto(v, &At<int64_t>(row));
        break;
      case TypeId::kFloat64:
        valid = ParseInto(v, &At<double>(row));
        break;
      case TypeId::kBool: {
        const bool is_true = v == "true" || v == "True";
        valid = is_true || v == "false" || v == "False";
        At<uint8_t>(row) = is_true ? 1 : 0;
        break;
      }
      case TypeId::kCategorical:
        At<int32_t>(row) = interner_.FindOrInsert(v);
        break;
      default:
        chars_.append(v);
        At<int64_t>(row + 1) = static_cast<int64_t>(chars_.size());
    }
    if (valid) {
      col::SetBit(validity_.data(), row);
    } else {
      ++null_count_;
    }
  }

  void SetNull(int64_t row) {
    ++null_count_;
    if (type_ == TypeId::kCategorical) {
      At<int32_t>(row) = -1;
    } else if (type_ == TypeId::kString) {
      At<int64_t>(row + 1) = static_cast<int64_t>(chars_.size());
    }
  }

  Result<col::ArrayPtr> Finish() {
    col::BufferPtr validity;
    if (null_count_ > 0) {
      BENTO_ASSIGN_OR_RETURN(
          validity, col::Buffer::CopyOf(validity_.data(), validity_.size()));
    }
    switch (type_) {
      case TypeId::kString: {
        BENTO_ASSIGN_OR_RETURN(
            auto chars, col::Buffer::CopyOf(chars_.data(), chars_.size()));
        return col::Array::MakeString(rows_, std::move(data_), std::move(chars),
                                      std::move(validity), null_count_);
      }
      case TypeId::kCategorical:
        return col::Array::MakeCategorical(
            rows_, std::move(data_),
            std::make_shared<std::vector<std::string>>(interner_.ToStrings()),
            std::move(validity), null_count_);
      default:
        return col::Array::MakeFixed(type_, rows_, std::move(data_),
                                     std::move(validity), null_count_);
    }
  }

 private:
  ColumnStage(TypeId type, int64_t rows)
      : type_(type),
        validity_(static_cast<size_t>(col::BitmapBytes(rows)), 0),
        rows_(rows) {}

  /// Slot `i` of data_, read through values_: a row touches every column,
  /// so the fields it uses lead the class.
  template <typename T>
  T& At(int64_t i) {
    return reinterpret_cast<T*>(values_)[i];
  }

  /// Parses all of `v` into `*out`, leaving zero when it does not parse.
  template <typename T>
  static bool ParseInto(std::string_view v, T* out) {
    const char* const end = v.data() + v.size();
    auto [p, ec] = std::from_chars(v.data(), end, *out);
    if (ec == std::errc() && p == end) return true;
    *out = T{};
    return false;
  }

  TypeId type_;
  uint8_t* values_ = nullptr;
  std::vector<uint8_t> validity_;  // bitmap, set bit = valid
  int64_t null_count_ = 0;
  std::string chars_;
  int64_t rows_;
  col::BufferPtr data_;
  kern::StringInterner interner_;
};

/// Parses `body` into `schema`'s columns. When `field_map` is non-null,
/// `schema` is a projection of the file and `(*field_map)[c]` gives the
/// record field index backing column `c`; unmapped fields are never
/// decoded (the column-skipping read path).
///
/// A record without '"' decodes in one pass: memchr finds each field's end
/// and the field goes straight into its column's staging, stopping after
/// the last mapped field. A record holding a quote is split by SplitRecord,
/// where a quoted field is literal content and never a null literal.
Result<col::TablePtr> ParseRecords(std::string_view body,
                                   const col::SchemaPtr& schema,
                                   const CsvReadOptions& options,
                                   const std::vector<size_t>* field_map =
                                       nullptr) {
  int64_t rows = 0;
  ForEachRecord(body, [&](std::string_view, bool) { ++rows; });
  const size_t n_cols = static_cast<size_t>(schema->num_fields());
  std::vector<ColumnStage> stages;
  stages.reserve(n_cols);
  for (const col::Field& f : schema->fields()) {
    BENTO_ASSIGN_OR_RETURN(auto stage, ColumnStage::Make(f.type, rows));
    stages.push_back(std::move(stage));
  }
  const NullLiterals nulls(options.null_literals);
  const char delimiter = options.delimiter;
  auto field_of = [&](size_t c) {
    return field_map != nullptr ? (*field_map)[c] : c;
  };
  int64_t row = 0;
  auto decode = [&](ColumnStage& stage, std::string_view v) {
    if (nulls.Match(v)) {
      stage.SetNull(row);
    } else {
      stage.Set(row, v);
    }
  };
  std::vector<std::string_view> fields;
  std::vector<bool> quoted;
  std::string scratch;
  ForEachRecord(body, [&](std::string_view line, bool has_quote) {
    if (has_quote) {
      SplitRecord(line, delimiter, &fields, &scratch, &quoted);
      for (size_t c = 0; c < n_cols; ++c) {
        const size_t f = field_of(c);
        if (f >= fields.size()) {
          stages[c].SetNull(row);
        } else if (quoted[f]) {
          stages[c].Set(row, fields[f]);
        } else {
          decode(stages[c], fields[f]);
        }
      }
      ++row;
      return;
    }
    // `p` starts field `field`, or is null past the record's last field.
    const char* p = line.data();
    const char* const end = p + line.size();
    size_t field = 0;
    auto next = [&](const char* from) -> const char* {
      return static_cast<const char*>(
          std::memchr(from, delimiter, static_cast<size_t>(end - from)));
    };
    for (size_t c = 0; c < n_cols; ++c) {
      for (const size_t f = field_of(c); p != nullptr && field < f; ++field) {
        const char* d = next(p);
        p = d != nullptr ? d + 1 : nullptr;
      }
      if (p == nullptr) {
        stages[c].SetNull(row);
        continue;
      }
      const char* d = next(p);
      const char* field_end = d != nullptr ? d : end;
      decode(stages[c],
             std::string_view(p, static_cast<size_t>(field_end - p)));
      p = d != nullptr ? d + 1 : nullptr;
      ++field;
    }
    ++row;
  });
  std::vector<col::ArrayPtr> columns;
  columns.reserve(n_cols);
  for (ColumnStage& stage : stages) {
    BENTO_ASSIGN_OR_RETURN(auto a, stage.Finish());
    columns.push_back(std::move(a));
  }
  return col::Table::Make(schema, std::move(columns));
}

/// Resolved form of CsvReadOptions::drop_columns: the projected schema and,
/// per kept column, the index of its field in the raw record.
struct CsvProjection {
  col::SchemaPtr schema;
  std::vector<size_t> field_map;
  bool active = false;
};

Result<CsvProjection> ResolveDropColumns(const col::SchemaPtr& full,
                                         const CsvReadOptions& options) {
  CsvProjection proj;
  proj.schema = full;
  if (options.drop_columns.empty()) return proj;
  std::set<std::string> drop;
  for (const std::string& name : options.drop_columns) {
    if (full->IndexOf(name) < 0) {
      return Status::KeyError("no column named '", name, "'");
    }
    drop.insert(name);
  }
  std::vector<col::Field> fields;
  for (int c = 0; c < full->num_fields(); ++c) {
    const col::Field& f = full->fields()[static_cast<size_t>(c)];
    if (drop.count(f.name) != 0) continue;
    fields.push_back(f);
    proj.field_map.push_back(static_cast<size_t>(c));
  }
  proj.schema = std::make_shared<col::Schema>(std::move(fields));
  proj.active = true;
  static obs::Counter* skipped =
      obs::MetricsRegistry::Global().counter("io.csv.columns_skipped");
  skipped->Add(static_cast<int64_t>(drop.size()));
  return proj;
}

struct HeaderInfo {
  std::vector<std::string> names;
  size_t body_offset = 0;  // offset of the first data record
};

HeaderInfo ReadHeader(std::string_view text, const CsvReadOptions& options) {
  HeaderInfo info;
  size_t end = text.find('\n');
  std::string_view first =
      end == std::string_view::npos ? text : text.substr(0, end);
  if (!first.empty() && first.back() == '\r') first.remove_suffix(1);
  std::vector<std::string_view> fields;
  std::string scratch;
  SplitRecord(first, options.delimiter, &fields, &scratch);
  if (options.has_header) {
    for (std::string_view f : fields) info.names.emplace_back(f);
    info.body_offset = end == std::string_view::npos ? text.size() : end + 1;
  } else {
    for (size_t c = 0; c < fields.size(); ++c) {
      // Appended, not `"c" + std::string&&` (a GCC 12 -Wrestrict false
      // positive).
      info.names.emplace_back("c");
      info.names.back() += std::to_string(c);
    }
    info.body_offset = 0;
  }
  return info;
}

/// Column-type inference over the first `infer_rows` records of `body`
/// (int64 -> float64 -> bool -> string, the Pandas-like ladder), whole
/// ones only when `whole_only` (see ForEachRecord). Null literals, quoted
/// or not, take no part.
col::SchemaPtr InferFromBody(std::string_view body,
                             const std::vector<std::string>& names,
                             const CsvReadOptions& options,
                             bool whole_only = false) {
  const size_t n_cols = names.size();
  std::vector<bool> all_int(n_cols, true);
  std::vector<bool> all_double(n_cols, true);
  std::vector<bool> all_bool(n_cols, true);
  std::vector<bool> any_value(n_cols, false);
  const NullLiterals nulls(options.null_literals);
  std::vector<std::string_view> fields;
  std::string scratch;
  ForEachRecord(
      body,
      [&](std::string_view line, bool) {
        SplitRecord(line, options.delimiter, &fields, &scratch);
        for (size_t c = 0; c < n_cols && c < fields.size(); ++c) {
          const std::string_view v = fields[c];
          if (nulls.Match(v)) continue;
          any_value[c] = true;
          if (all_int[c] && !LooksLikeInt(v)) all_int[c] = false;
          if (all_double[c] && !LooksLikeDouble(v)) all_double[c] = false;
          if (all_bool[c] && !LooksLikeBool(v)) all_bool[c] = false;
        }
      },
      options.infer_rows, whole_only);

  std::vector<col::Field> schema;
  for (size_t c = 0; c < n_cols; ++c) {
    TypeId t = TypeId::kString;
    if (any_value[c]) {
      if (all_int[c]) {
        t = TypeId::kInt64;
      } else if (all_double[c]) {
        t = TypeId::kFloat64;
      } else if (all_bool[c]) {
        t = TypeId::kBool;
      }
    }
    if (t == TypeId::kString && options.dictionary_encode_strings) {
      t = TypeId::kCategorical;
    }
    schema.push_back({names[c], t});
  }
  return std::make_shared<col::Schema>(std::move(schema));
}

/// Every CSV reader counts the file bytes it reads here.
void CountBytesRead(uint64_t bytes) {
  static obs::Counter* bytes_read =
      obs::MetricsRegistry::Global().counter("io.csv.bytes_read");
  bytes_read->Add(bytes);
}

Result<std::string> SlurpFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IOError("cannot open ", path);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  std::string content(static_cast<size_t>(size), '\0');
  const size_t got = std::fread(content.data(), 1, content.size(), f);
  std::fclose(f);
  if (got != content.size()) return Status::IOError("short read from ", path);
  return content;
}

}  // namespace

Result<col::TablePtr> ReadCsv(const std::string& path,
                              const CsvReadOptions& options) {
  BENTO_TRACE_SPAN(kIo, "csv.read");
  BENTO_ASSIGN_OR_RETURN(std::string content, SlurpFile(path));
  CountBytesRead(content.size());
  HeaderInfo header = ReadHeader(content, options);
  std::string_view body =
      std::string_view(content).substr(header.body_offset);
  col::SchemaPtr schema = options.schema;
  if (schema == nullptr) {
    schema = InferFromBody(body, header.names, options);
  } else if (static_cast<size_t>(schema->num_fields()) != header.names.size()) {
    return Status::Invalid("explicit schema has ", schema->num_fields(),
                           " fields, file has ", header.names.size());
  }
  BENTO_ASSIGN_OR_RETURN(CsvProjection proj,
                         ResolveDropColumns(schema, options));
  return ParseRecords(body, proj.schema, options,
                      proj.active ? &proj.field_map : nullptr);
}

Result<col::TablePtr> ReadCsvMmap(const std::string& path,
                                  const CsvReadOptions& options,
                                  const sim::ParallelOptions& parallel) {
  BENTO_TRACE_SPAN(kIo, "csv.read_mmap");
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::IOError("cannot open ", path);
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::IOError("stat failed for ", path);
  }
  const size_t size = static_cast<size_t>(st.st_size);
  CountBytesRead(size);
  void* mapped = size > 0 ? ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0)
                          : nullptr;
  ::close(fd);
  if (size > 0 && mapped == MAP_FAILED) {
    return Status::IOError("mmap failed for ", path);
  }
  struct Unmapper {
    void* p;
    size_t n;
    ~Unmapper() {
      if (p != nullptr) ::munmap(p, n);
    }
  } unmapper{mapped, size};

  std::string_view text(static_cast<const char*>(mapped), size);
  HeaderInfo header = ReadHeader(text, options);
  std::string_view body = text.substr(header.body_offset);
  col::SchemaPtr schema = options.schema;
  if (schema == nullptr) schema = InferFromBody(body, header.names, options);
  BENTO_ASSIGN_OR_RETURN(CsvProjection proj,
                         ResolveDropColumns(schema, options));
  schema = proj.schema;
  const std::vector<size_t>* field_map =
      proj.active ? &proj.field_map : nullptr;

  // Split at record boundaries (newline scan; quoted newlines are not
  // supported on this parallel path, matching mmap readers' restrictions).
  int workers = parallel.max_workers;
  if (workers <= 0) {
    workers = sim::Session::Current() != nullptr
                  ? sim::Session::Current()->cores()
                  : 1;
  }
  std::vector<std::pair<size_t, size_t>> chunks;
  if (workers <= 1 || body.size() < 1 << 16) {
    chunks.emplace_back(0, body.size());
  } else {
    size_t begin = 0;
    for (int w = 1; w <= workers; ++w) {
      size_t target = body.size() * static_cast<size_t>(w) /
                      static_cast<size_t>(workers);
      if (w == workers) {
        chunks.emplace_back(begin, body.size());
        break;
      }
      size_t cut = body.find('\n', target);
      if (cut == std::string_view::npos) {
        chunks.emplace_back(begin, body.size());
        begin = body.size();
        break;
      }
      chunks.emplace_back(begin, cut + 1);
      begin = cut + 1;
    }
  }

  std::vector<col::TablePtr> parts(chunks.size());
  BENTO_RETURN_NOT_OK(sim::ParallelFor(
      static_cast<int64_t>(chunks.size()),
      [&](int64_t i) -> Status {
        auto [b, e] = chunks[static_cast<size_t>(i)];
        if (e <= b) {
          return Status::OK();
        }
        BENTO_ASSIGN_OR_RETURN(parts[static_cast<size_t>(i)],
                               ParseRecords(body.substr(b, e - b), schema,
                                            options, field_map));
        return Status::OK();
      },
      parallel));

  std::vector<col::TablePtr> non_empty;
  for (auto& p : parts) {
    if (p != nullptr && p->num_rows() > 0) non_empty.push_back(std::move(p));
  }
  if (non_empty.empty()) return col::Table::MakeEmpty(schema);
  return col::ConcatTables(non_empty);
}

Result<std::unique_ptr<CsvChunkReader>> CsvChunkReader::Open(
    const std::string& path, const CsvReadOptions& options) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IOError("cannot open ", path);
  auto reader = std::unique_ptr<CsvChunkReader>(new CsvChunkReader());
  reader->file_ = f;
  reader->options_ = options;

  // Infer from a prefix, which stays in the first block past the header.
  reader->capacity_ = 1 << 20;
  reader->block_.reset(new char[reader->capacity_]);
  reader->end_ = std::fread(reader->block_.get(), 1, reader->capacity_, f);
  CountBytesRead(reader->end_);
  const std::string_view prefix(reader->block_.get(), reader->end_);
  HeaderInfo header = ReadHeader(prefix, options);
  reader->begin_ = header.body_offset;
  col::SchemaPtr full = options.schema;
  if (full == nullptr) {
    // A prefix that stops short of end of file cuts its last record, which
    // must not be sampled: ReadCsv samples whole records only.
    const int next = reader->end_ == reader->capacity_ ? std::fgetc(f) : EOF;
    if (next != EOF) std::ungetc(next, f);
    full = InferFromBody(prefix.substr(header.body_offset), header.names,
                         options, /*whole_only=*/next != EOF);
  }
  BENTO_ASSIGN_OR_RETURN(CsvProjection proj,
                         ResolveDropColumns(full, options));
  reader->schema_ = proj.schema;
  if (proj.active) reader->field_map_ = std::move(proj.field_map);
  return reader;
}

CsvChunkReader::~CsvChunkReader() {
  if (file_ != nullptr) std::fclose(file_);
}

Result<CsvChunkReader::Decode> CsvChunkReader::Cut() {
  BENTO_TRACE_SPAN(kIo, "csv.chunk_cut");
  // One pass over the records at the front of the buffer, reading on as a
  // record runs past its end. A `\r`-only line counts toward the cut but
  // decodes to no row; the chunk ends after `chunk_rows` counted lines once
  // `chunk_rows` rows exist, and at end of file everything left (a tail
  // with no newline included) is the last chunk.
  const int64_t limit = options_.chunk_rows;
  size_t cut = limit > 0 ? std::string::npos : 0;
  size_t pos = 0;  // an offset from begin_, which Refill() keeps valid
  int64_t lines = 0;
  int64_t rows = 0;
  while (rows < limit) {
    const std::string_view uncut(block_.get() + begin_, end_ - begin_);
    const size_t end = RecordEnd(uncut, pos);
    if (end == std::string::npos) {
      if (eof_) {
        cut = uncut.size();
        break;
      }
      Refill();
      continue;
    }
    if (end > pos) {
      if (++lines == limit) cut = end + 1;
      if (end - pos != 1 || uncut[pos] != '\r') ++rows;
    }
    pos = end + 1;
  }
  // The first cut always yields a batch: a header-only file's zero rows.
  if (cut == 0 && cut_any_) return Decode();
  cut_any_ = true;
  const std::string_view text(block_.get() + begin_, cut);
  begin_ += cut;
  return Decode([block = block_, text, schema = schema_, options = options_,
                 field_map = field_map_]() -> Result<col::TablePtr> {
    BENTO_TRACE_SPAN(kIo, "csv.chunk_decode");
    return ParseRecords(text, schema, options,
                        field_map.empty() ? nullptr : &field_map);
  });
}

void CsvChunkReader::Refill() {
  constexpr size_t kReadBytes = 256 * 1024;
  if (capacity_ - end_ < kReadBytes) {
    // Decodes may still hold this block, so the uncut bytes move to a new
    // one: twice their size plus a read, and never smaller than this one.
    const size_t uncut = end_ - begin_;
    const size_t capacity = std::max(capacity_, 2 * uncut + kReadBytes);
    std::shared_ptr<char[]> block(new char[capacity]);
    std::memcpy(block.get(), block_.get() + begin_, uncut);
    block_ = std::move(block);
    capacity_ = capacity;
    begin_ = 0;
    end_ = uncut;
  }
  const size_t got = std::fread(block_.get() + end_, 1, kReadBytes, file_);
  CountBytesRead(got);
  end_ += got;
  eof_ = got == 0;
}

Result<col::TablePtr> CsvChunkReader::Next() {
  BENTO_ASSIGN_OR_RETURN(Decode decode, Cut());
  if (!decode) return col::TablePtr(nullptr);
  return decode();
}

}  // namespace bento::io
