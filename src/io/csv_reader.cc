#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <charconv>
#include <cstring>
#include <set>

#include "columnar/builder.h"
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

bool IsNullLiteral(std::string_view v,
                   const std::vector<std::string>& null_literals) {
  for (const std::string& lit : null_literals) {
    if (v == lit) return true;
  }
  return false;
}

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
/// there. A record without quotes costs two memchr scans.
size_t RecordEnd(std::string_view text, size_t pos) {
  const char* data = text.data();
  const void* nl = std::memchr(data + pos, '\n', text.size() - pos);
  const size_t end =
      nl != nullptr ? static_cast<size_t>(static_cast<const char*>(nl) - data)
                    : text.size();
  if (std::memchr(data + pos, '"', end - pos) == nullptr) {
    return nl != nullptr ? end : std::string_view::npos;
  }
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

/// Calls `on_record(line)` for each record of `text` (quoted newlines stay
/// inside their record), the last one possibly without a newline. A
/// trailing '\r' is stripped; lines left empty are skipped.
template <typename Fn>
void ForEachRecord(std::string_view text, Fn on_record) {
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = RecordEnd(text, pos);
    if (end == std::string_view::npos) end = text.size();
    std::string_view line = text.substr(pos, end - pos);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (!line.empty()) on_record(line);
    pos = end + 1;
  }
}

/// Column-type inference over sampled rows.
col::SchemaPtr InferSchema(const std::vector<std::string>& names,
                           const std::vector<std::vector<std::string>>& sample,
                           const CsvReadOptions& options) {
  const size_t n_cols = names.size();
  std::vector<bool> all_int(n_cols, true);
  std::vector<bool> all_double(n_cols, true);
  std::vector<bool> all_bool(n_cols, true);
  std::vector<bool> any_value(n_cols, false);

  for (const auto& row : sample) {
    for (size_t c = 0; c < n_cols && c < row.size(); ++c) {
      std::string_view v = row[c];
      if (IsNullLiteral(v, options.null_literals)) continue;
      any_value[c] = true;
      if (all_int[c] && !LooksLikeInt(v)) all_int[c] = false;
      if (all_double[c] && !LooksLikeDouble(v)) all_double[c] = false;
      if (all_bool[c] && !LooksLikeBool(v)) all_bool[c] = false;
    }
  }

  std::vector<col::Field> fields;
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
    fields.push_back({names[c], t});
  }
  return std::make_shared<col::Schema>(std::move(fields));
}

/// Typed appender: decodes one field into the right builder; unparsable
/// values become null.
class ColumnDecoder {
 public:
  ColumnDecoder(TypeId type, const CsvReadOptions* options)
      : type_(type), options_(options) {}

  void Append(std::string_view v, bool was_quoted = false) {
    // Quoted fields are literal content; only bare fields decode as null.
    if (!was_quoted && IsNullLiteral(v, options_->null_literals)) {
      AppendNull();
      return;
    }
    switch (type_) {
      case TypeId::kInt64: {
        int64_t out;
        auto [p, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
        if (ec == std::errc() && p == v.data() + v.size()) {
          ints_.Append(out);
        } else {
          ints_.AppendNull();
        }
        break;
      }
      case TypeId::kFloat64: {
        double out;
        auto [p, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
        if (ec == std::errc() && p == v.data() + v.size()) {
          doubles_.Append(out);
        } else {
          doubles_.AppendNull();
        }
        break;
      }
      case TypeId::kBool: {
        if (v == "true" || v == "True") {
          bools_.Append(true);
        } else if (v == "false" || v == "False") {
          bools_.Append(false);
        } else {
          bools_.AppendNull();
        }
        break;
      }
      case TypeId::kCategorical:
        // Intern at parse time: one copy per distinct value, int32 codes
        // per row — the dictionary-encoded string column path.
        cats_.Append(interner_.FindOrInsert(v));
        break;
      default:
        strings_.Append(v);
    }
  }

  void AppendNull() {
    switch (type_) {
      case TypeId::kInt64:
        ints_.AppendNull();
        break;
      case TypeId::kFloat64:
        doubles_.AppendNull();
        break;
      case TypeId::kBool:
        bools_.AppendNull();
        break;
      case TypeId::kCategorical:
        cats_.AppendNull();
        break;
      default:
        strings_.AppendNull();
    }
  }

  Result<col::ArrayPtr> Finish() {
    switch (type_) {
      case TypeId::kInt64:
        return ints_.Finish();
      case TypeId::kFloat64:
        return doubles_.Finish();
      case TypeId::kBool:
        return bools_.Finish();
      case TypeId::kCategorical: {
        auto dict =
            std::make_shared<std::vector<std::string>>(interner_.ToStrings());
        return cats_.Finish(std::move(dict));
      }
      default:
        return strings_.Finish();
    }
  }

 private:
  TypeId type_;
  const CsvReadOptions* options_;
  col::Int64Builder ints_;
  col::Float64Builder doubles_;
  col::BoolBuilder bools_;
  col::StringBuilder strings_;
  col::CategoricalBuilder cats_;
  kern::StringInterner interner_;
};

/// Parses `body` into `schema`'s columns. When `field_map` is non-null,
/// `schema` is a projection of the file and `(*field_map)[c]` gives the
/// record field index backing column `c`; unmapped fields are split but
/// never decoded (the column-skipping read path).
Result<col::TablePtr> ParseRecords(std::string_view body,
                                   const col::SchemaPtr& schema,
                                   const CsvReadOptions& options,
                                   const std::vector<size_t>* field_map =
                                       nullptr) {
  std::vector<ColumnDecoder> decoders;
  decoders.reserve(static_cast<size_t>(schema->num_fields()));
  for (const col::Field& f : schema->fields()) {
    decoders.emplace_back(f.type, &options);
  }
  std::vector<std::string_view> fields;
  std::vector<bool> quoted;
  std::string scratch;
  scratch.reserve(4096);
  ForEachRecord(body, [&](std::string_view line) {
    SplitRecord(line, options.delimiter, &fields, &scratch, &quoted);
    for (size_t c = 0; c < decoders.size(); ++c) {
      const size_t f = field_map != nullptr ? (*field_map)[c] : c;
      if (f < fields.size()) {
        decoders[c].Append(fields[f], quoted[f]);
      } else {
        decoders[c].AppendNull();
      }
    }
  });
  std::vector<col::ArrayPtr> columns;
  for (auto& d : decoders) {
    BENTO_ASSIGN_OR_RETURN(auto a, d.Finish());
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

col::SchemaPtr InferFromBody(std::string_view body,
                             const std::vector<std::string>& names,
                             const CsvReadOptions& options) {
  std::vector<std::vector<std::string>> sample;
  std::vector<std::string_view> fields;
  std::string scratch;
  int64_t taken = 0;
  ForEachRecord(body, [&](std::string_view line) {
    if (taken >= options.infer_rows) return;
    SplitRecord(line, options.delimiter, &fields, &scratch);
    std::vector<std::string> row;
    row.reserve(fields.size());
    for (std::string_view f : fields) row.emplace_back(f);
    sample.push_back(std::move(row));
    ++taken;
  });
  return InferSchema(names, sample, options);
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

  // Infer from a prefix, which then seeds the buffer past the header.
  std::string prefix(1 << 20, '\0');
  const size_t got = std::fread(prefix.data(), 1, prefix.size(), f);
  CountBytesRead(got);
  prefix.resize(got);
  HeaderInfo header = ReadHeader(prefix, options);
  std::string_view body = std::string_view(prefix).substr(header.body_offset);
  col::SchemaPtr full = options.schema != nullptr
                            ? options.schema
                            : InferFromBody(body, header.names, options);
  BENTO_ASSIGN_OR_RETURN(CsvProjection proj,
                         ResolveDropColumns(full, options));
  reader->schema_ = proj.schema;
  if (proj.active) reader->field_map_ = std::move(proj.field_map);
  reader->buffer_ = body;
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
  size_t pos = 0;
  int64_t lines = 0;
  int64_t rows = 0;
  while (rows < limit) {
    const size_t end = RecordEnd(buffer_, pos);
    if (end == std::string::npos) {
      if (eof_) {
        cut = buffer_.size();
        break;
      }
      constexpr size_t kReadBytes = 256 * 1024;
      const size_t size = buffer_.size();
      buffer_.resize(size + kReadBytes);
      const size_t got =
          std::fread(buffer_.data() + size, 1, kReadBytes, file_);
      CountBytesRead(got);
      buffer_.resize(size + got);
      eof_ = got == 0;
      continue;
    }
    if (end > pos) {
      if (++lines == limit) cut = end + 1;
      if (end - pos != 1 || buffer_[pos] != '\r') ++rows;
    }
    pos = end + 1;
  }
  if (cut == 0) return Decode();
  std::string text = buffer_.substr(0, cut);
  buffer_.erase(0, cut);
  return Decode([text = std::move(text), schema = schema_, options = options_,
                 field_map = field_map_]() -> Result<col::TablePtr> {
    BENTO_TRACE_SPAN(kIo, "csv.chunk_decode");
    return ParseRecords(text, schema, options,
                        field_map.empty() ? nullptr : &field_map);
  });
}

Result<col::TablePtr> CsvChunkReader::Next() {
  BENTO_ASSIGN_OR_RETURN(Decode decode, Cut());
  if (!decode) return col::TablePtr(nullptr);
  return decode();
}

}  // namespace bento::io
