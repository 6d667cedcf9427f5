#include "io/bcf.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "columnar/bitmap.h"
#include "io/compress.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/json.h"

namespace bento::io {

namespace {

constexpr char kMagic[4] = {'B', 'C', 'F', '1'};
// Pages smaller than this skip compression (header overhead dominates).
constexpr size_t kMinCompressSize = 64;

Status WriteBytes(std::FILE* f, const void* data, size_t size) {
  static obs::Counter* bytes_written =
      obs::MetricsRegistry::Global().counter("io.bcf.bytes_written");
  bytes_written->Add(size);
  if (size > 0 && std::fwrite(data, 1, size, f) != size) {
    return Status::IOError("short write");
  }
  return Status::OK();
}

/// mmap mode resolution: BENTO_BCF_MMAP=0/off/false forces buffered reads,
/// any other value forces mapping; unset defers to the per-open option.
bool ResolveUseMmap(bool option) {
  const char* env = std::getenv("BENTO_BCF_MMAP");
  if (env == nullptr || env[0] == '\0') return option;
  return !(std::strcmp(env, "0") == 0 || std::strcmp(env, "off") == 0 ||
           std::strcmp(env, "false") == 0);
}

bool IsFixedWidthMappable(col::TypeId type) {
  switch (type) {
    case col::TypeId::kInt64:
    case col::TypeId::kFloat64:
    case col::TypeId::kTimestamp:
    case col::TypeId::kBool:
      return true;
    default:
      return false;  // strings are len-prefixed; categoricals carry a dict
  }
}

/// The fewest value-page bytes one row takes in `encoding`: a row count
/// the page cannot hold is rejected before a decoder sizes a buffer by it.
uint64_t MinRowBytes(Encoding encoding) {
  switch (encoding) {
    case Encoding::kRle:
      return 0;  // one run covers any number of rows
    case Encoding::kDict:
      return 4;  // a u32 code
    case Encoding::kStrView:
      return 8;  // an int64 offset
    default:
      return 1;  // PLAIN, DELTA
  }
}

/// Footer keys of a ChunkMeta's page fields, in the order they are written.
constexpr std::pair<const char*, uint64_t ChunkMeta::*> kPageKeys[] = {
    {"vo", &ChunkMeta::validity_offset}, {"vs", &ChunkMeta::validity_size},
    {"do", &ChunkMeta::data_offset},     {"ds", &ChunkMeta::data_size},
    {"rs", &ChunkMeta::raw_size}};

/// Footer integer `key` of `obj`; IOError when it is missing or no int64.
Result<int64_t> FooterInt(const JsonValue& obj, const char* key) {
  Result<int64_t> value = obj.Get(key).int_value();
  if (!value.ok()) {
    return Status::IOError("corrupt BCF footer: \"", key, "\" is ",
                           value.status().message());
  }
  return value;
}

}  // namespace

Result<ChunkMeta> WriteChunk(const col::ArrayPtr& column,
                             const BcfWriteOptions& options, uint64_t* offset,
                             const ByteSink& sink) {
  ChunkMeta chunk;
  chunk.null_count = column->null_count();
  if (chunk.null_count > 0) {
    // Repack the validity bits of the slice into a fresh bitmap so the
    // page is self-contained (slices may not be byte-aligned).
    BENTO_ASSIGN_OR_RETURN(auto bits,
                           col::AllocateBitmap(column->length(), false));
    for (int64_t i = 0; i < column->length(); ++i) {
      if (column->IsValid(i)) col::SetBit(bits->mutable_data(), i);
    }
    chunk.validity_offset = *offset;
    chunk.validity_size = bits->size();
    BENTO_RETURN_NOT_OK(sink(bits->data(), bits->size()));
    *offset += bits->size();
  }

  chunk.encoding =
      options.mappable ? MappableEncoding(column) : ChooseEncoding(column);
  BENTO_ASSIGN_OR_RETURN(auto encoded, EncodeArray(column, chunk.encoding));
  chunk.raw_size = encoded.size();
  if (options.align_pages && *offset % 8 != 0) {
    static const uint8_t kZeros[8] = {0};
    const uint64_t pad = 8 - *offset % 8;
    BENTO_RETURN_NOT_OK(sink(kZeros, pad));
    *offset += pad;
  }
  std::vector<uint8_t> packed;
  if (options.compression && encoded.size() >= kMinCompressSize) {
    packed = LzCompress(encoded.data(), encoded.size());
    chunk.compressed = packed.size() * 8 < encoded.size() * 7;
  }
  const std::vector<uint8_t>& page = chunk.compressed ? packed : encoded;
  chunk.data_offset = *offset;
  chunk.data_size = page.size();
  BENTO_RETURN_NOT_OK(sink(page.data(), page.size()));
  *offset += page.size();
  return chunk;
}

Status CheckChunkMeta(const ChunkMeta& meta, int64_t rows, uint64_t lo,
                      uint64_t hi) {
  auto page_ok = [&](uint64_t off, uint64_t size) {
    return lo <= hi && size <= hi - lo && off >= lo && off <= hi - size;
  };
  const uint64_t page_size = meta.compressed ? meta.raw_size : meta.data_size;
  const uint64_t row_bytes = MinRowBytes(meta.encoding);
  const bool ok =
      rows >= 0 && meta.null_count >= 0 && meta.null_count <= rows &&
      (meta.null_count == 0 || meta.validity_size > 0) &&
      (meta.validity_size == 0 ||
       (page_ok(meta.validity_offset, meta.validity_size) &&
        meta.validity_size >= static_cast<uint64_t>(col::BitmapBytes(rows)))) &&
      page_ok(meta.data_offset, meta.data_size) &&
      (!meta.compressed ||
       meta.raw_size <= LzMaxDecompressedSize(meta.data_size)) &&
      (row_bytes == 0 || static_cast<uint64_t>(rows) <= page_size / row_bytes);
  return ok ? Status::OK() : Status::IOError("corrupt column chunk header");
}

Result<col::ArrayPtr> ReadChunk(col::TypeId type, const ChunkMeta& meta,
                                int64_t rows, const uint8_t* validity_page,
                                const uint8_t* data,
                                const std::shared_ptr<void>& mapping) {
  static obs::Counter* bytes_mapped =
      obs::MetricsRegistry::Global().counter("io.bcf.bytes_mapped");
  col::BufferPtr validity;
  if (meta.validity_size > 0) {
    if (mapping != nullptr) {
      // Validity bitmaps are stored raw, so the page is the in-memory
      // representation: wrap it, charging nothing.
      validity =
          col::Buffer::WrapOwned(validity_page, meta.validity_size, mapping);
      bytes_mapped->Add(meta.validity_size);
    } else {
      BENTO_ASSIGN_OR_RETURN(
          validity, col::Buffer::CopyOf(validity_page, meta.validity_size));
    }
  }

  const bool aligned = reinterpret_cast<uintptr_t>(data) % 8 == 0;
  if (mapping != nullptr && !meta.compressed &&
      meta.encoding == Encoding::kStrView && type == col::TypeId::kString &&
      aligned) {
    // STRVIEW pages are the in-memory layout: (n+1) aligned int64 offsets
    // then the character bytes. Validate the offsets (a corrupt page must
    // fail cleanly, not hand out wild views), then wrap both buffers.
    BENTO_RETURN_NOT_OK(CheckStrViewOffsets(data, meta.data_size, rows));
    const uint64_t offsets_bytes = static_cast<uint64_t>(rows + 1) * 8;
    int64_t char_bytes;
    std::memcpy(&char_bytes, data + static_cast<size_t>(rows) * 8, 8);
    auto offsets = col::Buffer::WrapOwned(data, offsets_bytes, mapping);
    auto chars = col::Buffer::WrapOwned(
        data + offsets_bytes, static_cast<uint64_t>(char_bytes), mapping);
    bytes_mapped->Add(meta.data_size);
    return col::Array::MakeString(rows, std::move(offsets), std::move(chars),
                                  std::move(validity), meta.null_count);
  }
  if (mapping != nullptr && !meta.compressed &&
      meta.encoding == Encoding::kPlain && IsFixedWidthMappable(type)) {
    const uint64_t width = static_cast<uint64_t>(col::ByteWidth(type));
    const uint64_t expected = static_cast<uint64_t>(rows) * width;
    // Zero-copy needs the page to be complete and (for multi-byte types)
    // 8-byte aligned — unaligned int64/double loads are UB. Files written
    // with align_pages qualify; others fall through to the decode path.
    if (meta.data_size >= expected && (width == 1 || aligned)) {
      auto values = col::Buffer::WrapOwned(data, expected, mapping);
      bytes_mapped->Add(expected);
      return col::Array::MakeFixed(type, rows, std::move(values),
                                   std::move(validity), meta.null_count);
    }
  }

  if (mapping != nullptr) {
    // Decoding out of a mapped file reads the page like a buffered read.
    static obs::Counter* bytes_read =
        obs::MetricsRegistry::Global().counter("io.bcf.bytes_read");
    bytes_read->Add(meta.data_size);
  }
  std::vector<uint8_t> inflated;
  uint64_t size = meta.data_size;
  if (meta.compressed) {
    BENTO_ASSIGN_OR_RETURN(inflated,
                           LzDecompress(data, meta.data_size, meta.raw_size));
    data = inflated.data();
    size = inflated.size();
  }
  return DecodeArray(type, meta.encoding, data, size, rows,
                     std::move(validity), meta.null_count);
}

struct BcfMmapRegion {
  const uint8_t* addr = nullptr;
  uint64_t size = 0;
  int fd = -1;

  ~BcfMmapRegion() {
    if (addr != nullptr) ::munmap(const_cast<uint8_t*>(addr), size);
    if (fd >= 0) ::close(fd);
  }

  static Result<std::shared_ptr<BcfMmapRegion>> Open(const std::string& path) {
    auto region = std::make_shared<BcfMmapRegion>();
    region->fd = ::open(path.c_str(), O_RDONLY);
    if (region->fd < 0) return Status::IOError("cannot open ", path);
    struct stat st;
    if (::fstat(region->fd, &st) != 0) {
      return Status::IOError("cannot stat ", path);
    }
    region->size = static_cast<uint64_t>(st.st_size);
    if (region->size == 0) return Status::IOError(path, " is not a BCF file");
    void* addr =
        ::mmap(nullptr, region->size, PROT_READ, MAP_PRIVATE, region->fd, 0);
    if (addr == MAP_FAILED) return Status::IOError("cannot mmap ", path);
    region->addr = static_cast<const uint8_t*>(addr);
    // Column access is row-group-at-a-time, not a linear scan of the file;
    // per-group WILLNEED/DONTNEED hints below do the real prefetch work.
    ::madvise(addr, region->size, MADV_RANDOM);
    return region;
  }

  /// madvise over the page-aligned cover of [offset, offset+length).
  void Advise(uint64_t offset, uint64_t length, int advice) const {
    if (addr == nullptr || length == 0) return;
    static const uint64_t kPage =
        static_cast<uint64_t>(::sysconf(_SC_PAGESIZE));
    const uint64_t begin = offset & ~(kPage - 1);
    const uint64_t end = std::min(size, offset + length);
    if (end <= begin) return;
    ::madvise(const_cast<uint8_t*>(addr) + begin, end - begin, advice);
  }
};


Result<std::unique_ptr<BcfWriter>> BcfWriter::Open(
    const std::string& path, const BcfWriteOptions& options) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::IOError("cannot create ", path);
  auto writer = std::unique_ptr<BcfWriter>(new BcfWriter());
  writer->file_ = f;
  writer->options_ = options;
  BENTO_RETURN_NOT_OK(WriteBytes(f, kMagic, 4));
  writer->offset_ = 4;
  return writer;
}

BcfWriter::~BcfWriter() {
  if (file_ != nullptr) std::fclose(file_);
}

Status BcfWriter::AppendColumnGroup(
    const col::SchemaPtr& schema, int64_t num_rows,
    const std::function<Result<col::ArrayPtr>(int)>& column_at) {
  if (finished_) return Status::Invalid("BcfWriter already finished");
  if (schema_ == nullptr) {
    schema_ = schema;
  } else if (!(*schema_ == *schema)) {
    return Status::Invalid("BcfWriter schema mismatch");
  }
  const ByteSink sink = [this](const void* data, size_t size) {
    return WriteBytes(file_, data, size);
  };
  GroupMeta meta;
  meta.rows = num_rows;
  for (int c = 0; c < schema->num_fields(); ++c) {
    BENTO_ASSIGN_OR_RETURN(auto column, column_at(c));
    if (column->length() != num_rows) {
      return Status::Invalid("AppendColumnGroup: column '",
                             schema->field(c).name, "' has ", column->length(),
                             " rows, expected ", num_rows);
    }
    BENTO_ASSIGN_OR_RETURN(auto chunk,
                           WriteChunk(column, options_, &offset_, sink));
    meta.columns.push_back(chunk);
  }
  groups_.push_back(std::move(meta));
  total_rows_ += num_rows;
  return Status::OK();
}

Status BcfWriter::Append(const col::TablePtr& table) {
  const int64_t rows = table->num_rows();
  const int64_t group_rows =
      options_.row_group_rows > 0 ? options_.row_group_rows : rows;
  // A zero-row table still becomes one (empty) group.
  int64_t begin = 0;
  do {
    const int64_t n = std::min(group_rows, rows - begin);
    BENTO_ASSIGN_OR_RETURN(auto slice, table->Slice(begin, n));
    BENTO_RETURN_NOT_OK(AppendColumnGroup(
        table->schema(), n,
        [&slice](int c) -> Result<col::ArrayPtr> { return slice->column(c); }));
    begin += n;
  } while (begin < rows);
  return Status::OK();
}

Status BcfWriter::Finish() {
  if (finished_) return Status::Invalid("BcfWriter already finished");
  finished_ = true;
  if (schema_ == nullptr) {
    return Status::Invalid("BcfWriter finished without any data");
  }

  JsonValue footer = JsonValue::Object();
  JsonValue schema_json = JsonValue::Array();
  for (const col::Field& field : schema_->fields()) {
    JsonValue fj = JsonValue::Object();
    fj.Set("name", JsonValue::Str(field.name));
    fj.Set("type", JsonValue::Int(static_cast<int>(field.type)));
    schema_json.Append(std::move(fj));
  }
  footer.Set("schema", std::move(schema_json));
  footer.Set("num_rows", JsonValue::Int(total_rows_));
  JsonValue groups_json = JsonValue::Array();
  for (const GroupMeta& meta : groups_) {
    JsonValue gj = JsonValue::Object();
    gj.Set("rows", JsonValue::Int(meta.rows));
    JsonValue cols = JsonValue::Array();
    for (const ChunkMeta& chunk : meta.columns) {
      JsonValue cj = JsonValue::Object();
      for (const auto& [key, field] : kPageKeys) {
        cj.Set(key, JsonValue::Int(static_cast<int64_t>(chunk.*field)));
      }
      cj.Set("enc", JsonValue::Int(static_cast<int>(chunk.encoding)));
      cj.Set("z", JsonValue::Bool(chunk.compressed));
      cj.Set("nc", JsonValue::Int(chunk.null_count));
      cols.Append(std::move(cj));
    }
    gj.Set("columns", std::move(cols));
    groups_json.Append(std::move(gj));
  }
  footer.Set("groups", std::move(groups_json));

  const std::string footer_text = footer.Dump();
  BENTO_RETURN_NOT_OK(WriteBytes(file_, footer_text.data(), footer_text.size()));
  const uint64_t footer_len = footer_text.size();
  BENTO_RETURN_NOT_OK(WriteBytes(file_, &footer_len, 8));
  BENTO_RETURN_NOT_OK(WriteBytes(file_, kMagic, 4));
  if (std::fflush(file_) != 0) return Status::IOError("BCF flush failed");
  std::fclose(file_);
  file_ = nullptr;
  return Status::OK();
}

Status WriteBcf(const col::TablePtr& table, const std::string& path,
                const BcfWriteOptions& options) {
  BENTO_TRACE_SPAN(kIo, "bcf.write");
  BENTO_ASSIGN_OR_RETURN(auto writer, BcfWriter::Open(path, options));
  BENTO_RETURN_NOT_OK(writer->Append(table));
  return writer->Finish();
}

Result<std::unique_ptr<BcfReader>> BcfReader::Open(
    const std::string& path, const BcfReadOptions& options) {
  auto reader = std::unique_ptr<BcfReader>(new BcfReader());
  reader->options_ = options;

  uint64_t file_size = 0;
  if (ResolveUseMmap(options.use_mmap)) {
    BENTO_ASSIGN_OR_RETURN(reader->map_, BcfMmapRegion::Open(path));
    file_size = reader->map_->size;
  } else {
    // The reader's destructor closes fd_, so every early return below
    // (bad magic, corrupt footer, ...) releases the descriptor.
    reader->fd_ = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (reader->fd_ < 0) return Status::IOError("cannot open ", path);
    struct stat st;
    if (::fstat(reader->fd_, &st) != 0) {
      return Status::IOError("cannot stat ", path);
    }
    file_size = static_cast<uint64_t>(st.st_size);
  }
  if (file_size < 16) return Status::IOError(path, " is not a BCF file");

  char head[4];
  char tail[12];
  BENTO_RETURN_NOT_OK(reader->ReadAt(0, 4, head));
  BENTO_RETURN_NOT_OK(reader->ReadAt(file_size - 12, 12, tail));
  if (std::memcmp(head, kMagic, 4) != 0 ||
      std::memcmp(tail + 8, kMagic, 4) != 0) {
    return Status::IOError(path, " has no BCF magic");
  }
  uint64_t footer_len;
  std::memcpy(&footer_len, tail, 8);
  if (footer_len > file_size - 16) {  // file_size >= 16; cannot wrap
    return Status::IOError("corrupt BCF footer length");
  }
  reader->data_end_ = file_size - 12 - footer_len;

  std::string footer_text(footer_len, '\0');
  BENTO_RETURN_NOT_OK(
      reader->ReadAt(reader->data_end_, footer_len, footer_text.data()));
  BENTO_ASSIGN_OR_RETURN(JsonValue footer, ParseJson(footer_text));

  std::vector<col::Field> fields;
  for (const JsonValue& fj : footer.Get("schema").items()) {
    BENTO_ASSIGN_OR_RETURN(int64_t type, FooterInt(fj, "type"));
    if (type < 0 || type > static_cast<int64_t>(col::TypeId::kCategorical)) {
      return Status::IOError("corrupt BCF schema: type id ", type);
    }
    fields.push_back(
        col::Field{fj.GetString("name"), static_cast<col::TypeId>(type)});
  }
  reader->schema_ = std::make_shared<col::Schema>(std::move(fields));
  BENTO_ASSIGN_OR_RETURN(reader->num_rows_, FooterInt(footer, "num_rows"));

  for (const JsonValue& gj : footer.Get("groups").items()) {
    GroupMeta group;
    BENTO_ASSIGN_OR_RETURN(group.rows, FooterInt(gj, "rows"));
    for (const JsonValue& cj : gj.Get("columns").items()) {
      ChunkMeta chunk;
      BENTO_ASSIGN_OR_RETURN(int64_t enc, FooterInt(cj, "enc"));
      if (enc < 0 || enc > static_cast<int64_t>(Encoding::kStrView)) {
        return Status::IOError("corrupt BCF row group header: encoding ", enc);
      }
      chunk.encoding = static_cast<Encoding>(enc);
      // Negative offsets and sizes wrap to huge values, which the meta
      // check below rejects along with every other out-of-range page.
      for (const auto& [key, field] : kPageKeys) {
        BENTO_ASSIGN_OR_RETURN(int64_t value, FooterInt(cj, key));
        chunk.*field = static_cast<uint64_t>(value);
      }
      BENTO_ASSIGN_OR_RETURN(chunk.null_count, FooterInt(cj, "nc"));
      chunk.compressed = cj.GetBool("z");
      // Every page must land inside the data region [4, data_end_): a
      // corrupt header fails here with a clean error instead of a wild
      // read (or, in mmap mode, a SIGBUS past the mapping).
      BENTO_RETURN_NOT_OK(
          CheckChunkMeta(chunk, group.rows, 4, reader->data_end_));
      group.columns.push_back(chunk);
    }
    if (group.columns.size() !=
        static_cast<size_t>(reader->schema_->num_fields())) {
      return Status::IOError("BCF row group column count mismatch");
    }
    reader->groups_.push_back(std::move(group));
  }

  // A string column can surface as categorical only when every group's
  // chunk is DICT-encoded; a single PLAIN chunk forces plain strings so
  // concatenated groups keep one type.
  const size_t n_fields = static_cast<size_t>(reader->schema_->num_fields());
  reader->dict_everywhere_.assign(n_fields, !reader->groups_.empty());
  for (const GroupMeta& group : reader->groups_) {
    for (size_t c = 0; c < n_fields; ++c) {
      if (group.columns[c].encoding != Encoding::kDict) {
        reader->dict_everywhere_[c] = false;
      }
    }
  }
  return reader;
}

BcfReader::~BcfReader() {
  if (fd_ >= 0) ::close(fd_);
}

Status BcfReader::ReadAt(uint64_t offset, uint64_t size, void* out) const {
  if (size == 0) return Status::OK();
  if (map_ != nullptr) {
    // Callers have bounds-checked the range against the mapping.
    std::memcpy(out, map_->addr + offset, size);
    return Status::OK();
  }
  auto* dst = static_cast<uint8_t*>(out);
  while (size > 0) {
    const ssize_t got = ::pread(fd_, dst, size, static_cast<off_t>(offset));
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) return Status::IOError("BCF read failed at offset ", offset);
    dst += got;
    offset += static_cast<uint64_t>(got);
    size -= static_cast<uint64_t>(got);
  }
  return Status::OK();
}

std::pair<uint64_t, uint64_t> BcfReader::GroupByteRange(
    const GroupMeta& g) const {
  uint64_t lo = data_end_, hi = 0;
  for (const ChunkMeta& chunk : g.columns) {
    if (chunk.validity_size > 0) {
      lo = std::min(lo, chunk.validity_offset);
      hi = std::max(hi, chunk.validity_offset + chunk.validity_size);
    }
    if (chunk.data_size > 0) {
      lo = std::min(lo, chunk.data_offset);
      hi = std::max(hi, chunk.data_offset + chunk.data_size);
    }
  }
  if (hi < lo) return {0, 0};
  return {lo, hi};
}

void BcfReader::DoneWithGroup(int group) const {
  if (map_ == nullptr || group < 0 || group >= num_row_groups()) return;
  auto [lo, hi] = GroupByteRange(groups_[static_cast<size_t>(group)]);
  map_->Advise(lo, hi - lo, MADV_DONTNEED);
}

Result<col::TablePtr> BcfReader::ReadRowGroup(
    int group, const std::vector<std::string>& columns) const {
  BENTO_TRACE_SPAN(kIo, "bcf.read_group");
  if (group < 0 || group >= num_row_groups()) {
    return Status::IndexError("row group ", group, " out of range");
  }
  const GroupMeta& g = groups_[static_cast<size_t>(group)];

  std::vector<int> selected;
  if (columns.empty()) {
    for (int c = 0; c < schema_->num_fields(); ++c) selected.push_back(c);
  } else {
    for (const std::string& name : columns) {
      int c = schema_->IndexOf(name);
      if (c < 0) return Status::KeyError("no column named '", name, "'");
      selected.push_back(c);
    }
  }

  static obs::Counter* bytes_read =
      obs::MetricsRegistry::Global().counter("io.bcf.bytes_read");
  if (map_ != nullptr) {
    // Lazy per-group prefetch: fault this group's pages in ahead of the
    // column loop instead of demand-faulting one cache miss at a time.
    auto [lo, hi] = GroupByteRange(g);
    map_->Advise(lo, hi - lo, MADV_WILLNEED);
  }

  std::vector<col::Field> fields;
  std::vector<col::ArrayPtr> out_columns;
  for (int c : selected) {
    const ChunkMeta& chunk = g.columns[static_cast<size_t>(c)];
    col::Field field = schema_->field(c);
    if (options_.strings_as_categorical && field.type == col::TypeId::kString &&
        dict_everywhere_[static_cast<size_t>(c)]) {
      // The DICT page's dictionary + codes become the column directly —
      // no string materialization.
      field.type = col::TypeId::kCategorical;
    }
    col::ArrayPtr array;
    if (map_ != nullptr) {
      BENTO_ASSIGN_OR_RETURN(
          array, ReadChunk(field.type, chunk, g.rows,
                           map_->addr + chunk.validity_offset,
                           map_->addr + chunk.data_offset, map_));
    } else {
      std::vector<uint8_t> validity(chunk.validity_size);
      std::vector<uint8_t> data(chunk.data_size);
      bytes_read->Add(validity.size() + data.size());
      BENTO_RETURN_NOT_OK(
          ReadAt(chunk.validity_offset, validity.size(), validity.data()));
      BENTO_RETURN_NOT_OK(ReadAt(chunk.data_offset, data.size(), data.data()));
      BENTO_ASSIGN_OR_RETURN(array,
                             ReadChunk(field.type, chunk, g.rows,
                                       validity.data(), data.data(), nullptr));
    }
    fields.push_back(field);
    out_columns.push_back(std::move(array));
  }
  return col::Table::Make(std::make_shared<col::Schema>(std::move(fields)),
                          std::move(out_columns));
}

Result<col::TablePtr> BcfReader::ReadAll(
    const std::vector<std::string>& columns) const {
  BENTO_TRACE_SPAN(kIo, "bcf.read_all");
  std::vector<col::TablePtr> parts;
  for (int g = 0; g < num_row_groups(); ++g) {
    BENTO_ASSIGN_OR_RETURN(auto t, ReadRowGroup(g, columns));
    parts.push_back(std::move(t));
  }
  if (parts.empty()) {
    return col::Table::MakeEmpty(schema_);
  }
  return col::ConcatTables(parts);
}

}  // namespace bento::io
