#include "io/bcf.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

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

struct PendingChunk {
  uint64_t validity_offset = 0;
  uint64_t validity_size = 0;
  uint64_t data_offset = 0;
  uint64_t data_size = 0;
  uint64_t raw_size = 0;
  Encoding encoding = Encoding::kPlain;
  bool compressed = false;
  int64_t null_count = 0;
};

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

}  // namespace

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

struct BcfWriter::GroupMeta {
  int64_t rows = 0;
  std::vector<PendingChunk> chunks;
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

Status BcfWriter::WriteColumnChunk(const col::ArrayPtr& column,
                                   GroupMeta* meta) {
  PendingChunk chunk;
  chunk.null_count = column->null_count();

  if (chunk.null_count > 0) {
    // Repack the validity bits of the slice into a fresh bitmap so the
    // on-disk page is self-contained (slices may not be byte-aligned).
    BENTO_ASSIGN_OR_RETURN(auto bits,
                           col::AllocateBitmap(column->length(), false));
    for (int64_t i = 0; i < column->length(); ++i) {
      if (column->IsValid(i)) col::SetBit(bits->mutable_data(), i);
    }
    chunk.validity_offset = offset_;
    chunk.validity_size = bits->size();
    BENTO_RETURN_NOT_OK(WriteBytes(file_, bits->data(), bits->size()));
    offset_ += bits->size();
  }

  chunk.encoding =
      options_.mappable ? MappableEncoding(column) : ChooseEncoding(column);
  BENTO_ASSIGN_OR_RETURN(auto encoded, EncodeArray(column, chunk.encoding));
  chunk.raw_size = encoded.size();
  if (options_.align_pages && offset_ % 8 != 0) {
    static const uint8_t kZeros[8] = {0};
    const uint64_t pad = 8 - offset_ % 8;
    BENTO_RETURN_NOT_OK(WriteBytes(file_, kZeros, pad));
    offset_ += pad;
  }
  chunk.data_offset = offset_;
  if (options_.compression && encoded.size() >= kMinCompressSize) {
    std::vector<uint8_t> packed = LzCompress(encoded.data(), encoded.size());
    if (packed.size() * 8 < encoded.size() * 7) {
      chunk.compressed = true;
      chunk.data_size = packed.size();
      BENTO_RETURN_NOT_OK(WriteBytes(file_, packed.data(), packed.size()));
      offset_ += packed.size();
    }
  }
  if (!chunk.compressed) {
    chunk.data_size = encoded.size();
    BENTO_RETURN_NOT_OK(WriteBytes(file_, encoded.data(), encoded.size()));
    offset_ += encoded.size();
  }
  meta->chunks.push_back(chunk);
  return Status::OK();
}

Status BcfWriter::AppendGroup(const col::TablePtr& slice) {
  GroupMeta meta;
  meta.rows = slice->num_rows();
  for (int c = 0; c < slice->num_columns(); ++c) {
    BENTO_RETURN_NOT_OK(WriteColumnChunk(slice->column(c), &meta));
  }
  groups_.push_back(std::move(meta));
  total_rows_ += slice->num_rows();
  return Status::OK();
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
  GroupMeta meta;
  meta.rows = num_rows;
  for (int c = 0; c < schema->num_fields(); ++c) {
    BENTO_ASSIGN_OR_RETURN(auto column, column_at(c));
    if (column->length() != num_rows) {
      return Status::Invalid("AppendColumnGroup: column '",
                             schema->field(c).name, "' has ", column->length(),
                             " rows, expected ", num_rows);
    }
    BENTO_RETURN_NOT_OK(WriteColumnChunk(column, &meta));
  }
  groups_.push_back(std::move(meta));
  total_rows_ += num_rows;
  return Status::OK();
}

Status BcfWriter::Append(const col::TablePtr& table) {
  if (finished_) return Status::Invalid("BcfWriter already finished");
  if (schema_ == nullptr) {
    schema_ = table->schema();
  } else if (!(*schema_ == *table->schema())) {
    return Status::Invalid("BcfWriter schema mismatch");
  }
  const int64_t group_rows =
      options_.row_group_rows > 0 ? options_.row_group_rows : table->num_rows();
  if (table->num_rows() == 0) {
    return AppendGroup(table);
  }
  for (int64_t begin = 0; begin < table->num_rows(); begin += group_rows) {
    const int64_t rows = std::min(group_rows, table->num_rows() - begin);
    BENTO_ASSIGN_OR_RETURN(auto slice, table->Slice(begin, rows));
    BENTO_RETURN_NOT_OK(AppendGroup(slice));
  }
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
    for (const PendingChunk& chunk : meta.chunks) {
      JsonValue cj = JsonValue::Object();
      cj.Set("vo", JsonValue::Int(static_cast<int64_t>(chunk.validity_offset)));
      cj.Set("vs", JsonValue::Int(static_cast<int64_t>(chunk.validity_size)));
      cj.Set("do", JsonValue::Int(static_cast<int64_t>(chunk.data_offset)));
      cj.Set("ds", JsonValue::Int(static_cast<int64_t>(chunk.data_size)));
      cj.Set("rs", JsonValue::Int(static_cast<int64_t>(chunk.raw_size)));
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
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) return Status::IOError("cannot open ", path);
    // The reader's destructor closes file_, so every early return below
    // (bad magic, corrupt footer, ...) releases the descriptor.
    reader->file_ = f;
    if (std::fseek(f, 0, SEEK_END) != 0) return Status::IOError("seek failed");
    file_size = static_cast<uint64_t>(std::ftell(f));
  }
  if (file_size < 16) return Status::IOError(path, " is not a BCF file");

  char head[4];
  char tail[12];
  {
    // Raw byte reads, valid in both modes (map_ bounds were checked above).
    auto read_at = [&](uint64_t off, void* out, size_t n) -> Status {
      if (reader->map_ != nullptr) {
        std::memcpy(out, reader->map_->addr + off, n);
        return Status::OK();
      }
      if (std::fseek(reader->file_, static_cast<long>(off), SEEK_SET) != 0 ||
          std::fread(out, 1, n, reader->file_) != n) {
        return Status::IOError("cannot read BCF trailer");
      }
      return Status::OK();
    };
    BENTO_RETURN_NOT_OK(read_at(0, head, 4));
    BENTO_RETURN_NOT_OK(read_at(file_size - 12, tail, 12));
  }
  if (std::memcmp(head, kMagic, 4) != 0 ||
      std::memcmp(tail + 8, kMagic, 4) != 0) {
    return Status::IOError(path, " has no BCF magic");
  }
  uint64_t footer_len;
  std::memcpy(&footer_len, tail, 8);
  if (footer_len + 16 > file_size) {
    return Status::IOError("corrupt BCF footer length");
  }
  reader->data_end_ = file_size - 12 - footer_len;

  std::string footer_text(footer_len, '\0');
  if (reader->map_ != nullptr) {
    std::memcpy(footer_text.data(), reader->map_->addr + reader->data_end_,
                footer_len);
  } else if (std::fseek(reader->file_, static_cast<long>(reader->data_end_),
                        SEEK_SET) != 0 ||
             std::fread(footer_text.data(), 1, footer_len, reader->file_) !=
                 footer_len) {
    return Status::IOError("cannot read BCF footer");
  }
  BENTO_ASSIGN_OR_RETURN(JsonValue footer, ParseJson(footer_text));

  std::vector<col::Field> fields;
  for (const JsonValue& fj : footer.Get("schema").items()) {
    fields.push_back(col::Field{
        fj.GetString("name"),
        static_cast<col::TypeId>(fj.GetInt("type"))});
  }
  reader->schema_ = std::make_shared<col::Schema>(std::move(fields));
  reader->num_rows_ = footer.GetInt("num_rows");

  for (const JsonValue& gj : footer.Get("groups").items()) {
    RowGroup group;
    group.num_rows = gj.GetInt("rows");
    for (const JsonValue& cj : gj.Get("columns").items()) {
      ColumnChunk chunk;
      chunk.validity_offset = static_cast<uint64_t>(cj.GetInt("vo"));
      chunk.validity_size = static_cast<uint64_t>(cj.GetInt("vs"));
      chunk.data_offset = static_cast<uint64_t>(cj.GetInt("do"));
      chunk.data_size = static_cast<uint64_t>(cj.GetInt("ds"));
      chunk.raw_size = static_cast<uint64_t>(cj.GetInt("rs"));
      chunk.encoding = static_cast<Encoding>(cj.GetInt("enc"));
      chunk.compressed = cj.GetBool("z");
      chunk.null_count = cj.GetInt("nc");
      // Every page the footer points at must land inside the data region
      // [4, data_end_); overflow-safe so a hostile offset cannot wrap. A
      // corrupt header fails here with a clean error instead of a wild
      // read (or, in mmap mode, a SIGBUS past the mapping).
      const uint64_t data_lo = 4;
      auto page_ok = [&](uint64_t off, uint64_t size) {
        return size <= reader->data_end_ && off >= data_lo &&
               off <= reader->data_end_ - size;
      };
      if ((chunk.validity_size > 0 &&
           !page_ok(chunk.validity_offset, chunk.validity_size)) ||
          !page_ok(chunk.data_offset, chunk.data_size) ||
          cj.GetInt("enc") < 0 ||
          cj.GetInt("enc") > static_cast<int64_t>(Encoding::kStrView)) {
        return Status::IOError("corrupt BCF row group header");
      }
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
  for (const RowGroup& group : reader->groups_) {
    for (size_t c = 0; c < n_fields; ++c) {
      if (group.columns[c].encoding != Encoding::kDict) {
        reader->dict_everywhere_[c] = false;
      }
    }
  }
  return reader;
}

BcfReader::~BcfReader() {
  if (file_ != nullptr) std::fclose(file_);
}

Result<std::vector<uint8_t>> BcfReader::ReadRange(uint64_t offset,
                                                  uint64_t size) {
  static obs::Counter* bytes_read =
      obs::MetricsRegistry::Global().counter("io.bcf.bytes_read");
  bytes_read->Add(size);
  std::vector<uint8_t> out(size);
  if (map_ != nullptr) {
    // Offsets were bounds-checked at Open; this is a plain copy out of the
    // mapping (used for pages that need decode and so cannot be zero-copy).
    if (size > 0) std::memcpy(out.data(), map_->addr + offset, size);
    return out;
  }
  if (std::fseek(file_, static_cast<long>(offset), SEEK_SET) != 0 ||
      (size > 0 && std::fread(out.data(), 1, size, file_) != size)) {
    return Status::IOError("BCF read failed at offset ", offset);
  }
  return out;
}

std::pair<uint64_t, uint64_t> BcfReader::GroupByteRange(
    const RowGroup& g) const {
  uint64_t lo = data_end_, hi = 0;
  for (const ColumnChunk& chunk : g.columns) {
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

void BcfReader::DoneWithGroup(int group) {
  if (map_ == nullptr || group < 0 || group >= num_row_groups()) return;
  auto [lo, hi] = GroupByteRange(groups_[static_cast<size_t>(group)]);
  map_->Advise(lo, hi - lo, MADV_DONTNEED);
}

Result<col::TablePtr> BcfReader::ReadRowGroup(
    int group, const std::vector<std::string>& columns) {
  if (group < 0 || group >= num_row_groups()) {
    return Status::IndexError("row group ", group, " out of range");
  }
  const RowGroup& g = groups_[static_cast<size_t>(group)];

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

  static obs::Counter* bytes_mapped =
      obs::MetricsRegistry::Global().counter("io.bcf.bytes_mapped");
  if (map_ != nullptr) {
    // Lazy per-group prefetch: fault this group's pages in ahead of the
    // column loop instead of demand-faulting one cache miss at a time.
    auto [lo, hi] = GroupByteRange(g);
    map_->Advise(lo, hi - lo, MADV_WILLNEED);
  }

  std::vector<col::Field> fields;
  std::vector<col::ArrayPtr> out_columns;
  for (int c : selected) {
    const ColumnChunk& chunk = g.columns[static_cast<size_t>(c)];
    col::BufferPtr validity;
    if (chunk.validity_size > 0) {
      if (map_ != nullptr) {
        // Validity bitmaps are stored raw, so the on-disk page is the
        // in-memory representation: wrap it, charging nothing.
        validity = col::Buffer::WrapOwned(map_->addr + chunk.validity_offset,
                                          chunk.validity_size, map_);
        bytes_mapped->Add(chunk.validity_size);
      } else {
        BENTO_ASSIGN_OR_RETURN(
            auto raw, ReadRange(chunk.validity_offset, chunk.validity_size));
        BENTO_ASSIGN_OR_RETURN(validity,
                               col::Buffer::CopyOf(raw.data(), raw.size()));
      }
    }

    const col::TypeId type = schema_->field(c).type;
    if (map_ != nullptr && !chunk.compressed &&
        chunk.encoding == Encoding::kStrView && type == col::TypeId::kString &&
        chunk.data_offset % 8 == 0) {
      // STRVIEW pages are the in-memory layout: (n+1) aligned int64 offsets
      // then the character bytes. Validate the offsets (a corrupt page must
      // fail cleanly, not hand out wild views), then wrap both buffers.
      const uint8_t* page = map_->addr + chunk.data_offset;
      BENTO_RETURN_NOT_OK(
          CheckStrViewOffsets(page, chunk.data_size, g.num_rows));
      const uint64_t offsets_bytes = static_cast<uint64_t>(g.num_rows + 1) * 8;
      int64_t char_bytes;
      std::memcpy(&char_bytes, page + static_cast<size_t>(g.num_rows) * 8, 8);
      auto offsets = col::Buffer::WrapOwned(page, offsets_bytes, map_);
      auto chars = col::Buffer::WrapOwned(
          page + offsets_bytes, static_cast<uint64_t>(char_bytes), map_);
      bytes_mapped->Add(chunk.data_size);
      BENTO_ASSIGN_OR_RETURN(
          auto array,
          col::Array::MakeString(g.num_rows, std::move(offsets),
                                 std::move(chars), std::move(validity),
                                 chunk.null_count));
      fields.push_back(schema_->field(c));
      out_columns.push_back(std::move(array));
      continue;
    }
    if (map_ != nullptr && !chunk.compressed &&
        chunk.encoding == Encoding::kPlain && IsFixedWidthMappable(type)) {
      const uint64_t width = static_cast<uint64_t>(col::ByteWidth(type));
      const uint64_t expected = static_cast<uint64_t>(g.num_rows) * width;
      // Zero-copy needs the page to be complete and (for multi-byte types)
      // 8-byte aligned — unaligned int64/double loads are UB. Files written
      // with align_pages qualify; others fall through to the copy path.
      if (chunk.data_size >= expected &&
          (width == 1 || chunk.data_offset % 8 == 0)) {
        auto values = col::Buffer::WrapOwned(map_->addr + chunk.data_offset,
                                             expected, map_);
        bytes_mapped->Add(expected);
        BENTO_ASSIGN_OR_RETURN(
            auto array,
            col::Array::MakeFixed(type, g.num_rows, std::move(values),
                                  std::move(validity), chunk.null_count));
        fields.push_back(schema_->field(c));
        out_columns.push_back(std::move(array));
        continue;
      }
    }

    BENTO_ASSIGN_OR_RETURN(auto data,
                           ReadRange(chunk.data_offset, chunk.data_size));
    if (chunk.compressed) {
      BENTO_ASSIGN_OR_RETURN(
          data, LzDecompress(data.data(), data.size(), chunk.raw_size));
    }
    col::Field field = schema_->field(c);
    if (options_.strings_as_categorical && field.type == col::TypeId::kString &&
        dict_everywhere_[static_cast<size_t>(c)]) {
      // The DICT page's dictionary + codes become the column directly —
      // no string materialization.
      field.type = col::TypeId::kCategorical;
    }
    BENTO_ASSIGN_OR_RETURN(
        auto array,
        DecodeArray(field.type, chunk.encoding, data.data(), data.size(),
                    g.num_rows, std::move(validity), chunk.null_count));
    fields.push_back(field);
    out_columns.push_back(std::move(array));
  }
  return col::Table::Make(std::make_shared<col::Schema>(std::move(fields)),
                          std::move(out_columns));
}

Result<col::TablePtr> BcfReader::ReadAll(
    const std::vector<std::string>& columns) {
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
