#ifndef BENTO_IO_BCF_H_
#define BENTO_IO_BCF_H_

#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "columnar/table.h"
#include "io/encoding.h"

namespace bento::io {

/// \brief BCF ("Bento Columnar Format") is this repo's Parquet stand-in:
/// a footer-indexed, row-grouped, column-chunked binary format with
/// per-page encodings (PLAIN/DELTA/DICT/RLE) and optional LZ page
/// compression.
///
/// Layout:
///   "BCF1" | row-group pages... | footer(JSON) | u64 footer_len | "BCF1"
///
/// Each column chunk is written and read by the chunk codec below (an
/// optional raw validity bitmap page, then the encoded value page). The
/// footer records every chunk's ChunkMeta, so readers can project columns
/// and stream row groups without touching the rest of the file — the
/// property behind the paper's Parquet observations (Fig. 5/6).
///
/// The footer holds integers, booleans and strings only — no statistics
/// over the column values — so no float64 value in the data (NaN, ±inf,
/// ±DBL_MAX) can make a written file unreadable. Keys are looked up by name:
/// the per-chunk "mn"/"mx" zone-map keys older writers added are ignored.
struct BcfWriteOptions {
  int64_t row_group_rows = 64 * 1024;
  bool compression = true;
  /// Pad every value page to an 8-byte file offset so mmap readers can hand
  /// out zero-copy int64/float64 views without unaligned loads. Costs at
  /// most 7 bytes per page; the Vaex engine's CSV->BCF conversion turns it
  /// on so the converted store is fully mappable.
  bool align_pages = false;
  /// Write every page in the in-memory buffer layout (PLAIN fixed-width,
  /// STRVIEW strings) instead of the compact DELTA/RLE encodings, so an
  /// mmap reader serves the whole file zero-copy. Spill-materialized frames
  /// use this: combined with align_pages and no compression, a re-mapped
  /// frame charges (almost) nothing against the memory budget.
  bool mappable = false;
};

/// \brief Where one column chunk's pages sit in the byte stream they were
/// written to (a BCF file, a spill frame) and how the value page is
/// stored. BCF keeps these in its footer; SpillFrameStore in memory.
struct ChunkMeta {
  uint64_t validity_offset = 0;
  uint64_t validity_size = 0;  ///< 0: the column has no nulls
  uint64_t data_offset = 0;
  uint64_t data_size = 0;      ///< stored (possibly compressed) size
  uint64_t raw_size = 0;       ///< encoded size before compression
  Encoding encoding = Encoding::kPlain;
  bool compressed = false;
  int64_t null_count = 0;
};

/// \brief The index entry of a BCF row group or a spill frame: its row
/// count and one ChunkMeta per column.
struct GroupMeta {
  int64_t rows = 0;
  std::vector<ChunkMeta> columns;
};

/// Receives a chunk's bytes in stream order.
using ByteSink = std::function<Status(const void* data, size_t size)>;

/// \brief Writes `column` as one chunk to `sink`, whose stream is at byte
/// `*offset`, and advances `*offset`. The validity bits are repacked into a
/// page of their own when there are nulls; the value page takes
/// ChooseEncoding (MappableEncoding when `options.mappable`), an 8-byte pad
/// before it under `align_pages`, and LZ under `compression` when that
/// saves an eighth. `row_group_rows` is not used.
Result<ChunkMeta> WriteChunk(const col::ArrayPtr& column,
                             const BcfWriteOptions& options, uint64_t* offset,
                             const ByteSink& sink);

/// \brief IOError unless `meta` can describe a chunk of `rows` rows whose
/// pages lie in the byte range [lo, hi): `rows` >= 0, a null count in
/// [0, rows] with a validity page whenever it is non-zero, a validity page
/// of at least BitmapBytes(rows) bytes, a raw size the LZ format can reach
/// from a compressed page, and a value page with room for `rows` rows of
/// its encoding. Overflow-safe, so hostile offsets cannot wrap. ReadChunk
/// relies on a meta that passed.
Status CheckChunkMeta(const ChunkMeta& meta, int64_t rows, uint64_t lo,
                      uint64_t hi);

/// \brief Turns a chunk's pages back into a `rows`-row array of `type`.
/// `validity_page` and `data` point at the two pages (`validity_page` is
/// unused when there is none). When `mapping` owns the pages (an mmap
/// region), the validity page, aligned uncompressed STRVIEW pages and
/// PLAIN fixed-width pages become zero-copy views that co-own it; anything
/// else decodes into fresh buffers.
Result<col::ArrayPtr> ReadChunk(col::TypeId type, const ChunkMeta& meta,
                                int64_t rows, const uint8_t* validity_page,
                                const uint8_t* data,
                                const std::shared_ptr<void>& mapping);

Status WriteBcf(const col::TablePtr& table, const std::string& path,
                const BcfWriteOptions& options = {});

/// \brief Incremental BCF writer: append tables (each becomes one or more
/// row groups), then Finish() writes the footer. Used for streaming
/// conversions (the Vaex engine's CSV -> memory-mapped format pass) and
/// spill files.
class BcfWriter {
 public:
  static Result<std::unique_ptr<BcfWriter>> Open(
      const std::string& path, const BcfWriteOptions& options = {});

  ~BcfWriter();
  BcfWriter(const BcfWriter&) = delete;
  BcfWriter& operator=(const BcfWriter&) = delete;

  /// Appends `table` as row groups; the schema is fixed by the first call.
  Status Append(const col::TablePtr& table);

  /// Appends ONE row group of `num_rows` rows, fetching columns one at a
  /// time through `column_at` (index into `schema`). Only a single column
  /// needs to be resident at once, so a frame far larger than the memory
  /// budget can be compacted into one row group — the shape that lets an
  /// mmap reader serve the whole frame as zero-copy views later.
  Status AppendColumnGroup(
      const col::SchemaPtr& schema, int64_t num_rows,
      const std::function<Result<col::ArrayPtr>(int)>& column_at);

  /// Writes the footer and closes the file. Must be called exactly once.
  Status Finish();

 private:
  BcfWriter() = default;

  std::FILE* file_ = nullptr;
  BcfWriteOptions options_;
  col::SchemaPtr schema_;
  uint64_t offset_ = 0;
  int64_t total_rows_ = 0;
  std::vector<GroupMeta> groups_;
  bool finished_ = false;
};

struct BcfReadOptions {
  /// Surface string columns whose every chunk is DICT-encoded as
  /// dictionary-encoded categoricals instead of materializing the strings —
  /// the decoded page's codes become the column's codes directly. Columns
  /// with any PLAIN chunk still decode as plain strings (mixed-encoding
  /// groups cannot share one categorical type across a concat).
  bool strings_as_categorical = false;
  /// Map the whole file read-only and serve uncompressed PLAIN fixed-width
  /// pages as zero-copy views into the mapping (the Vaex model: file-backed
  /// bytes are pageable, so they charge nothing against the MemoryPool).
  /// Encoded/compressed/misaligned pages fall back to the buffered decode
  /// path. Overridable per-process via BENTO_BCF_MMAP=on/off.
  bool use_mmap = false;
};

/// RAII read-only mapping of a whole BCF file (defined in bcf.cc). Zero-copy
/// column buffers co-own the region, so the mapping outlives the reader if
/// column views are still referenced.
struct BcfMmapRegion;

class BcfReader {
 public:
  static Result<std::unique_ptr<BcfReader>> Open(
      const std::string& path, const BcfReadOptions& options = {});

  ~BcfReader();
  BcfReader(const BcfReader&) = delete;
  BcfReader& operator=(const BcfReader&) = delete;

  const col::SchemaPtr& schema() const { return schema_; }
  int num_row_groups() const { return static_cast<int>(groups_.size()); }
  int64_t num_rows() const { return num_rows_; }

  /// Reads one row group, optionally projecting to `columns` (all when
  /// empty). Projection touches only the selected chunks' bytes. Safe to
  /// call from several threads at once on one reader.
  Result<col::TablePtr> ReadRowGroup(
      int group, const std::vector<std::string>& columns = {}) const;

  /// Concatenation of all row groups.
  Result<col::TablePtr> ReadAll(
      const std::vector<std::string>& columns = {}) const;

  /// True when the file is served through an mmap region (zero-copy mode).
  bool mmap_active() const { return map_ != nullptr; }

  /// Streaming hint: the caller is done with `group`; its pages may be
  /// dropped from the page cache (madvise DONTNEED). No-op when buffered or
  /// out of range. Safe even if zero-copy views of the group are still
  /// alive — the kernel faults the pages back in on next access.
  void DoneWithGroup(int group) const;

 private:
  BcfReader() = default;

  /// Copies [offset, offset+size) of the file into `out`, in either mode.
  /// Positioned reads: no shared file offset, so concurrent calls are safe.
  Status ReadAt(uint64_t offset, uint64_t size, void* out) const;
  /// [first page byte, last page byte) span of a row group, for madvise.
  std::pair<uint64_t, uint64_t> GroupByteRange(const GroupMeta& g) const;

  int fd_ = -1;  // buffered mode's descriptor
  std::shared_ptr<BcfMmapRegion> map_;
  uint64_t data_end_ = 0;  // pages live in [4, data_end_); footer follows
  BcfReadOptions options_;
  col::SchemaPtr schema_;
  std::vector<GroupMeta> groups_;
  int64_t num_rows_ = 0;
  /// Per column: every row group's chunk is DICT-encoded (so the column can
  /// surface as one categorical type under strings_as_categorical).
  std::vector<bool> dict_everywhere_;
};

}  // namespace bento::io

#endif  // BENTO_IO_BCF_H_
