#ifndef BENTO_IO_CSV_H_
#define BENTO_IO_CSV_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "columnar/table.h"
#include "sim/parallel.h"

namespace bento::io {

struct CsvReadOptions {
  bool has_header = true;
  char delimiter = ',';
  /// Literals decoded as null (checked before type parsing).
  std::vector<std::string> null_literals = {"", "NA", "null", "NaN"};
  /// Rows examined for type inference.
  int64_t infer_rows = 1024;
  /// Batch size of the streaming chunk reader.
  int64_t chunk_rows = 64 * 1024;
  /// Explicit schema; skips inference when set. Column count must match.
  col::SchemaPtr schema;
  /// Columns to skip at parse time (scan-level projection pushdown): dropped
  /// fields are split but never type-decoded or materialized, and the result
  /// schema omits them. Unknown names are a KeyError, matching frame Drop.
  std::vector<std::string> drop_columns;
  /// Decode string columns as dictionary-encoded categoricals (int32 codes +
  /// shared dictionary, interned at parse time). Applies to inferred string
  /// columns; an explicit schema can request it per column with
  /// TypeId::kCategorical. Chunk-parallel reads build per-chunk dictionaries
  /// that ConcatTables unifies by value.
  bool dictionary_encode_strings = false;
};

struct CsvWriteOptions {
  bool header = true;
  char delimiter = ',';
};

/// \brief Buffered whole-file CSV read with type inference
/// (int64 -> float64 -> bool -> string, the Pandas-like ladder).
/// Values that fail the inferred type parse after the inference window
/// decode as null.
Result<col::TablePtr> ReadCsv(const std::string& path,
                              const CsvReadOptions& options = {});

/// \brief Memory-mapped CSV read with chunk-parallel parsing: the file is
/// split at row boundaries and chunks parse through sim::ParallelFor — the
/// DataTable model the paper credits for its I/O wins.
Result<col::TablePtr> ReadCsvMmap(const std::string& path,
                                  const CsvReadOptions& options = {},
                                  const sim::ParallelOptions& parallel = {});

/// \brief Streaming reader producing `chunk_rows`-row batches; the input of
/// the streaming engines (Polars lazy streaming, Vaex, Spark whole-stage).
///
/// A batch comes in two halves. Cut() is serial: one pass over the bytes
/// finds where the next batch's records end. The decode it returns shares
/// the read block holding the cut text and owns its own copies of the
/// schema, options and field map, so it may run on any thread, after later
/// cuts or after the reader is gone.
class CsvChunkReader {
 public:
  /// A cut batch's pure decode (see the class comment).
  using Decode = std::function<Result<col::TablePtr>()>;

  static Result<std::unique_ptr<CsvChunkReader>> Open(
      const std::string& path, const CsvReadOptions& options = {});

  ~CsvChunkReader();
  CsvChunkReader(const CsvChunkReader&) = delete;
  CsvChunkReader& operator=(const CsvChunkReader&) = delete;

  const col::SchemaPtr& schema() const { return schema_; }

  /// Cuts the next batch's records and returns their decode, or an empty
  /// function at end of file. The first cut always yields a decode (a
  /// header-only file decodes to one zero-row chunk).
  Result<Decode> Cut();

  /// Next batch (Cut() and its decode), or nullptr at end of file.
  Result<col::TablePtr> Next();

 private:
  CsvChunkReader() = default;

  /// Reads the next 256 KiB after the uncut bytes, first carrying those
  /// bytes to a new block when this one has no room left.
  void Refill();

  std::FILE* file_ = nullptr;
  CsvReadOptions options_;
  col::SchemaPtr schema_;
  /// Kept-column -> raw-field index when drop_columns is set (else empty).
  std::vector<size_t> field_map_;
  /// Bytes read but not yet cut are [begin_, end_) of block_, which is
  /// never zero-filled. Cut decodes share the block, so cut text is never
  /// copied; only uncut bytes move, when a full block is replaced.
  std::shared_ptr<char[]> block_;
  size_t capacity_ = 0;
  size_t begin_ = 0;
  size_t end_ = 0;
  bool eof_ = false;
  bool cut_any_ = false;
};

/// \brief Writes `table` as CSV; strings quote when they contain the
/// delimiter, quotes, or newlines.
Status WriteCsv(const col::TablePtr& table, const std::string& path,
                const CsvWriteOptions& options = {});

/// \brief Chunk-parallel stringification (through sim::ParallelFor) with a
/// serial ordered write — the multithreaded writers' shape.
Status WriteCsvParallel(const col::TablePtr& table, const std::string& path,
                        const CsvWriteOptions& options = {},
                        const sim::ParallelOptions& parallel = {});

}  // namespace bento::io

#endif  // BENTO_IO_CSV_H_
