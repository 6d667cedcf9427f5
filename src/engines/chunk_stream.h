#ifndef BENTO_ENGINES_CHUNK_STREAM_H_
#define BENTO_ENGINES_CHUNK_STREAM_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "columnar/table.h"
#include "io/bcf.h"
#include "io/csv.h"

namespace bento::eng {

/// \brief Pull-based stream of table batches: the execution backbone of the
/// streaming engines (Polars lazy streaming, Vaex chunked evaluation, the
/// Spark whole-stage pipeline).
class ChunkStream {
 public:
  virtual ~ChunkStream() = default;

  /// Next batch, or nullptr at end of stream.
  virtual Result<col::TablePtr> Next() = 0;
};

/// \brief Slices an in-memory table into fixed-size batches.
///
/// Chunks are zero-copy slice VIEWS over the parent table's buffers: fixed
/// width data and string chars/offsets are shared outright, and validity
/// bitmaps are shared whenever the slice offset is byte-aligned (the default
/// chunk sizes are multiples of 64, so streaming a table allocates no new
/// row data — only O(columns) view headers). A chunk size that lands
/// mid-byte repacks just the validity bitmap (n/8 bytes). The pool-charge
/// test in pipeline_driver_test locks this in.
class TableChunkStream : public ChunkStream {
 public:
  TableChunkStream(col::TablePtr table, int64_t chunk_rows)
      : table_(std::move(table)),
        chunk_rows_(chunk_rows > 0 ? chunk_rows : 64 * 1024) {}

  Result<col::TablePtr> Next() override;

 private:
  col::TablePtr table_;
  int64_t chunk_rows_;
  int64_t position_ = 0;
};

/// \brief Streams batches from a CSV file.
class CsvChunkStream : public ChunkStream {
 public:
  static Result<std::unique_ptr<CsvChunkStream>> Open(
      const std::string& path, const io::CsvReadOptions& options);

  Result<col::TablePtr> Next() override { return reader_->Next(); }

 private:
  explicit CsvChunkStream(std::unique_ptr<io::CsvChunkReader> reader)
      : reader_(std::move(reader)) {}
  std::unique_ptr<io::CsvChunkReader> reader_;
};

/// \brief Streams row groups from a BCF file with column projection and
/// zone-map row-group skipping: groups whose statistics prove no row can
/// satisfy every `predicate` are never read. The residual filter still runs
/// downstream, so predicates only prune, never decide.
class BcfChunkStream : public ChunkStream {
 public:
  static Result<std::unique_ptr<BcfChunkStream>> Open(
      const std::string& path, std::vector<std::string> projection = {},
      std::vector<io::ScanPredicate> predicates = {},
      const io::BcfReadOptions& options = {});

  Result<col::TablePtr> Next() override;

 private:
  BcfChunkStream(std::unique_ptr<io::BcfReader> reader,
                 std::vector<std::string> projection,
                 std::vector<io::ScanPredicate> predicates)
      : reader_(std::move(reader)),
        projection_(std::move(projection)),
        predicates_(std::move(predicates)) {}

  std::unique_ptr<io::BcfReader> reader_;
  std::vector<std::string> projection_;
  std::vector<io::ScanPredicate> predicates_;
  int group_ = 0;
  int last_delivered_ = -1;  // previous group, madvise'd cold on advance
  bool delivered_any_ = false;
};

/// \brief Pure per-chunk transform: a stage's streamable op run, or the
/// residual second pass of a two-pass or probe-side breaker.
using ChunkMapFn = std::function<Result<col::TablePtr>(col::TablePtr)>;

/// \brief Bytes a chunk would occupy if copied out. Slices of a larger
/// table share whole buffers (a string slice keeps the full chars buffer),
/// so Table::ByteSize() wildly overcounts string-heavy slices — bad when
/// the count decides spill thresholds or prefetch backpressure.
uint64_t OwnedChunkBytes(const col::TablePtr& t);

/// \brief Streams a fixed list of pre-built batches (tests / partials).
class VectorChunkStream : public ChunkStream {
 public:
  explicit VectorChunkStream(std::vector<col::TablePtr> chunks)
      : chunks_(std::move(chunks)) {}

  Result<col::TablePtr> Next() override {
    if (index_ >= chunks_.size()) return col::TablePtr(nullptr);
    return chunks_[index_++];
  }

 private:
  std::vector<col::TablePtr> chunks_;
  size_t index_ = 0;
};

}  // namespace bento::eng

#endif  // BENTO_ENGINES_CHUNK_STREAM_H_
