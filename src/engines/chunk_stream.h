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
  /// A claimed batch whose decode has not run yet. It owns what it reads,
  /// so it may run on any thread, after later claims or after the stream
  /// is gone.
  using Deferred = std::function<Result<col::TablePtr>()>;

  virtual ~ChunkStream() = default;

  /// Next batch, or nullptr at end of stream.
  virtual Result<col::TablePtr> Next() = 0;

  /// Claims the next batch and defers its decode; an empty function at end
  /// of stream. Only the claim needs to be serial. Streams whose batches
  /// come decoded keep this default, which claims through Next().
  virtual Result<Deferred> ClaimDeferred();
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

/// \brief Streams batches from a CSV file. A claim only cuts the text;
/// the decode is deferred to whoever runs it (a pipeline worker).
class CsvChunkStream : public ChunkStream {
 public:
  static Result<std::unique_ptr<CsvChunkStream>> Open(
      const std::string& path, const io::CsvReadOptions& options);

  Result<col::TablePtr> Next() override { return reader_->Next(); }
  Result<Deferred> ClaimDeferred() override { return reader_->Cut(); }

 private:
  explicit CsvChunkStream(std::unique_ptr<io::CsvChunkReader> reader)
      : reader_(std::move(reader)) {}
  std::unique_ptr<io::CsvChunkReader> reader_;
};

/// \brief Streams every row group of a BCF file, one chunk per group,
/// projected to `projection` (all columns when empty). A file always holds
/// at least one row group (BcfWriter writes an empty table as one zero-row
/// group), so the projected schema reaches downstream consumers. A claim
/// only takes the next group index; the decode co-owns the reader and
/// reads the group on whoever runs it (a pipeline worker).
class BcfChunkStream : public ChunkStream {
 public:
  static Result<std::unique_ptr<BcfChunkStream>> Open(
      const std::string& path, std::vector<std::string> projection = {},
      const io::BcfReadOptions& options = {});

  Result<col::TablePtr> Next() override;
  Result<Deferred> ClaimDeferred() override;

 private:
  BcfChunkStream(std::shared_ptr<const io::BcfReader> reader,
                 std::vector<std::string> projection)
      : reader_(std::move(reader)), projection_(std::move(projection)) {}

  std::shared_ptr<const io::BcfReader> reader_;
  std::vector<std::string> projection_;
  int group_ = 0;
};

/// \brief Pure per-chunk transform: a stage's streamable op run, or the
/// residual second pass of a two-pass or probe-side breaker.
using ChunkMapFn = std::function<Result<col::TablePtr>(col::TablePtr)>;

/// \brief Bytes a chunk would occupy if copied out. Slices of a larger
/// table share whole buffers (a string slice keeps the full chars buffer),
/// so Table::ByteSize() wildly overcounts string-heavy slices — bad when
/// the count decides when a materialization spills.
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
