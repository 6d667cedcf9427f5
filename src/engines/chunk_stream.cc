#include "engines/chunk_stream.h"

namespace bento::eng {

Result<ChunkStream::Deferred> ChunkStream::ClaimDeferred() {
  BENTO_ASSIGN_OR_RETURN(col::TablePtr chunk, Next());
  if (chunk == nullptr) return Deferred();
  return Deferred([chunk = std::move(chunk)]() -> Result<col::TablePtr> {
    return chunk;
  });
}

Result<col::TablePtr> TableChunkStream::Next() {
  const int64_t total = table_->num_rows();
  if (position_ == 0 && chunk_rows_ >= total) {
    // One-shot stream: covers empty tables (a single zero-row chunk so the
    // schema still propagates downstream) and chunk sizes at or beyond the
    // table, where slicing would only add a needless view layer.
    position_ = total > 0 ? total : 1;
    return table_;
  }
  if (position_ >= total) return col::TablePtr(nullptr);
  const int64_t n = std::min(chunk_rows_, total - position_);
  BENTO_ASSIGN_OR_RETURN(auto chunk, table_->Slice(position_, n));
  position_ += n;
  return chunk;
}

Result<std::unique_ptr<CsvChunkStream>> CsvChunkStream::Open(
    const std::string& path, const io::CsvReadOptions& options) {
  BENTO_ASSIGN_OR_RETURN(auto reader, io::CsvChunkReader::Open(path, options));
  return std::unique_ptr<CsvChunkStream>(new CsvChunkStream(std::move(reader)));
}

Result<std::unique_ptr<BcfChunkStream>> BcfChunkStream::Open(
    const std::string& path, std::vector<std::string> projection,
    const io::BcfReadOptions& options) {
  BENTO_ASSIGN_OR_RETURN(auto reader, io::BcfReader::Open(path, options));
  return std::unique_ptr<BcfChunkStream>(
      new BcfChunkStream(std::move(reader), std::move(projection)));
}

Result<col::TablePtr> BcfChunkStream::Next() {
  BENTO_ASSIGN_OR_RETURN(Deferred decode, ClaimDeferred());
  if (!decode) return col::TablePtr(nullptr);
  return decode();
}

Result<ChunkStream::Deferred> BcfChunkStream::ClaimDeferred() {
  if (group_ >= reader_->num_row_groups()) return Deferred();
  // Streaming consumes groups front to back; tell the kernel the pages
  // behind us are cold so an mmap'ed scan larger than RAM never pins more
  // than ~one group of page cache. No-op for buffered readers.
  if (group_ > 0) reader_->DoneWithGroup(group_ - 1);
  return Deferred([reader = reader_, projection = projection_,
                   group = group_++]() -> Result<col::TablePtr> {
    return reader->ReadRowGroup(group, projection);
  });
}

uint64_t OwnedChunkBytes(const col::TablePtr& t) {
  uint64_t total = 0;
  for (int c = 0; c < t->num_columns(); ++c) {
    const col::ArrayPtr& a = t->column(c);
    const int64_t n = a->length();
    total += static_cast<uint64_t>((n + 7) / 8);  // validity upper bound
    switch (a->type()) {
      case col::TypeId::kString: {
        const int64_t* off = a->offsets_data();
        total += static_cast<uint64_t>(n + 1) * 8 +
                 static_cast<uint64_t>(off[n] - off[0]);
        break;
      }
      case col::TypeId::kCategorical:
        total += static_cast<uint64_t>(n) * 4;
        break;
      default:
        total += static_cast<uint64_t>(n) *
                 static_cast<uint64_t>(col::ByteWidth(a->type()));
    }
  }
  return total;
}

}  // namespace bento::eng
