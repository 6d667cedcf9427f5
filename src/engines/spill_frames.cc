#include "engines/spill_frames.h"

#include "obs/metrics.h"

namespace bento::eng {

namespace {

/// Spill frames take BCF's compact default encodings, uncompressed and
/// unpadded: a frame is written once and read back once, soon after.
constexpr io::BcfWriteOptions kFramePages = {.compression = false};

}  // namespace

class SpillFrameStore::PartitionStream : public ChunkStream {
 public:
  PartitionStream(SpillFrameStore* store, int partition)
      : store_(store), partition_(partition) {}

  Result<col::TablePtr> Next() override {
    const Partition& part =
        store_->parts_[static_cast<size_t>(partition_)];
    if (index_ >= part.frames.size()) {
      if (index_ == 0 && part.schema != nullptr) {
        // Schema known but no frames: one empty chunk, like TableChunkStream.
        ++index_;
        return col::Table::MakeEmpty(part.schema);
      }
      return col::TablePtr(nullptr);
    }
    return store_->ReadFrame(part, part.frames[index_++]);
  }

 private:
  SpillFrameStore* store_;
  int partition_;
  size_t index_ = 0;
};

Result<std::unique_ptr<SpillFrameStore>> SpillFrameStore::Create(
    int partitions) {
  if (partitions < 0) return Status::Invalid("negative partition count");
  BENTO_ASSIGN_OR_RETURN(auto file, sim::SpillFile::Create());
  auto store =
      std::unique_ptr<SpillFrameStore>(new SpillFrameStore(std::move(file)));
  store->parts_.resize(static_cast<size_t>(partitions));
  return store;
}

Status SpillFrameStore::Append(int partition, const col::TablePtr& chunk) {
  if (partition < 0 || partition >= partitions()) {
    return Status::IndexError("spill partition ", partition, " out of range");
  }
  Partition& part = parts_[static_cast<size_t>(partition)];
  if (part.schema == nullptr) {
    part.schema = chunk->schema();
  } else if (!(*part.schema == *chunk->schema())) {
    return Status::Invalid("spill partition schema mismatch");
  }
  if (chunk->num_rows() == 0) return Status::OK();

  Frame frame;
  frame.rows = chunk->num_rows();
  std::vector<uint8_t> bytes;
  const io::ByteSink sink = [&bytes](const void* data, size_t size) {
    const auto* begin = static_cast<const uint8_t*>(data);
    bytes.insert(bytes.end(), begin, begin + size);
    return Status::OK();
  };
  for (int c = 0; c < chunk->num_columns(); ++c) {
    BENTO_ASSIGN_OR_RETURN(
        auto meta,
        io::WriteChunk(chunk->column(c), kFramePages, &frame.size, sink));
    frame.columns.push_back(meta);
  }
  BENTO_ASSIGN_OR_RETURN(frame.offset,
                         file_->Write(bytes.data(), bytes.size()));
  static obs::Counter* frames =
      obs::MetricsRegistry::Global().counter("spill.frames");
  frames->Increment();
  part.rows += frame.rows;
  part.frames.push_back(std::move(frame));
  return Status::OK();
}

Result<col::TablePtr> SpillFrameStore::ReadFrame(const Partition& part,
                                                 const Frame& frame) {
  std::vector<uint8_t> bytes(frame.size);
  BENTO_RETURN_NOT_OK(file_->Read(frame.offset, frame.size, bytes.data()));
  std::vector<col::ArrayPtr> columns;
  for (size_t c = 0; c < frame.columns.size(); ++c) {
    const io::ChunkMeta& meta = frame.columns[c];
    BENTO_RETURN_NOT_OK(io::CheckChunkMeta(meta, frame.rows, 0, bytes.size()));
    BENTO_ASSIGN_OR_RETURN(
        auto column,
        io::ReadChunk(part.schema->field(static_cast<int>(c)).type, meta,
                      frame.rows, bytes.data() + meta.validity_offset,
                      bytes.data() + meta.data_offset, nullptr));
    columns.push_back(std::move(column));
  }
  return col::Table::Make(part.schema, std::move(columns));
}

Result<std::vector<col::TablePtr>> SpillFrameStore::ReadPartition(
    int partition) {
  if (partition < 0 || partition >= partitions()) {
    return Status::IndexError("spill partition ", partition, " out of range");
  }
  const Partition& part = parts_[static_cast<size_t>(partition)];
  std::vector<col::TablePtr> chunks;
  for (const Frame& frame : part.frames) {
    BENTO_ASSIGN_OR_RETURN(auto chunk, ReadFrame(part, frame));
    chunks.push_back(std::move(chunk));
  }
  return chunks;
}

Result<std::unique_ptr<ChunkStream>> SpillFrameStore::OpenPartition(
    int partition) {
  if (partition < 0 || partition >= partitions()) {
    return Status::IndexError("spill partition ", partition, " out of range");
  }
  return std::unique_ptr<ChunkStream>(
      std::make_unique<PartitionStream>(this, partition));
}

int64_t SpillFrameStore::partition_rows(int partition) const {
  if (partition < 0 || partition >= partitions()) return 0;
  return parts_[static_cast<size_t>(partition)].rows;
}

int64_t SpillFrameStore::partition_frames(int partition) const {
  if (partition < 0 || partition >= partitions()) return 0;
  return static_cast<int64_t>(
      parts_[static_cast<size_t>(partition)].frames.size());
}

}  // namespace bento::eng
