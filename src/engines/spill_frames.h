#ifndef BENTO_ENGINES_SPILL_FRAMES_H_
#define BENTO_ENGINES_SPILL_FRAMES_H_

#include <memory>
#include <vector>

#include "engines/chunk_stream.h"
#include "io/bcf.h"
#include "sim/spill.h"

namespace bento::eng {

/// \brief Partitioned table-frame store over one sim::SpillFile: the shared
/// spill layer of the out-of-core breakers (group-by rows of spilled keys,
/// grace-join build/probe partitions, external-sort runs).
///
/// Each Append writes a table chunk's columns through BCF's chunk codec
/// (io::WriteChunk: the same validity and value pages a BCF row group
/// holds) into one frame and stores it with one SpillFile::Write, so
/// spilled bytes are charged to the spill counters, never to a MemoryPool —
/// spilling converts tracked RAM into untracked disk. The store is the
/// frames' index: each frame's row count and ChunkMetas stay in memory, and
/// a frame reads back with one SpillFile::Read. Frames within a partition
/// read back in append order, and every partition keeps its own schema (a
/// store can hold probe and build sides at once). The backing file is
/// unlinked when the store dies.
class SpillFrameStore {
 public:
  /// `partitions` may be 0 when the count is discovered as data arrives
  /// (external-sort runs); grow with AddPartition.
  static Result<std::unique_ptr<SpillFrameStore>> Create(int partitions);

  /// Adds one empty partition, returning its id.
  int AddPartition() {
    parts_.emplace_back();
    return static_cast<int>(parts_.size()) - 1;
  }

  SpillFrameStore(const SpillFrameStore&) = delete;
  SpillFrameStore& operator=(const SpillFrameStore&) = delete;

  /// Writes `chunk` as one frame of `partition`. Zero-row chunks still
  /// record the partition's schema (so empty partitions round-trip typed).
  Status Append(int partition, const col::TablePtr& chunk);

  /// All frames of a partition, decoded, in append order.
  Result<std::vector<col::TablePtr>> ReadPartition(int partition);

  /// Streaming cursor over a partition (one frame per Next). The store must
  /// outlive the stream. An empty partition with a known schema emits one
  /// zero-row chunk; one with no schema ends immediately.
  Result<std::unique_ptr<ChunkStream>> OpenPartition(int partition);

  int partitions() const { return static_cast<int>(parts_.size()); }
  int64_t partition_rows(int partition) const;
  int64_t partition_frames(int partition) const;
  uint64_t bytes_written() const { return file_->bytes_written(); }

 private:
  /// A frame's index entry (page offsets within the frame) and its place
  /// in the spill file.
  struct Frame : io::GroupMeta {
    uint64_t offset = 0;
    uint64_t size = 0;
  };
  struct Partition {
    col::SchemaPtr schema;
    std::vector<Frame> frames;
    int64_t rows = 0;
  };
  class PartitionStream;

  explicit SpillFrameStore(std::unique_ptr<sim::SpillFile> file)
      : file_(std::move(file)) {}

  Result<col::TablePtr> ReadFrame(const Partition& part, const Frame& frame);

  std::unique_ptr<sim::SpillFile> file_;
  std::vector<Partition> parts_;
};

}  // namespace bento::eng

#endif  // BENTO_ENGINES_SPILL_FRAMES_H_
