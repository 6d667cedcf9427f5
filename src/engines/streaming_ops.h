#ifndef BENTO_ENGINES_STREAMING_OPS_H_
#define BENTO_ENGINES_STREAMING_OPS_H_

#include <string>
#include <vector>

#include "engines/chunk_stream.h"
#include "engines/pipeline_driver.h"
#include "frame/exec.h"
#include "kernels/common.h"
#include "kernels/join.h"

namespace bento::eng {

/// Out-of-core / bounded-memory implementations of the pipeline-breaking
/// operators, used by the SparkSQL-model engine. These consume a ChunkStream
/// and keep peak memory at O(groups), O(run), or O(distinct) instead of
/// O(dataset) — the property that lets SparkSQL finish the largest datasets
/// on the laptop configuration (Table V).

/// \brief Spill controls for the bounded-memory group-by.
struct StreamingGroupByOptions {
  /// Hash partitions the rows of spilled keys fan out to.
  int spill_partitions = 16;
  /// Spill once the in-memory group state reaches this many bytes.
  /// Negative (default) derives the threshold from the session budget
  /// (budget/8); 0 forces spill from the first chunk (tests); a huge value
  /// keeps everything in memory.
  int64_t spill_threshold_bytes = -1;
  /// Parallel-pipeline shape for the per-chunk map (the fused transforms and
  /// the key hash). The fold that groups, aggregates and spills always runs
  /// on the calling thread in stream order, so the result is bit-identical
  /// for any worker count.
  PipelineOptions pipeline;
  /// Fused upstream transform run applied to every chunk before the key
  /// hash (set by the executor so transforms and aggregation ride one
  /// pipeline stage instead of nesting two).
  ChunkMapFn pre_map;
  /// When set, receives the number of chunks claimed from the input (for
  /// per-chunk virtual-time overheads charged by the driver thread).
  int64_t* chunks_claimed = nullptr;
};

/// \brief Pipeline controls for the streaming dedup (same contract as the
/// group-by: hashing parallelizes per chunk, the first-seen filter stays
/// serial in stream order).
struct StreamingDedupOptions {
  PipelineOptions pipeline;
  ChunkMapFn pre_map;
  int64_t* chunks_claimed = nullptr;
};

/// \brief Streaming group-by as one fold in stream order: pipeline workers
/// hash the keys, and the calling thread assigns every row to its group
/// across chunks and feeds it into the group's kern::AggFold state, whose
/// heap is charged to the current MemoryPool. Once the group state reaches
/// the spill threshold, rows of keys already grouped keep folding in memory
/// and rows of unseen keys hash-partition to a SpillFrameStore. At the end
/// each partition folds frame by frame, and a hidden stream-position column
/// puts those groups after the in-memory ones in first-seen order. Peak
/// memory: the in-memory groups, then one partition's groups and frame.
/// Every group is folded once, over its rows in stream order, so the result
/// equals kern::GroupBy bit for bit — floats included — for any chunking,
/// worker count and spill.
Result<col::TablePtr> StreamingGroupBy(
    ChunkStream* input, const std::vector<std::string>& keys,
    const std::vector<kern::AggSpec>& aggs, const frame::ExecPolicy& policy,
    const StreamingGroupByOptions& options = {});

/// \brief External merge sort: sorted runs of at most `run_rows` rows spill
/// to a SpillFrameStore, and a cursor-based k-way merge writes the ordered
/// output to a temporary BCF file (Spark's shuffle-file shape) instead of
/// materializing it; peak memory O(run). Returns the temp file path
/// (caller owns/deletes).
Result<std::string> ExternalSortToFile(ChunkStream* input,
                                       const std::vector<kern::SortKey>& keys,
                                       const frame::ExecPolicy& policy,
                                       int64_t run_rows = 256 * 1024);

/// \brief Streaming deduplication over `subset` columns (all columns when
/// empty): keeps each row's first sighting in stream order, exactly like
/// kern::DropDuplicates. Rows hash per chunk; a hash hit counts as a
/// duplicate only when the rows compare equal, so colliding distinct rows
/// are all kept. Every kept row stays buffered until the stream ends.
Result<col::TablePtr> StreamingDedup(ChunkStream* input,
                                     const std::vector<std::string>& subset,
                                     const StreamingDedupOptions& options = {});

/// \brief Streaming pivot: the streaming group-by on (index, columns)
/// followed by a small in-memory pivot of the aggregated result.
Result<col::TablePtr> StreamingPivot(ChunkStream* input,
                                     const frame::Op& op,
                                     const frame::ExecPolicy& policy,
                                     const StreamingGroupByOptions& options = {});

/// \brief Grace hash join: both sides hash-partition on their key into a
/// SpillFrameStore, then each partition joins independently — peak memory is
/// O(build/P + chunk + output) instead of O(build). Output rows are restored
/// to exact probe-stream order (HashJoin semantics) via a hidden row-index
/// column, so the result is bit-identical to HashJoin(probe, build).
Result<col::TablePtr> GraceHashJoin(ChunkStream* probe,
                                    const col::TablePtr& build,
                                    const std::string& left_key,
                                    const std::string& right_key,
                                    const kern::JoinOptions& options,
                                    int partitions = 16);

/// \brief Drains a stream into one table (concat of its chunks).
Result<col::TablePtr> DrainStream(ChunkStream* input);

/// \brief Drains a stream into a FILE-BACKED table: results larger than
/// `inline_limit_bytes` spill to a temp BCF chunk-at-a-time, get compacted
/// into a single mappable row group (one column resident at a time), and
/// come back as zero-copy mmap views. The returned frame's buffers are
/// pageable file bytes, so a frame nearly the size of the memory budget
/// charges (almost) nothing against the MemoryPool — the property that
/// lets streaming engines hold full-dataset frames at stage boundaries on
/// the laptop model. Results at or under the limit concat in memory and
/// skip the round-trip. The temp files are unlinked before returning; the
/// mapping keeps the bytes reachable until the last view dies.
Result<col::TablePtr> MaterializeStreamMapped(ChunkStream* input,
                                              uint64_t inline_limit_bytes);

/// \brief Spills a stream to a temporary BCF file (bounded memory); the
/// first half of the two-pass streaming operators. Caller owns the file.
Result<std::string> SpillStreamToFile(ChunkStream* input);

/// \brief First-seen-order distinct non-null values of `column` over a
/// stream (category/dictionary discovery pass).
Result<std::vector<std::string>> StreamDistinctValues(ChunkStream* input,
                                                      const std::string& column);

/// \brief Streaming mean of a numeric column (fillna-with-mean pass 1):
/// the chunks' cells in stream order through one kern::MeanFold, so the
/// mean equals kern::FillNullWithMean's bit for bit.
Result<double> StreamColumnMean(ChunkStream* input, const std::string& column);

}  // namespace bento::eng

#endif  // BENTO_ENGINES_STREAMING_OPS_H_
