#include "engines/streaming_ops.h"

#include <cmath>
#include <cstdio>
#include <limits>
#include <queue>
#include <unordered_map>
#include <unordered_set>

#include "columnar/builder.h"
#include "engines/spill_frames.h"
#include "kernels/apply.h"
#include "kernels/dedup.h"
#include "kernels/flat_index.h"
#include "kernels/groupby.h"
#include "kernels/join.h"
#include "kernels/pivot.h"
#include "kernels/row_hash.h"
#include "kernels/selection.h"
#include "kernels/sort.h"
#include "kernels/stats.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace bento::eng {

using col::TablePtr;
using frame::ExecPolicy;
using kern::AggKind;
using kern::AggSpec;

namespace {

/// Decomposed partial-aggregation plan for one requested aggregation.
struct DecomposedAgg {
  AggSpec request;                // what the caller asked for
  std::vector<AggSpec> partials;  // partial columns computed per chunk
  std::vector<AggSpec> merges;    // how partial columns merge
};

std::vector<DecomposedAgg> DecomposeAggs(const std::vector<AggSpec>& aggs) {
  std::vector<DecomposedAgg> out;
  int tag = 0;
  for (const AggSpec& spec : aggs) {
    DecomposedAgg d{spec, {}, {}};
    auto add = [&](AggKind kind, const char* suffix,
                   AggKind merge_kind) {
      std::string name =
          "__p" + std::to_string(tag) + "_" + suffix;
      d.partials.push_back(AggSpec{spec.column, kind, name});
      d.merges.push_back(AggSpec{name, merge_kind, name});
    };
    switch (spec.kind) {
      case AggKind::kSum:
        add(AggKind::kSum, "sum", AggKind::kSum);
        break;
      case AggKind::kCount:
        add(AggKind::kCount, "cnt", AggKind::kSum);
        break;
      case AggKind::kMin:
        add(AggKind::kMin, "min", AggKind::kMin);
        break;
      case AggKind::kMax:
        add(AggKind::kMax, "max", AggKind::kMax);
        break;
      case AggKind::kMean:
        add(AggKind::kSum, "sum", AggKind::kSum);
        add(AggKind::kCount, "cnt", AggKind::kSum);
        break;
      case AggKind::kStd:
      case AggKind::kSumSq:
        add(AggKind::kSum, "sum", AggKind::kSum);
        add(AggKind::kCount, "cnt", AggKind::kSum);
        add(AggKind::kSumSq, "sumsq", AggKind::kSum);
        break;
    }
    ++tag;
    out.push_back(std::move(d));
  }
  return out;
}

double NumericCell(const col::Array& a, int64_t i) {
  switch (a.type()) {
    case col::TypeId::kFloat64:
      return a.float64_data()[i];
    case col::TypeId::kBool:
      return a.bool_data()[i] != 0 ? 1.0 : 0.0;
    default:
      return static_cast<double>(a.int64_data()[i]);
  }
}

/// Finalizes the merged decomposed columns into the requested outputs.
Result<TablePtr> FinalizeAggs(const TablePtr& merged,
                              const std::vector<std::string>& keys,
                              const std::vector<DecomposedAgg>& decomposed) {
  BENTO_ASSIGN_OR_RETURN(auto out, merged->SelectColumns(keys));
  const int64_t n = merged->num_rows();
  for (const DecomposedAgg& d : decomposed) {
    const std::string out_name = kern::DefaultAggName(d.request);
    if (d.request.kind == AggKind::kCount) {
      BENTO_ASSIGN_OR_RETURN(auto cnt, merged->GetColumn(d.partials[0].output_name));
      col::Int64Builder b;
      b.Reserve(n);
      for (int64_t i = 0; i < n; ++i) {
        b.AppendMaybe(cnt->IsValid(i)
                          ? static_cast<int64_t>(NumericCell(*cnt, i))
                          : 0,
                      cnt->IsValid(i));
      }
      BENTO_ASSIGN_OR_RETURN(auto arr, b.Finish());
      BENTO_ASSIGN_OR_RETURN(out, out->SetColumn(out_name, arr));
      continue;
    }

    col::Float64Builder b;
    b.Reserve(n);
    switch (d.request.kind) {
      case AggKind::kSum:
      case AggKind::kMin:
      case AggKind::kMax:
      case AggKind::kSumSq: {
        BENTO_ASSIGN_OR_RETURN(auto v,
                               merged->GetColumn(d.partials[0].output_name));
        // SumSq merges via three partials; its value is the third.
        if (d.request.kind == AggKind::kSumSq) {
          BENTO_ASSIGN_OR_RETURN(v, merged->GetColumn(d.partials[2].output_name));
        }
        for (int64_t i = 0; i < n; ++i) {
          b.AppendMaybe(v->IsValid(i) ? NumericCell(*v, i) : 0.0, v->IsValid(i));
        }
        break;
      }
      case AggKind::kMean: {
        BENTO_ASSIGN_OR_RETURN(auto sum,
                               merged->GetColumn(d.partials[0].output_name));
        BENTO_ASSIGN_OR_RETURN(auto cnt,
                               merged->GetColumn(d.partials[1].output_name));
        for (int64_t i = 0; i < n; ++i) {
          const double c = cnt->IsValid(i) ? NumericCell(*cnt, i) : 0.0;
          if (c <= 0.0 || !sum->IsValid(i)) {
            b.AppendNull();
          } else {
            b.Append(NumericCell(*sum, i) / c);
          }
        }
        break;
      }
      case AggKind::kStd: {
        BENTO_ASSIGN_OR_RETURN(auto sum,
                               merged->GetColumn(d.partials[0].output_name));
        BENTO_ASSIGN_OR_RETURN(auto cnt,
                               merged->GetColumn(d.partials[1].output_name));
        BENTO_ASSIGN_OR_RETURN(auto sumsq,
                               merged->GetColumn(d.partials[2].output_name));
        for (int64_t i = 0; i < n; ++i) {
          const double c = cnt->IsValid(i) ? NumericCell(*cnt, i) : 0.0;
          if (c < 2.0 || !sum->IsValid(i) || !sumsq->IsValid(i)) {
            b.AppendNull();
          } else {
            const double s = NumericCell(*sum, i);
            const double ss = NumericCell(*sumsq, i);
            double var = (ss - s * s / c) / (c - 1.0);
            b.Append(var > 0.0 ? std::sqrt(var) : 0.0);
          }
        }
        break;
      }
      case AggKind::kCount:
        break;  // handled above
    }
    BENTO_ASSIGN_OR_RETURN(auto arr, b.Finish());
    BENTO_ASSIGN_OR_RETURN(out, out->SetColumn(out_name, arr));
  }
  return out;
}

/// Hidden column carrying each row's stream position. Aggregated with min
/// it names a group's first-seen position, which is exactly the order
/// kern::GroupBy emits groups in — so spilled partitions can be stitched
/// back into the order the in-memory path would have produced.
constexpr const char* kSeqColumn = "__seq";

/// Sequence values are (chunk_seq << 32) + row_in_chunk: strictly
/// increasing in (chunk, row) stream order for any chunking, which is all
/// the consumers need (min-per-group, stable ArgSort — only the ORDER of
/// the values matters, never their magnitudes). Unlike a global row
/// counter, a chunk can compute its values knowing nothing about earlier
/// chunks' post-filter row counts — the property that lets pipeline workers
/// attach the column concurrently yet bit-identically to the serial pass.
constexpr int kSeqChunkShift = 32;

Result<TablePtr> AttachSeqColumn(const TablePtr& chunk, int64_t chunk_seq) {
  if (chunk->num_rows() >= (int64_t{1} << kSeqChunkShift)) {
    return Status::Invalid("chunk too large for the sequence column (",
                           chunk->num_rows(), " rows)");
  }
  const int64_t base = chunk_seq << kSeqChunkShift;
  col::Int64Builder b;
  b.Reserve(chunk->num_rows());
  for (int64_t i = 0; i < chunk->num_rows(); ++i) b.Append(base + i);
  BENTO_ASSIGN_OR_RETURN(auto seq, b.Finish());
  return chunk->SetColumn(kSeqColumn, std::move(seq));
}

/// Splits `table` into `partitions` row subsets by key hash. Rows with equal
/// keys (nulls included — they hash to a fixed tag) always land in the same
/// partition, and relative row order is preserved within each.
Result<std::vector<TablePtr>> HashPartitionTable(
    const TablePtr& table, const std::vector<std::string>& keys,
    int partitions) {
  BENTO_ASSIGN_OR_RETURN(auto hashes, kern::HashRows(table, keys));
  std::vector<TablePtr> out;
  for (int p = 0; p < partitions; ++p) {
    col::BoolBuilder mask;
    mask.Reserve(table->num_rows());
    for (int64_t i = 0; i < table->num_rows(); ++i) {
      mask.Append(hashes[static_cast<size_t>(i)] %
                      static_cast<uint64_t>(partitions) ==
                  static_cast<uint64_t>(p));
    }
    BENTO_ASSIGN_OR_RETURN(auto m, mask.Finish());
    BENTO_ASSIGN_OR_RETURN(auto part,
                           kern::FilterTable(table, m, sim::OneWorker()));
    out.push_back(std::move(part));
  }
  return out;
}

/// The input of a fold that kept no row: the first zero-row chunk it saw,
/// whose schema the kernels turn into their typed empty result, or the
/// zero-column frame when the stream had no chunk at all.
Result<TablePtr> EmptyInput(const TablePtr& witness) {
  if (witness != nullptr) return witness;
  return col::Table::MakeEmpty(
      std::make_shared<col::Schema>(std::vector<col::Field>{}));
}

/// Reorders `table` ascending by the hidden sequence column and drops it.
Result<TablePtr> RestoreSeqOrder(const TablePtr& table) {
  BENTO_ASSIGN_OR_RETURN(
      auto indices, kern::ArgSort(table, {kern::SortKey{kSeqColumn, true}}));
  BENTO_ASSIGN_OR_RETURN(auto sorted, kern::TakeTable(table, indices));
  return sorted->DropColumns({kSeqColumn});
}

}  // namespace

Result<TablePtr> StreamingGroupBy(ChunkStream* input,
                                  const std::vector<std::string>& keys,
                                  const std::vector<AggSpec>& aggs,
                                  const ExecPolicy& policy,
                                  const StreamingGroupByOptions& options) {
  auto decomposed = DecomposeAggs(aggs);
  std::vector<AggSpec> partial_specs;
  std::vector<AggSpec> merge_specs;
  for (const DecomposedAgg& d : decomposed) {
    partial_specs.insert(partial_specs.end(), d.partials.begin(),
                         d.partials.end());
    merge_specs.insert(merge_specs.end(), d.merges.begin(), d.merges.end());
  }

  // Partial count columns decode as int64 but merge through kSum (float64);
  // normalize them to float64 so compacted and fresh partials share a schema.
  auto normalize = [&](TablePtr partial) -> Result<TablePtr> {
    for (const kern::AggSpec& spec : partial_specs) {
      if (spec.kind != AggKind::kCount) continue;
      BENTO_ASSIGN_OR_RETURN(auto column, partial->GetColumn(spec.output_name));
      if (column->type() == col::TypeId::kInt64) {
        col::Float64Builder b;
        b.Reserve(column->length());
        for (int64_t i = 0; i < column->length(); ++i) {
          b.AppendMaybe(static_cast<double>(column->int64_data()[i]),
                        column->IsValid(i));
        }
        BENTO_ASSIGN_OR_RETURN(auto as_float, b.Finish());
        BENTO_ASSIGN_OR_RETURN(partial,
                               partial->SetColumn(spec.output_name, as_float));
      }
    }
    return partial;
  };

  // The first-seen-order column rides along in every mode so spill can
  // engage mid-stream; FinalizeAggs drops it (it only selects keys+outputs).
  partial_specs.push_back(AggSpec{kSeqColumn, AggKind::kMin, kSeqColumn});
  merge_specs.push_back(AggSpec{kSeqColumn, AggKind::kMin, kSeqColumn});

  int64_t spill_threshold = options.spill_threshold_bytes;
  if (spill_threshold < 0) {
    spill_threshold = std::numeric_limits<int64_t>::max();
    sim::Session* session = sim::Session::Current();
    if (session != nullptr && session->host_pool()->budget() > 0) {
      spill_threshold =
          static_cast<int64_t>(session->host_pool()->budget() / 8);
    }
  }
  const int n_partitions = std::max(options.spill_partitions, 1);

  std::unique_ptr<SpillFrameStore> store;  // non-null once spilling
  auto spill_partial = [&](const TablePtr& partial) -> Status {
    BENTO_ASSIGN_OR_RETURN(auto parts,
                           HashPartitionTable(partial, keys, n_partitions));
    for (int p = 0; p < n_partitions; ++p) {
      BENTO_RETURN_NOT_OK(store->Append(p, parts[static_cast<size_t>(p)]));
    }
    return Status::OK();
  };

  // Per-chunk partial aggregation as a pure map: the fused upstream
  // transforms (parallel mode), the hidden first-seen-order column, the
  // local GroupBy and the count normalization. With pipeline workers the
  // map runs concurrently across chunks; the fold below consumes partials
  // strictly in stream order through the same serial merge code either
  // way, so the result is bit-identical for any worker count.
  auto partial_map = [&keys, &partial_specs, &normalize,
                      pre_map = options.pre_map](
                         TablePtr chunk, int64_t seq) -> Result<TablePtr> {
    if (pre_map) {
      BENTO_ASSIGN_OR_RETURN(chunk, pre_map(std::move(chunk)));
    }
    if (chunk->num_rows() == 0) return chunk;  // fold skips empty partials
    BENTO_ASSIGN_OR_RETURN(chunk, AttachSeqColumn(chunk, seq));
    BENTO_ASSIGN_OR_RETURN(auto partial,
                           kern::GroupBy(chunk, keys, partial_specs));
    return normalize(std::move(partial));
  };
  ParallelPipelineDriver partial_stream(input, partial_map, options.pipeline);

  std::vector<TablePtr> partials;
  int64_t partial_bytes = 0;
  TablePtr empty_chunk;  // first zero-row mapped chunk
  constexpr size_t kCompactEvery = 16;
  while (true) {
    BENTO_ASSIGN_OR_RETURN(auto partial, partial_stream.Next());
    if (partial == nullptr) break;
    if (partial->num_rows() == 0) {
      if (empty_chunk == nullptr) empty_chunk = std::move(partial);
      continue;
    }
    if (store != nullptr) {
      BENTO_RETURN_NOT_OK(spill_partial(partial));
      continue;
    }
    partial_bytes += static_cast<int64_t>(partial->ByteSize());
    partials.push_back(std::move(partial));
    if (partial_bytes >= spill_threshold) {
      // The group state itself no longer fits: compact what we hold, fan it
      // out to hash partitions on disk, and spill every later partial.
      static obs::Counter* spilled =
          obs::MetricsRegistry::Global().counter("groupby.spill_engaged");
      spilled->Increment();
      BENTO_ASSIGN_OR_RETURN(auto concat, col::ConcatTablesReleasing(&partials));
      BENTO_ASSIGN_OR_RETURN(auto compacted,
                             kern::GroupBy(concat, keys, merge_specs));
      concat.reset();
      BENTO_ASSIGN_OR_RETURN(store, SpillFrameStore::Create(n_partitions));
      BENTO_RETURN_NOT_OK(spill_partial(compacted));
      partial_bytes = 0;
      continue;
    }
    if (partials.size() >= kCompactEvery) {
      BENTO_ASSIGN_OR_RETURN(auto concat, col::ConcatTables(partials));
      BENTO_ASSIGN_OR_RETURN(auto compacted,
                             kern::GroupBy(concat, keys, merge_specs));
      partials.clear();
      partial_bytes = static_cast<int64_t>(compacted->ByteSize());
      partials.push_back(std::move(compacted));
    }
  }
  if (options.chunks_claimed != nullptr) {
    *options.chunks_claimed = partial_stream.chunks_claimed();
  }

  if (store != nullptr) {
    // Per-partition exact merge; a group's partials all share one partition
    // (hash of its key), so merging partitions independently is exact. The
    // hidden min-sequence column then restores global first-seen order.
    // Spilling starts from a non-empty partial, so some partition is too.
    BENTO_TRACE_SPAN(kEngine, "groupby.spill_merge");
    std::vector<TablePtr> merged_parts;
    for (int p = 0; p < n_partitions; ++p) {
      BENTO_ASSIGN_OR_RETURN(auto chunks, store->ReadPartition(p));
      if (chunks.empty()) continue;
      BENTO_ASSIGN_OR_RETURN(auto concat, col::ConcatTablesReleasing(&chunks));
      if (concat->num_rows() == 0) continue;
      BENTO_ASSIGN_OR_RETURN(auto merged,
                             kern::GroupBy(concat, keys, merge_specs));
      merged_parts.push_back(std::move(merged));
    }
    store.reset();
    BENTO_ASSIGN_OR_RETURN(auto all, col::ConcatTablesReleasing(&merged_parts));
    BENTO_ASSIGN_OR_RETURN(
        auto indices, kern::ArgSort(all, {kern::SortKey{kSeqColumn, true}}));
    BENTO_ASSIGN_OR_RETURN(auto ordered, kern::TakeTable(all, indices));
    return FinalizeAggs(ordered, keys, decomposed);
  }

  if (partials.empty()) {
    // Every mapped chunk was empty (a filter kept no row).
    BENTO_ASSIGN_OR_RETURN(auto empty, EmptyInput(empty_chunk));
    return kern::GroupBy(empty, keys, aggs);
  }
  BENTO_ASSIGN_OR_RETURN(auto concat, col::ConcatTables(partials));
  BENTO_ASSIGN_OR_RETURN(auto merged, kern::GroupBy(concat, keys, merge_specs));
  return FinalizeAggs(merged, keys, decomposed);
}

namespace {

/// Cursor over one spilled sorted run (a SpillFrameStore partition).
struct RunCursor {
  std::unique_ptr<ChunkStream> stream;
  TablePtr chunk;
  int64_t row = 0;

  Status Advance() {
    ++row;
    if (chunk != nullptr && row < chunk->num_rows()) return Status::OK();
    row = 0;
    chunk = nullptr;
    while (true) {
      BENTO_ASSIGN_OR_RETURN(auto next, stream->Next());
      if (next == nullptr) return Status::OK();  // exhausted: chunk stays null
      if (next->num_rows() > 0) {
        chunk = std::move(next);
        return Status::OK();
      }
    }
  }

  bool exhausted() const { return chunk == nullptr; }
};

}  // namespace

namespace {

/// Body of ExternalSortToFile: sorted runs spill to a SpillFrameStore; the
/// k-way merge appends ordered output chunks to `out`.
Status ExternalSortImpl(ChunkStream* input,
                        const std::vector<kern::SortKey>& keys,
                        const ExecPolicy& policy, int64_t run_rows,
                        io::BcfWriter* out) {
  // Phase 1: build sorted runs, spilling each as one partition of a shared
  // SpillFrameStore. Runs are bounded both by rows and by bytes (one run
  // plus its sorted copy must fit comfortably inside the machine budget).
  uint64_t run_budget_bytes = 64ULL << 20;
  if (sim::Session::Current() != nullptr &&
      sim::Session::Current()->host_pool()->budget() > 0) {
    run_budget_bytes = std::max<uint64_t>(
        sim::Session::Current()->host_pool()->budget() / 8, 128 << 10);
  }
  // The store outlives the cursors below (declaration order matters).
  BENTO_ASSIGN_OR_RETURN(auto store, SpillFrameStore::Create(0));
  std::vector<std::unique_ptr<RunCursor>> runs;
  std::vector<TablePtr> pending;
  int64_t pending_rows = 0;
  uint64_t pending_bytes = 0;
  col::SchemaPtr schema;

  auto flush_run = [&]() -> Status {
    if (pending.empty()) return Status::OK();
    BENTO_ASSIGN_OR_RETURN(auto run_table, col::ConcatTablesReleasing(&pending));
    pending_rows = 0;
    pending_bytes = 0;
    TablePtr sorted;
    if (policy.parallel) {
      BENTO_ASSIGN_OR_RETURN(
          auto indices,
          kern::ArgSortParallel(run_table, keys, policy.parallel_options));
      BENTO_ASSIGN_OR_RETURN(sorted, kern::TakeTable(run_table, indices));
    } else {
      BENTO_ASSIGN_OR_RETURN(sorted, kern::SortTable(run_table, keys));
    }
    run_table.reset();
    const int partition = store->AddPartition();
    // During the k-way merge every run keeps one frame resident, so frames
    // are bounded in BYTES (a small fraction of the run budget), not rows —
    // N cursors together must stay well under a single run's footprint.
    const uint64_t row_bytes = std::max<uint64_t>(
        1, sorted->ByteSize() / static_cast<uint64_t>(
                                    std::max<int64_t>(sorted->num_rows(), 1)));
    const int64_t run_frame_rows = std::clamp<int64_t>(
        static_cast<int64_t>(run_budget_bytes / 64 / row_bytes), 64, 8192);
    for (int64_t begin = 0; begin < sorted->num_rows();
         begin += run_frame_rows) {
      const int64_t n = std::min(run_frame_rows, sorted->num_rows() - begin);
      BENTO_ASSIGN_OR_RETURN(auto frame, sorted->Slice(begin, n));
      BENTO_RETURN_NOT_OK(store->Append(partition, frame));
    }
    sorted.reset();
    auto cursor = std::make_unique<RunCursor>();
    BENTO_ASSIGN_OR_RETURN(cursor->stream, store->OpenPartition(partition));
    cursor->row = -1;
    BENTO_RETURN_NOT_OK(cursor->Advance());
    runs.push_back(std::move(cursor));
    return Status::OK();
  };

  while (true) {
    BENTO_ASSIGN_OR_RETURN(auto chunk, input->Next());
    if (chunk == nullptr) break;
    if (schema == nullptr) schema = chunk->schema();
    if (chunk->num_rows() == 0) continue;
    pending_rows += chunk->num_rows();
    pending_bytes += OwnedChunkBytes(chunk);
    pending.push_back(std::move(chunk));
    if (pending_rows >= run_rows || pending_bytes >= run_budget_bytes) {
      BENTO_RETURN_NOT_OK(flush_run());
    }
  }
  BENTO_RETURN_NOT_OK(flush_run());

  if (runs.empty()) {
    if (schema == nullptr) {
      return Status::Invalid("external sort over an empty stream");
    }
    BENTO_ASSIGN_OR_RETURN(auto empty, col::Table::MakeEmpty(schema));
    return out->Append(empty);
  }
  if (runs.size() == 1) {
    // Single run: stream it back whole.
    while (!runs[0]->exhausted()) {
      TablePtr chunk = runs[0]->chunk;
      runs[0]->chunk = nullptr;
      runs[0]->row = -1;
      BENTO_RETURN_NOT_OK(out->Append(chunk));
      BENTO_RETURN_NOT_OK(runs[0]->Advance());
    }
    return Status::OK();
  }

  // Phase 2: cursor-based k-way merge, assembling output in chunks.
  auto cmp_runs = [&](size_t a, size_t b) -> Result<int> {
    return kern::CompareTableRows(runs[a]->chunk, runs[a]->row, runs[b]->chunk,
                                  runs[b]->row, keys);
  };

  std::vector<std::unique_ptr<kern::ScalarColumnAssembler>> assemblers;
  const col::SchemaPtr out_schema = runs[0]->chunk->schema();
  auto reset_assemblers = [&]() {
    assemblers.clear();
    for (const col::Field& f : out_schema->fields()) {
      // Categorical round-trips as string through the assembler.
      col::TypeId t = f.type == col::TypeId::kCategorical
                          ? col::TypeId::kString
                          : f.type;
      assemblers.push_back(std::make_unique<kern::ScalarColumnAssembler>(t));
    }
  };
  reset_assemblers();
  int64_t assembled = 0;
  constexpr int64_t kOutChunk = 8192;  // bounds merge-phase staging

  auto flush_output = [&]() -> Status {
    if (assembled == 0) return Status::OK();
    std::vector<col::Field> fields;
    std::vector<col::ArrayPtr> columns;
    for (int c = 0; c < out_schema->num_fields(); ++c) {
      BENTO_ASSIGN_OR_RETURN(auto arr, assemblers[static_cast<size_t>(c)]->Finish());
      col::Field f = out_schema->field(c);
      if (f.type == col::TypeId::kCategorical) f.type = col::TypeId::kString;
      fields.push_back(f);
      columns.push_back(std::move(arr));
    }
    BENTO_ASSIGN_OR_RETURN(
        auto chunk, col::Table::Make(
                        std::make_shared<col::Schema>(std::move(fields)),
                        std::move(columns)));
    BENTO_RETURN_NOT_OK(out->Append(chunk));
    reset_assemblers();
    assembled = 0;
    return Status::OK();
  };

  while (true) {
    // Pick the smallest head among non-exhausted runs.
    int best = -1;
    for (size_t r = 0; r < runs.size(); ++r) {
      if (runs[r]->exhausted()) continue;
      if (best < 0) {
        best = static_cast<int>(r);
        continue;
      }
      BENTO_ASSIGN_OR_RETURN(int c, cmp_runs(r, static_cast<size_t>(best)));
      if (c < 0) best = static_cast<int>(r);
    }
    if (best < 0) break;
    RunCursor& cursor = *runs[static_cast<size_t>(best)];
    for (int c = 0; c < out_schema->num_fields(); ++c) {
      BENTO_RETURN_NOT_OK(assemblers[static_cast<size_t>(c)]->Append(
          cursor.chunk->column(c)->GetScalar(cursor.row)));
    }
    ++assembled;
    if (assembled >= kOutChunk) BENTO_RETURN_NOT_OK(flush_output());
    BENTO_RETURN_NOT_OK(cursor.Advance());
  }
  return flush_output();
}

}  // namespace

Result<std::string> ExternalSortToFile(ChunkStream* input,
                                       const std::vector<kern::SortKey>& keys,
                                       const ExecPolicy& policy,
                                       int64_t run_rows) {
  const std::string path = sim::TempPath("run", ".bcf");
  io::BcfWriteOptions wopts;
  wopts.row_group_rows = 64 * 1024;
  wopts.compression = false;
  BENTO_ASSIGN_OR_RETURN(auto writer, io::BcfWriter::Open(path, wopts));
  Status st = ExternalSortImpl(input, keys, policy, run_rows, writer.get());
  if (!st.ok()) {
    std::remove(path.c_str());
    return st;
  }
  BENTO_RETURN_NOT_OK(writer->Finish());
  return path;
}

Result<TablePtr> StreamingDedup(ChunkStream* input,
                                const std::vector<std::string>& subset,
                                const StreamingDedupOptions& options) {
  // Hidden per-row hash column attached by the (parallelizable) map stage;
  // the serial fold below pops it and applies the first-seen filter in
  // strict stream order, so the kept rows are identical for any worker
  // count.
  constexpr const char* kHashColumn = "__dedup_hash";
  auto hash_map = [&subset, pre_map = options.pre_map](
                      TablePtr chunk, int64_t) -> Result<TablePtr> {
    if (pre_map) {
      BENTO_ASSIGN_OR_RETURN(chunk, pre_map(std::move(chunk)));
    }
    if (chunk->num_rows() == 0) return chunk;
    BENTO_ASSIGN_OR_RETURN(auto hashes, kern::HashRows(chunk, subset));
    col::Int64Builder b;
    b.Reserve(chunk->num_rows());
    for (int64_t i = 0; i < chunk->num_rows(); ++i) {
      b.Append(static_cast<int64_t>(hashes[static_cast<size_t>(i)]));
    }
    BENTO_ASSIGN_OR_RETURN(auto column, b.Finish());
    return chunk->SetColumn(kHashColumn, std::move(column));
  };
  ParallelPipelineDriver hashed_stream(input, hash_map, options.pipeline);

  // The filter kern::DropDuplicates runs, across chunks: a hash hit is a
  // duplicate only when the rows compare equal. Each distinct row's group id
  // doubles as its FlatGrouper representative, and `where[group]` locates the
  // row as (index into `kept`, row). Rows first seen in the chunk being
  // filtered point into that chunk (index kept.size()) until it is appended.
  kern::FlatGrouper seen;
  std::vector<std::pair<size_t, int64_t>> where;
  std::vector<TablePtr> kept;
  TablePtr empty_chunk;  // first zero-row mapped chunk
  while (true) {
    BENTO_ASSIGN_OR_RETURN(auto chunk, hashed_stream.Next());
    if (chunk == nullptr) break;
    if (chunk->num_rows() == 0) {
      if (empty_chunk == nullptr) empty_chunk = std::move(chunk);
      continue;
    }
    BENTO_ASSIGN_OR_RETURN(auto hash_column, chunk->GetColumn(kHashColumn));
    const int64_t* hashes = hash_column->int64_data();
    BENTO_ASSIGN_OR_RETURN(chunk, chunk->DropColumns({kHashColumn}));
    const std::vector<std::string> columns =
        subset.empty() ? chunk->schema()->names() : subset;

    // One equality per table this chunk is compared with, made on first use.
    std::unordered_map<size_t, kern::RowEquality> equalities;
    Status status;
    auto equal = [&](int64_t group, int64_t row) {
      const auto [table, rep_row] = where[static_cast<size_t>(group)];
      auto it = equalities.find(table);
      if (it == equalities.end()) {
        auto made = kern::RowEquality::Make(
            table < kept.size() ? kept[table] : chunk, columns, chunk, columns);
        if (!made.ok()) {
          status = made.status();
          return false;
        }
        it = equalities.emplace(table, std::move(made).ValueOrDie()).first;
      }
      return it->second.Equal(rep_row, row);
    };
    const int64_t first_new = seen.num_groups();
    std::vector<int64_t> keep_rows;
    for (int64_t i = 0; i < chunk->num_rows(); ++i) {
      const int64_t fresh = seen.num_groups();
      const int64_t group = seen.FindOrInsert(
          static_cast<uint64_t>(hashes[i]), fresh,
          [&](int64_t rep, int64_t) { return equal(rep, i); });
      BENTO_RETURN_NOT_OK(status);
      if (group == fresh) {
        where.emplace_back(kept.size(), i);
        keep_rows.push_back(i);
      }
    }
    if (keep_rows.empty()) continue;
    for (int64_t g = first_new; g < seen.num_groups(); ++g) {
      where[static_cast<size_t>(g)].second = g - first_new;  // kept position
    }
    BENTO_ASSIGN_OR_RETURN(auto filtered, kern::TakeTable(chunk, keep_rows));
    kept.push_back(std::move(filtered));
  }
  if (options.chunks_claimed != nullptr) {
    *options.chunks_claimed = hashed_stream.chunks_claimed();
  }
  if (kept.empty()) {
    // Every mapped chunk was empty (a filter kept no row).
    BENTO_ASSIGN_OR_RETURN(auto empty, EmptyInput(empty_chunk));
    return kern::DropDuplicates(empty, subset);
  }
  return col::ConcatTablesReleasing(&kept);
}

Result<TablePtr> StreamingPivot(ChunkStream* input, const frame::Op& op,
                                const ExecPolicy& policy,
                                const StreamingGroupByOptions& options) {
  // Aggregate down to one row per (index, columns) pair, then pivot the
  // small result in memory.
  std::vector<AggSpec> aggs = {
      AggSpec{op.pivot_values, op.pivot_agg, "__pivot_value"}};
  BENTO_ASSIGN_OR_RETURN(
      auto grouped,
      StreamingGroupBy(input, {op.pivot_index, op.pivot_columns}, aggs,
                       policy, options));
  // Cell groups are unique, so any decomposable agg of the single value
  // reproduces it; the output column names match the kernel's convention.
  return kern::PivotTable(grouped, op.pivot_index, op.pivot_columns,
                          "__pivot_value",
                          op.pivot_agg == kern::AggKind::kCount
                              ? kern::AggKind::kSum
                              : kern::AggKind::kMean);
}

Result<TablePtr> GraceHashJoin(ChunkStream* probe, const TablePtr& build,
                               const std::string& left_key,
                               const std::string& right_key,
                               const kern::JoinOptions& options,
                               int partitions) {
  BENTO_TRACE_SPAN(kEngine, "join.grace");
  static obs::Counter* grace_joins =
      obs::MetricsRegistry::Global().counter("join.grace_runs");
  grace_joins->Increment();
  const int P = std::max(partitions, 1);
  // One store, two halves: build partitions in [0, P), probe in [P, 2P).
  BENTO_ASSIGN_OR_RETURN(auto store, SpillFrameStore::Create(2 * P));

  {
    // Partitioning the build side lets each per-partition hash table hold
    // ~1/P of it; the full build table never needs a hash table at once.
    BENTO_ASSIGN_OR_RETURN(auto parts,
                           HashPartitionTable(build, {right_key}, P));
    for (int p = 0; p < P; ++p) {
      BENTO_RETURN_NOT_OK(store->Append(p, parts[static_cast<size_t>(p)]));
    }
  }

  int64_t chunk_seq = 0;
  TablePtr typed_empty_probe;  // zero-row probe chunk, for schema fallbacks
  while (true) {
    BENTO_ASSIGN_OR_RETURN(auto chunk, probe->Next());
    if (chunk == nullptr) break;
    BENTO_ASSIGN_OR_RETURN(auto with_seq, AttachSeqColumn(chunk, chunk_seq++));
    if (typed_empty_probe == nullptr) {
      BENTO_ASSIGN_OR_RETURN(typed_empty_probe, with_seq->Slice(0, 0));
    }
    if (chunk->num_rows() == 0) continue;
    BENTO_ASSIGN_OR_RETURN(auto parts,
                           HashPartitionTable(with_seq, {left_key}, P));
    for (int p = 0; p < P; ++p) {
      BENTO_RETURN_NOT_OK(
          store->Append(P + p, parts[static_cast<size_t>(p)]));
    }
  }
  if (typed_empty_probe == nullptr) {
    return Status::Invalid("grace join over an empty stream");
  }

  std::vector<TablePtr> joined;
  for (int p = 0; p < P; ++p) {
    BENTO_ASSIGN_OR_RETURN(auto build_chunks, store->ReadPartition(p));
    TablePtr build_part;
    if (build_chunks.empty()) {
      BENTO_ASSIGN_OR_RETURN(build_part, build->Slice(0, 0));
    } else {
      BENTO_ASSIGN_OR_RETURN(build_part,
                             col::ConcatTablesReleasing(&build_chunks));
    }
    // Probe frames join one at a time, so per-partition memory stays at
    // O(build/P + frame + matches).
    BENTO_ASSIGN_OR_RETURN(auto probe_stream, store->OpenPartition(P + p));
    while (true) {
      BENTO_ASSIGN_OR_RETURN(auto frame, probe_stream->Next());
      if (frame == nullptr) break;
      if (frame->num_rows() == 0) continue;
      BENTO_ASSIGN_OR_RETURN(auto out, kern::HashJoin(frame, build_part,
                                                      left_key, right_key,
                                                      options));
      if (out->num_rows() > 0) joined.push_back(std::move(out));
    }
  }
  store.reset();

  if (joined.empty()) {
    // Nothing matched (or the probe was all-empty): produce the join's
    // output schema exactly as the one-shot HashJoin would.
    BENTO_ASSIGN_OR_RETURN(
        auto out, kern::HashJoin(typed_empty_probe, build, left_key,
                                 right_key, options));
    return out->DropColumns({kSeqColumn});
  }
  BENTO_ASSIGN_OR_RETURN(auto all, col::ConcatTablesReleasing(&joined));
  // ArgSort is stable, so a probe row's multiple matches (equal __seq) keep
  // their build-order — the exact row order HashJoin(probe, build) emits.
  return RestoreSeqOrder(all);
}

Result<TablePtr> DrainStream(ChunkStream* input) {
  std::vector<TablePtr> chunks;
  while (true) {
    BENTO_ASSIGN_OR_RETURN(auto chunk, input->Next());
    if (chunk == nullptr) break;
    chunks.push_back(std::move(chunk));
  }
  if (chunks.empty()) return Status::Invalid("drained an empty stream");
  // Releasing concat keeps the peak at one copy plus one column.
  return col::ConcatTablesReleasing(&chunks);
}

Result<TablePtr> MaterializeStreamMapped(ChunkStream* input,
                                         uint64_t inline_limit_bytes) {
  BENTO_TRACE_SPAN(kIo, "materialize.mapped");
  static obs::Counter* mapped_frames =
      obs::MetricsRegistry::Global().counter("lazy.mapped_materializations");

  // Buffer small results in memory: the file round-trip only pays for
  // frames that would otherwise occupy a big slice of the budget.
  std::vector<TablePtr> pending;
  uint64_t pending_bytes = 0;
  bool exhausted = false;
  while (true) {
    BENTO_ASSIGN_OR_RETURN(auto chunk, input->Next());
    if (chunk == nullptr) {
      exhausted = true;
      break;
    }
    pending_bytes += OwnedChunkBytes(chunk);
    pending.push_back(std::move(chunk));
    if (pending_bytes > inline_limit_bytes) break;
  }
  if (exhausted) {
    if (pending.empty()) return Status::Invalid("drained an empty stream");
    return col::ConcatTablesReleasing(&pending);
  }

  // Pass 1: spill the stream chunk-at-a-time, one row group per chunk.
  const std::string spill_path = sim::TempPath("run", ".bcf");
  auto spill = [&]() -> Status {
    io::BcfWriteOptions wopts;
    wopts.row_group_rows = 0;  // one group per appended chunk
    wopts.compression = false;
    BENTO_ASSIGN_OR_RETURN(auto writer, io::BcfWriter::Open(spill_path, wopts));
    for (TablePtr& buffered : pending) {
      BENTO_RETURN_NOT_OK(writer->Append(buffered));
      buffered.reset();
    }
    pending.clear();
    while (true) {
      BENTO_ASSIGN_OR_RETURN(auto chunk, input->Next());
      if (chunk == nullptr) break;
      BENTO_RETURN_NOT_OK(writer->Append(chunk));
    }
    return writer->Finish();
  };
  Status st = spill();
  if (!st.ok()) {
    std::remove(spill_path.c_str());
    return st;
  }

  // Pass 2: compact into ONE mappable row group. Column-at-a-time, so the
  // peak is a single column (plus its chunk parts), never the frame.
  const std::string mapped_path = sim::TempPath("run", ".bcf");
  auto compact = [&]() -> Status {
    BENTO_TRACE_SPAN(kIo, "materialize.compact");
    BENTO_ASSIGN_OR_RETURN(auto src, io::BcfReader::Open(spill_path));
    io::BcfWriteOptions wopts;
    wopts.compression = false;
    wopts.align_pages = true;
    wopts.mappable = true;
    BENTO_ASSIGN_OR_RETURN(auto dst, io::BcfWriter::Open(mapped_path, wopts));
    const col::SchemaPtr schema = src->schema();
    BENTO_RETURN_NOT_OK(dst->AppendColumnGroup(
        schema, src->num_rows(), [&](int c) -> Result<col::ArrayPtr> {
          // All row groups of column c, concatenated.
          std::vector<col::TablePtr> parts;
          parts.reserve(static_cast<size_t>(src->num_row_groups()));
          for (int g = 0; g < src->num_row_groups(); ++g) {
            BENTO_ASSIGN_OR_RETURN(
                auto part, src->ReadRowGroup(g, {schema->field(c).name}));
            parts.push_back(std::move(part));
          }
          BENTO_ASSIGN_OR_RETURN(auto column,
                                 col::ConcatTablesReleasing(&parts));
          return column->column(0);
        }));
    return dst->Finish();
  };
  st = compact();
  std::remove(spill_path.c_str());
  if (!st.ok()) {
    std::remove(mapped_path.c_str());
    return st;
  }

  // Pass 3: map the compacted frame back. Unlink immediately — the mapping
  // (or the reader's open descriptor under BENTO_BCF_MMAP=off) keeps the
  // bytes reachable until the last view is released.
  io::BcfReadOptions ropts;
  ropts.use_mmap = true;
  auto reader = io::BcfReader::Open(mapped_path, ropts);
  std::remove(mapped_path.c_str());
  if (!reader.ok()) return reader.status();
  mapped_frames->Increment();
  return reader.ValueOrDie()->ReadRowGroup(0);
}


Result<std::string> SpillStreamToFile(ChunkStream* input) {
  BENTO_TRACE_SPAN(kIo, "spill.stream");
  const std::string path = sim::TempPath("run", ".bcf");
  io::BcfWriteOptions wopts;
  wopts.row_group_rows = 4096;  // pass-2 readers stream small batches
  wopts.compression = false;
  BENTO_ASSIGN_OR_RETURN(auto writer, io::BcfWriter::Open(path, wopts));
  bool any = false;
  Status st;
  while (true) {
    auto chunk = input->Next();
    if (!chunk.ok()) {
      st = chunk.status();
      break;
    }
    if (chunk.ValueOrDie() == nullptr) break;
    st = writer->Append(chunk.ValueOrDie());
    if (!st.ok()) break;
    any = true;
  }
  if (st.ok() && !any) st = Status::Invalid("spilled an empty stream");
  if (st.ok()) st = writer->Finish();
  if (!st.ok()) {
    std::remove(path.c_str());
    return st;
  }
  return path;
}

Result<std::vector<std::string>> StreamDistinctValues(
    ChunkStream* input, const std::string& column) {
  BENTO_TRACE_SPAN(kEngine, "twopass.distinct");
  std::vector<std::string> values;
  std::unordered_set<std::string> seen;
  while (true) {
    BENTO_ASSIGN_OR_RETURN(auto chunk, input->Next());
    if (chunk == nullptr) break;
    BENTO_ASSIGN_OR_RETURN(auto c, chunk->GetColumn(column));
    for (int64_t i = 0; i < c->length(); ++i) {
      if (c->IsNull(i)) continue;
      std::string v = c->ValueToString(i);
      if (seen.insert(v).second) values.push_back(std::move(v));
    }
  }
  return values;
}

Result<double> StreamColumnMean(ChunkStream* input, const std::string& column) {
  double sum = 0.0;
  int64_t count = 0;
  while (true) {
    BENTO_ASSIGN_OR_RETURN(auto chunk, input->Next());
    if (chunk == nullptr) break;
    BENTO_ASSIGN_OR_RETURN(auto c, chunk->GetColumn(column));
    BENTO_ASSIGN_OR_RETURN(auto s, kern::Aggregate(c, AggKind::kSum));
    BENTO_ASSIGN_OR_RETURN(auto n, kern::Aggregate(c, AggKind::kCount));
    if (!s.is_null()) sum += s.double_value();
    count += n.int_value();
  }
  return count > 0 ? sum / static_cast<double>(count) : 0.0;
}

}  // namespace bento::eng
