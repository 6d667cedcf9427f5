#include "engines/streaming_ops.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "columnar/builder.h"
#include "engines/spill_frames.h"
#include "kernels/apply.h"
#include "kernels/dedup.h"
#include "kernels/flat_index.h"
#include "kernels/groupby.h"
#include "kernels/join.h"
#include "kernels/null_ops.h"
#include "kernels/pivot.h"
#include "kernels/row_hash.h"
#include "kernels/selection.h"
#include "kernels/sort.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace bento::eng {

using col::TablePtr;
using frame::ExecPolicy;
using kern::AggKind;
using kern::AggSpec;

namespace {

/// Hidden column holding each row's stream position. Aggregated with min
/// it names a group's first-seen position, which is exactly the order
/// kern::GroupBy emits groups in — so spilled partitions can be stitched
/// back into the order the in-memory path would have produced.
constexpr const char* kSeqColumn = "__seq";

/// `chunk` with kSeqColumn appended: `first` for its first row, counting
/// up by one per row.
Result<TablePtr> AttachSeqColumn(const TablePtr& chunk, int64_t first) {
  col::Int64Builder b;
  b.Reserve(chunk->num_rows());
  for (int64_t i = 0; i < chunk->num_rows(); ++i) b.Append(first + i);
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

/// Hidden column the workers of the group-by and dedup folds attach: the
/// hash of each row's key columns.
constexpr const char* kHashColumn = "__key_hash";

/// The workers' half of the group-by and dedup folds: the fused upstream
/// transforms, then each row's hash over `keys` (every column when empty)
/// as kHashColumn. A chunk left with no row passes through unhashed.
Result<TablePtr> HashKeys(TablePtr chunk, const std::vector<std::string>& keys,
                          const ChunkMapFn& pre_map) {
  if (pre_map) {
    BENTO_ASSIGN_OR_RETURN(chunk, pre_map(std::move(chunk)));
  }
  if (chunk->num_rows() == 0) return chunk;
  BENTO_ASSIGN_OR_RETURN(auto hashes, kern::HashRows(chunk, keys));
  col::Int64Builder b;
  b.Reserve(chunk->num_rows());
  for (uint64_t h : hashes) b.Append(static_cast<int64_t>(h));
  BENTO_ASSIGN_OR_RETURN(auto column, b.Finish());
  return chunk->SetColumn(kHashColumn, std::move(column));
}

/// The cross-chunk grouper of the group-by and dedup folds: numbers the
/// distinct values of `columns` (every column when empty) across a
/// stream's chunks in first-seen order, as kern::GroupBy and
/// kern::DropDuplicates number them over the whole table. A hash hit is the
/// same group only when the rows compare equal. The first row of each group
/// is kept; its group id doubles as its FlatGrouper representative, and
/// `where_[group]` locates it as (index into `kept_`, row).
class StreamGrouper {
 public:
  explicit StreamGrouper(std::vector<std::string> columns)
      : columns_(std::move(columns)) {}

  /// Sets `(*groups)[i]` to the group of row i of `rows`, whose key hash is
  /// `hashes[i]`. A row with an unseen key opens a group and is kept when
  /// `insert` is set, and gets FlatGrouper::kNone otherwise.
  Status Assign(const TablePtr& rows, const int64_t* hashes, bool insert,
                std::vector<int64_t>* groups);

  int64_t num_groups() const { return seen_.num_groups(); }

  /// Bytes the grouper and the row locations hold (heap the MemoryPool
  /// does not allocate).
  int64_t HeapBytes() const {
    return seen_.ByteSize() +
           static_cast<int64_t>(where_.capacity() * sizeof(where_[0]));
  }

  /// HeapBytes plus the kept rows.
  int64_t ByteSize() const { return HeapBytes() + kept_bytes_; }

  /// The kept rows, one per group in group order; needs a group.
  Result<TablePtr> TakeKept() { return col::ConcatTablesReleasing(&kept_); }

 private:
  std::vector<std::string> columns_;
  kern::FlatGrouper seen_;
  std::vector<std::pair<size_t, int64_t>> where_;
  std::vector<TablePtr> kept_;
  int64_t kept_bytes_ = 0;
};

Status StreamGrouper::Assign(const TablePtr& rows, const int64_t* hashes,
                             bool insert, std::vector<int64_t>* groups) {
  const std::vector<std::string> columns =
      columns_.empty() ? rows->schema()->names() : columns_;
  // One equality per table the rows are compared with, made on first use.
  // Groups first seen in `rows` point into it (index kept_.size()) until
  // their first rows are appended to `kept_`.
  std::unordered_map<size_t, kern::RowEquality> equalities;
  Status status;
  auto equal = [&](int64_t group, int64_t row) {
    const auto [table, rep_row] = where_[static_cast<size_t>(group)];
    auto it = equalities.find(table);
    if (it == equalities.end()) {
      auto made = kern::RowEquality::Make(
          table < kept_.size() ? kept_[table] : rows, columns, rows, columns);
      if (!made.ok()) {
        status = made.status();
        return false;
      }
      it = equalities.emplace(table, std::move(made).ValueOrDie()).first;
    }
    return it->second.Equal(rep_row, row);
  };
  const int64_t n = rows->num_rows();
  const int64_t first_new = seen_.num_groups();
  std::vector<int64_t> new_rows;
  groups->resize(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    const uint64_t h = static_cast<uint64_t>(hashes[i]);
    auto same = [&](int64_t group, int64_t) { return equal(group, i); };
    int64_t group = kern::FlatGrouper::kNone;
    if (insert) {
      const int64_t fresh = seen_.num_groups();
      group = seen_.FindOrInsert(h, fresh, same);
      if (group == fresh) {
        where_.emplace_back(kept_.size(), i);
        new_rows.push_back(i);
      }
    } else {
      group = seen_.Find(h, i, same);
    }
    BENTO_RETURN_NOT_OK(status);
    (*groups)[static_cast<size_t>(i)] = group;
  }
  if (new_rows.empty()) return Status::OK();
  for (int64_t g = first_new; g < seen_.num_groups(); ++g) {
    where_[static_cast<size_t>(g)].second = g - first_new;  // kept position
  }
  BENTO_ASSIGN_OR_RETURN(auto firsts, kern::TakeTable(rows, new_rows));
  kept_bytes_ += static_cast<int64_t>(firsts->ByteSize());
  kept_.push_back(std::move(firsts));
  return Status::OK();
}

/// One group-by fold over hashed chunks fed in stream order: the
/// cross-chunk grouper numbers the groups, and each row feeds its group's
/// kern::AggFold state, so a group's states are kern::GroupBy's.
class GroupFold {
 public:
  /// A new group keeps its first row's `kept` columns: the keys, and the
  /// stream position when folding spilled rows.
  GroupFold(const std::vector<std::string>& keys,
            std::vector<std::string> kept)
      : grouper_(keys), kept_(std::move(kept)) {}
  ~GroupFold() {
    if (charged_ > 0) pool_->Release(charged_);
  }

  /// Feeds every row of the hashed `chunk` into its group. With `insert`
  /// off, a row whose key has no group is not folded, and its index is
  /// appended to `*unseen`.
  Status Add(const TablePtr& chunk, const std::vector<AggSpec>& aggs,
             bool insert, std::vector<int64_t>* unseen) {
    BENTO_RETURN_NOT_OK(fold_.Bind(chunk, aggs));
    BENTO_ASSIGN_OR_RETURN(auto hash_column, chunk->GetColumn(kHashColumn));
    BENTO_ASSIGN_OR_RETURN(auto kept_rows, chunk->SelectColumns(kept_));
    BENTO_RETURN_NOT_OK(grouper_.Assign(kept_rows, hash_column->int64_data(),
                                        insert, &groups_));
    for (int64_t i = 0; i < chunk->num_rows(); ++i) {
      const int64_t group = groups_[static_cast<size_t>(i)];
      if (group != kern::FlatGrouper::kNone) {
        fold_.Add(group, i);
      } else {
        unseen->push_back(i);
      }
    }
    // The grouper's slots and row locations and the states are plain heap:
    // charge their growth to the pool, as the key rows' buffers are.
    const auto heap =
        static_cast<uint64_t>(grouper_.HeapBytes() + fold_.ByteSize());
    if (heap <= charged_) return Status::OK();
    BENTO_RETURN_NOT_OK(pool_->Reserve(heap - charged_));
    charged_ = heap;
    return Status::OK();
  }

  /// Bytes the fold holds, kept rows included.
  int64_t ByteSize() const { return grouper_.ByteSize() + fold_.ByteSize(); }

  /// One row per group in first-seen order: the kept columns, then one
  /// column per aggregation; nullptr when no row was folded.
  Result<TablePtr> Finish(const std::vector<AggSpec>& aggs) {
    if (fold_.num_groups() == 0) return TablePtr(nullptr);
    BENTO_ASSIGN_OR_RETURN(auto firsts, grouper_.TakeKept());
    return fold_.Finish(firsts, aggs);
  }

 private:
  StreamGrouper grouper_;
  kern::AggFold fold_;
  std::vector<std::string> kept_;
  std::vector<int64_t> groups_;
  std::shared_ptr<sim::MemoryPool::State> pool_ =
      sim::MemoryPool::Current()->state();
  uint64_t charged_ = 0;  // heap bytes reserved in `pool_`
};

/// Folds partition `p` of the spilled rows frame by frame. All rows of a
/// spilled key are in one partition, in stream order, so its group's first
/// row holds the key's first stream position (kept as kSeqColumn) and its
/// states equal kern::GroupBy's. nullptr when the partition is empty.
Result<TablePtr> FoldSpilledPartition(SpillFrameStore* store, int p,
                                      const std::vector<std::string>& keys,
                                      const std::vector<AggSpec>& aggs) {
  std::vector<std::string> kept = keys;
  kept.push_back(kSeqColumn);
  GroupFold fold(keys, std::move(kept));
  BENTO_ASSIGN_OR_RETURN(auto frames, store->OpenPartition(p));
  while (true) {
    BENTO_ASSIGN_OR_RETURN(auto frame, frames->Next());
    if (frame == nullptr) break;
    BENTO_RETURN_NOT_OK(fold.Add(frame, aggs, true, nullptr));
  }
  return fold.Finish(aggs);
}

}  // namespace

Result<TablePtr> StreamingGroupBy(ChunkStream* input,
                                  const std::vector<std::string>& keys,
                                  const std::vector<AggSpec>& aggs,
                                  const ExecPolicy& policy,
                                  const StreamingGroupByOptions& options) {
  if (keys.empty()) return Status::Invalid("GroupBy requires at least one key");
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

  // The workers run the fused transforms and hash the keys. The fold runs
  // here, in stream order, so each group is folded over its rows in stream
  // order — the order kern::GroupBy folds them in — for any chunking and
  // worker count.
  ParallelPipelineDriver hashed_stream(
      input,
      [&keys, pre_map = options.pre_map](TablePtr chunk) {
        return HashKeys(std::move(chunk), keys, pre_map);
      },
      options.pipeline);

  // Until the fold's own bytes reach the threshold, every row folds in
  // memory. From then on only rows whose key already has a group do; a row
  // with an unseen key goes, with its stream position, to the hash
  // partition of its key on disk, so all rows of such a key end up in one
  // partition in stream order.
  auto fold = std::make_unique<GroupFold>(keys, keys);
  std::vector<std::string> spill_columns = keys;
  for (const AggSpec& spec : aggs) {
    if (std::find(spill_columns.begin(), spill_columns.end(), spec.column) ==
        spill_columns.end()) {
      spill_columns.push_back(spec.column);
    }
  }
  spill_columns.push_back(kHashColumn);
  std::unique_ptr<SpillFrameStore> store;  // non-null once spilling
  std::vector<int64_t> unseen;
  int64_t stream_rows = 0;  // rows before the current chunk
  TablePtr empty_chunk;     // first zero-row mapped chunk
  while (true) {
    BENTO_ASSIGN_OR_RETURN(auto chunk, hashed_stream.Next());
    if (chunk == nullptr) break;
    const int64_t n = chunk->num_rows();
    if (n == 0) {
      if (empty_chunk == nullptr) empty_chunk = std::move(chunk);
      continue;
    }
    BENTO_TRACE_SPAN(kEngine, "groupby.fold");
    if (store == nullptr && fold->ByteSize() >= spill_threshold) {
      static obs::Counter* spilled =
          obs::MetricsRegistry::Global().counter("groupby.spill_engaged");
      spilled->Increment();
      BENTO_ASSIGN_OR_RETURN(store, SpillFrameStore::Create(n_partitions));
    }
    unseen.clear();
    BENTO_RETURN_NOT_OK(fold->Add(chunk, aggs, store == nullptr, &unseen));
    if (!unseen.empty()) {
      BENTO_ASSIGN_OR_RETURN(auto hash_column, chunk->GetColumn(kHashColumn));
      std::vector<std::vector<int64_t>> spill_rows(
          static_cast<size_t>(n_partitions));
      for (int64_t i : unseen) {
        spill_rows[static_cast<uint64_t>(hash_column->int64_data()[i]) %
                   static_cast<uint64_t>(n_partitions)]
            .push_back(i);
      }
      BENTO_ASSIGN_OR_RETURN(auto spill_input,
                             chunk->SelectColumns(spill_columns));
      BENTO_ASSIGN_OR_RETURN(spill_input,
                             AttachSeqColumn(spill_input, stream_rows));
      for (int p = 0; p < n_partitions; ++p) {
        const auto& rows = spill_rows[static_cast<size_t>(p)];
        if (rows.empty()) continue;
        BENTO_ASSIGN_OR_RETURN(auto part, kern::TakeTable(spill_input, rows));
        BENTO_RETURN_NOT_OK(store->Append(p, part));
      }
    }
    stream_rows += n;
  }
  if (options.chunks_claimed != nullptr) {
    *options.chunks_claimed = hashed_stream.chunks_claimed();
  }

  // In-memory groups were all seen before any spilled one, so they come
  // first, in group id order.
  std::vector<TablePtr> parts;
  BENTO_ASSIGN_OR_RETURN(auto folded, fold->Finish(aggs));
  if (folded != nullptr) parts.push_back(std::move(folded));
  fold.reset();
  if (store != nullptr) {
    // Each spilled key is folded over all its rows in stream order, and the
    // first stream position orders those groups as first seen.
    BENTO_TRACE_SPAN(kEngine, "groupby.spill_fold");
    std::vector<TablePtr> spilled;
    for (int p = 0; p < n_partitions; ++p) {
      BENTO_ASSIGN_OR_RETURN(
          auto part, FoldSpilledPartition(store.get(), p, keys, aggs));
      if (part != nullptr) spilled.push_back(std::move(part));
    }
    store.reset();
    if (!spilled.empty()) {
      BENTO_ASSIGN_OR_RETURN(auto all, col::ConcatTablesReleasing(&spilled));
      BENTO_ASSIGN_OR_RETURN(auto ordered, RestoreSeqOrder(all));
      parts.push_back(std::move(ordered));
    }
  }
  if (parts.empty()) {
    // Every mapped chunk was empty (a filter kept no row).
    BENTO_ASSIGN_OR_RETURN(auto empty, EmptyInput(empty_chunk));
    return kern::GroupBy(empty, keys, aggs);
  }
  return col::ConcatTablesReleasing(&parts);
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
  // The workers hash; the fold keeps each row whose key is first seen, in
  // strict stream order, so the kept rows are identical for any worker
  // count: the filter kern::DropDuplicates runs, across chunks.
  ParallelPipelineDriver hashed_stream(
      input,
      [&subset, pre_map = options.pre_map](TablePtr chunk) {
        return HashKeys(std::move(chunk), subset, pre_map);
      },
      options.pipeline);
  StreamGrouper grouper(subset);
  std::vector<int64_t> groups;
  TablePtr empty_chunk;  // first zero-row mapped chunk
  while (true) {
    BENTO_ASSIGN_OR_RETURN(auto chunk, hashed_stream.Next());
    if (chunk == nullptr) break;
    if (chunk->num_rows() == 0) {
      if (empty_chunk == nullptr) empty_chunk = std::move(chunk);
      continue;
    }
    BENTO_ASSIGN_OR_RETURN(auto hash_column, chunk->GetColumn(kHashColumn));
    BENTO_ASSIGN_OR_RETURN(chunk, chunk->DropColumns({kHashColumn}));
    BENTO_RETURN_NOT_OK(
        grouper.Assign(chunk, hash_column->int64_data(), true, &groups));
  }
  if (options.chunks_claimed != nullptr) {
    *options.chunks_claimed = hashed_stream.chunks_claimed();
  }
  if (grouper.num_groups() == 0) {
    // Every mapped chunk was empty (a filter kept no row).
    BENTO_ASSIGN_OR_RETURN(auto empty, EmptyInput(empty_chunk));
    return kern::DropDuplicates(empty, subset);
  }
  return grouper.TakeKept();
}

Result<TablePtr> StreamingPivot(ChunkStream* input, const frame::Op& op,
                                const ExecPolicy& policy,
                                const StreamingGroupByOptions& options) {
  // Aggregate down to one row per (index, columns) pair, then pivot the
  // small result in memory.
  constexpr const char* kCell = "__pivot_value";
  std::vector<AggSpec> aggs = {AggSpec{op.pivot_values, op.pivot_agg, kCell}};
  BENTO_ASSIGN_OR_RETURN(
      auto grouped,
      StreamingGroupBy(input, {op.pivot_index, op.pivot_columns}, aggs,
                       policy, options));
  if (op.pivot_agg == AggKind::kCount) {
    // The kernel leaves a cell with no counted value null, not 0.
    BENTO_ASSIGN_OR_RETURN(auto counts, grouped->GetColumn(kCell));
    col::Int64Builder b;
    b.Reserve(counts->length());
    for (int64_t i = 0; i < counts->length(); ++i) {
      b.AppendMaybe(counts->int64_data()[i], counts->int64_data()[i] > 0);
    }
    BENTO_ASSIGN_OR_RETURN(auto nonzero, b.Finish());
    BENTO_ASSIGN_OR_RETURN(grouped, grouped->SetColumn(kCell, nonzero));
  }
  // Cell groups are unique, and the max of one value is that value, bit
  // for bit.
  BENTO_ASSIGN_OR_RETURN(
      auto pivoted, kern::PivotTable(grouped, op.pivot_index,
                                     op.pivot_columns, kCell, AggKind::kMax));
  // Cells are named as the kernel names them: "<values>_<label>".
  const std::string prefix = std::string(kCell) + "_";
  std::vector<std::pair<std::string, std::string>> renames;
  for (const std::string& name : pivoted->schema()->names()) {
    if (name.rfind(prefix, 0) == 0) {
      renames.emplace_back(name,
                           op.pivot_values + "_" + name.substr(prefix.size()));
    }
  }
  return pivoted->RenameColumns(renames);
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

  int64_t probe_rows = 0;       // rows before the current chunk
  TablePtr typed_empty_probe;  // zero-row probe chunk, for schema fallbacks
  while (true) {
    BENTO_ASSIGN_OR_RETURN(auto chunk, probe->Next());
    if (chunk == nullptr) break;
    BENTO_ASSIGN_OR_RETURN(auto with_seq, AttachSeqColumn(chunk, probe_rows));
    probe_rows += chunk->num_rows();
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
  kern::MeanFold fold;
  while (true) {
    BENTO_ASSIGN_OR_RETURN(auto chunk, input->Next());
    if (chunk == nullptr) break;
    BENTO_ASSIGN_OR_RETURN(auto c, chunk->GetColumn(column));
    BENTO_RETURN_NOT_OK(fold.Add(c));
  }
  return fold.Mean();
}

}  // namespace bento::eng
