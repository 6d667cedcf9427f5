#include "kernels/join.h"

#include <algorithm>

#include "kernels/flat_index.h"
#include "kernels/row_hash.h"
#include "kernels/selection.h"
#include "obs/metrics.h"

namespace bento::kern {

namespace {

Result<TablePtr> SpliceJoinColumns(const TablePtr& left_out,
                                   const TablePtr& right_out,
                                   const std::string& right_suffix) {
  std::vector<col::Field> fields = left_out->schema()->fields();
  std::vector<ArrayPtr> columns = left_out->columns();
  for (int c = 0; c < right_out->num_columns(); ++c) {
    col::Field f = right_out->schema()->field(c);
    if (left_out->schema()->Contains(f.name)) f.name += right_suffix;
    fields.push_back(std::move(f));
    columns.push_back(right_out->column(c));
  }
  return Table::Make(std::make_shared<col::Schema>(std::move(fields)),
                     std::move(columns));
}

Result<TablePtr> AssembleJoin(const TablePtr& left, const TablePtr& right,
                              const std::string& right_key,
                              const std::vector<int64_t>& left_rows,
                              const std::vector<int64_t>& right_rows,
                              const std::string& right_suffix) {
  BENTO_ASSIGN_OR_RETURN(auto left_out, TakeTable(left, left_rows));
  BENTO_ASSIGN_OR_RETURN(auto right_sel, right->DropColumns({right_key}));
  BENTO_ASSIGN_OR_RETURN(auto right_out, TakeTable(right_sel, right_rows));
  return SpliceJoinColumns(left_out, right_out, right_suffix);
}

/// Parallel twin of AssembleJoin: the sized gathers fan out as morsel
/// copies (TakeTableParallel) instead of running on one thread.
Result<TablePtr> AssembleJoinParallel(const TablePtr& left,
                                      const TablePtr& right,
                                      const std::string& right_key,
                                      const std::vector<int64_t>& left_rows,
                                      const std::vector<int64_t>& right_rows,
                                      const std::string& right_suffix,
                                      const sim::ParallelOptions& parallel) {
  BENTO_ASSIGN_OR_RETURN(auto left_out,
                         TakeTableParallel(left, left_rows, parallel));
  BENTO_ASSIGN_OR_RETURN(auto right_sel, right->DropColumns({right_key}));
  BENTO_ASSIGN_OR_RETURN(auto right_out,
                         TakeTableParallel(right_sel, right_rows, parallel));
  return SpliceJoinColumns(left_out, right_out, right_suffix);
}

/// Probes rows [begin, end) of the left table against the build index and
/// appends match pairs (first-seen order: left row major, right chain minor).
void ProbeRange(const FlatIndex& index, const std::vector<uint64_t>& left_hashes,
                const Array& left_key_col, const RowEquality& equal,
                JoinType type, int64_t begin, int64_t end,
                std::vector<int64_t>* left_rows,
                std::vector<int64_t>* right_rows) {
  for (int64_t i = begin; i < end; ++i) {
    bool matched = false;
    if (!left_key_col.IsNull(i)) {
      int64_t j = index.Find(left_hashes[static_cast<size_t>(i)],
                             [&](int64_t row) { return equal.Equal(i, row); });
      for (; j != FlatIndex::kNone; j = index.Next(j)) {
        left_rows->push_back(i);
        right_rows->push_back(j);
        matched = true;
      }
    }
    if (!matched && type == JoinType::kLeft) {
      left_rows->push_back(i);
      right_rows->push_back(-1);
    }
  }
}

}  // namespace

Result<TablePtr> HashJoin(const TablePtr& left, const TablePtr& right,
                          const std::string& left_key,
                          const std::string& right_key,
                          const JoinOptions& options) {
  BENTO_TRACE_SPAN(kKernel, "join.hash");
  BENTO_ASSIGN_OR_RETURN(auto right_hashes, HashRows(right, {right_key}));
  BENTO_ASSIGN_OR_RETURN(auto left_hashes, HashRows(left, {left_key}));
  BENTO_ASSIGN_OR_RETURN(
      auto equal, RowEquality::Make(left, {left_key}, right, {right_key}));
  BENTO_ASSIGN_OR_RETURN(
      auto build_equal, RowEquality::Make(right, {right_key}, right, {right_key}));
  BENTO_ASSIGN_OR_RETURN(auto right_key_col, right->GetColumn(right_key));
  BENTO_ASSIGN_OR_RETURN(auto left_key_col, left->GetColumn(left_key));

  FlatIndex index;
  index.Build(
      right_hashes,
      [&](int64_t j) { return !right_key_col->IsNull(j); },  // nulls never match
      [&](int64_t a, int64_t b) { return build_equal.Equal(a, b); });

  std::vector<int64_t> left_rows;
  std::vector<int64_t> right_rows;
  ProbeRange(index, left_hashes, *left_key_col, equal, options.type, 0,
             left->num_rows(), &left_rows, &right_rows);
  return AssembleJoin(left, right, right_key, left_rows, right_rows,
                      options.right_suffix);
}

Result<TablePtr> HashJoinParallel(const TablePtr& left, const TablePtr& right,
                                  const std::string& left_key,
                                  const std::string& right_key,
                                  const JoinOptions& options,
                                  const sim::ParallelOptions& parallel) {
  BENTO_TRACE_SPAN(kKernel, "join.hash_parallel");
  const int workers = sim::ResolveWorkers(parallel);
  // Morsel-sized probe chunks: task count follows the data, not n/workers,
  // so the pool can steal across skewed match densities.
  auto ranges = sim::MorselRanges(left->num_rows(), workers);
  if ((workers <= 1 || ranges.size() <= 1) &&
      FlatIndex::PlanPartitions(right->num_rows(), parallel) <= 1) {
    return HashJoin(left, right, left_key, right_key, options);
  }

  // Parallel hash + radix-partitioned parallel build, parallel probe over
  // left chunks. Output order is identical to the serial path: probes emit
  // per-chunk in left-row order and chunks concatenate in range order.
  BENTO_ASSIGN_OR_RETURN(auto right_hashes,
                         HashRowsParallel(right, {right_key}, parallel));
  BENTO_ASSIGN_OR_RETURN(auto left_hashes,
                         HashRowsParallel(left, {left_key}, parallel));
  BENTO_ASSIGN_OR_RETURN(
      auto equal, RowEquality::Make(left, {left_key}, right, {right_key}));
  BENTO_ASSIGN_OR_RETURN(
      auto build_equal, RowEquality::Make(right, {right_key}, right, {right_key}));
  BENTO_ASSIGN_OR_RETURN(auto right_key_col, right->GetColumn(right_key));
  BENTO_ASSIGN_OR_RETURN(auto left_key_col, left->GetColumn(left_key));

  FlatIndex index;
  BENTO_RETURN_NOT_OK(index.BuildPartitioned(
      right_hashes, [&](int64_t j) { return !right_key_col->IsNull(j); },
      [&](int64_t a, int64_t b) { return build_equal.Equal(a, b); }, parallel));

  std::vector<std::vector<int64_t>> chunk_left(ranges.size());
  std::vector<std::vector<int64_t>> chunk_right(ranges.size());
  BENTO_RETURN_NOT_OK(sim::ParallelFor(
      static_cast<int64_t>(ranges.size()),
      [&](int64_t r) {
        auto [b, e] = ranges[static_cast<size_t>(r)];
        // ~1 match per probe row is the common shape; over-reserve slightly
        // so the emit loop rarely reallocates.
        chunk_left[static_cast<size_t>(r)].reserve(static_cast<size_t>(e - b));
        chunk_right[static_cast<size_t>(r)].reserve(static_cast<size_t>(e - b));
        ProbeRange(index, left_hashes, *left_key_col, equal, options.type, b, e,
                   &chunk_left[static_cast<size_t>(r)],
                   &chunk_right[static_cast<size_t>(r)]);
        return Status::OK();
      },
      parallel));

  // Prefix-sum the per-chunk match counts, then copy every chunk into its
  // disjoint slice of the exact-size pair vectors in parallel. Chunk order =
  // left-row order, so the output ordering matches the serial probe.
  std::vector<size_t> offsets(ranges.size() + 1, 0);
  for (size_t r = 0; r < ranges.size(); ++r) {
    offsets[r + 1] = offsets[r] + chunk_left[r].size();
  }
  std::vector<int64_t> left_rows(offsets.back());
  std::vector<int64_t> right_rows(offsets.back());
  BENTO_RETURN_NOT_OK(sim::ParallelFor(
      static_cast<int64_t>(ranges.size()),
      [&](int64_t r) {
        const auto& cl = chunk_left[static_cast<size_t>(r)];
        const auto& cr = chunk_right[static_cast<size_t>(r)];
        std::copy(cl.begin(), cl.end(),
                  left_rows.begin() + static_cast<int64_t>(offsets[static_cast<size_t>(r)]));
        std::copy(cr.begin(), cr.end(),
                  right_rows.begin() + static_cast<int64_t>(offsets[static_cast<size_t>(r)]));
        return Status::OK();
      },
      parallel));
  static obs::Counter* c_pairs =
      obs::MetricsRegistry::Global().counter("join.probe.pairs");
  c_pairs->Add(static_cast<uint64_t>(offsets.back()));
  return AssembleJoinParallel(left, right, right_key, left_rows, right_rows,
                              options.right_suffix, parallel);
}

}  // namespace bento::kern
