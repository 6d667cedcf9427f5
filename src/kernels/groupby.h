#ifndef BENTO_KERNELS_GROUPBY_H_
#define BENTO_KERNELS_GROUPBY_H_

#include <string>
#include <vector>

#include "kernels/common.h"
#include "sim/parallel.h"

namespace bento::kern {

/// \brief Accumulator for one (group, aggregation) pair. Tracks the moment
/// sums plus min/max/count so every AggKind can be finalized from one
/// struct; `rows` counts all rows routed to the group (kCount semantics
/// track non-null inputs through `count` instead).
struct AggState {
  double sum = 0.0;
  double sum_sq = 0.0;
  double min = 0.0;
  double max = 0.0;
  int64_t count = 0;  // non-null inputs seen
  int64_t rows = 0;   // all rows seen (for kCount)

  void Add(double v) {
    if (count == 0) {
      min = v;
      max = v;
    } else {
      if (v < min) min = v;
      if (v > max) max = v;
    }
    sum += v;
    sum_sq += v * v;
    ++count;
  }

  /// \brief Folds `other` into this state, where `other` accumulated rows
  /// that all come after this state's rows. min/max/count/rows compose
  /// exactly; sum and sum_sq compose by addition, which is bit-identical to
  /// serial accumulation whenever the operands are exactly representable
  /// (integer-valued inputs) and within 1 ulp per merge otherwise. No
  /// group-by merges states: each group is folded by exactly one AggFold,
  /// so no output depends on this rounding.
  void Merge(const AggState& other) {
    if (other.count > 0) {
      if (count == 0) {
        min = other.min;
        max = other.max;
      } else {
        if (other.min < min) min = other.min;
        if (other.max > max) max = other.max;
      }
    }
    sum += other.sum;
    sum_sq += other.sum_sq;
    count += other.count;
    rows += other.rows;
  }

  /// \brief Finalized value for `kind`; sets *is_null for empty groups
  /// (kStd additionally needs count >= 2).
  double Result(AggKind kind, bool* is_null) const;
};

/// \brief The per-group fold of every hash group-by: one AggState per
/// (group, aggregation) in a flat block, fed one row at a time and
/// finalized into the output columns. GroupBy, GroupByPartitioned and the
/// streaming group-by all aggregate through it, so a group fed the same
/// rows in the same order finalizes to the same bits on every path.
class AggFold {
 public:
  /// \brief Points the fold at `aggs`' input columns in `table`, whose rows
  /// Add reads until the next Bind; every Bind of one fold passes the same
  /// `aggs`. Rejects a column that cannot be aggregated with the same error
  /// on every path.
  Status Bind(const TablePtr& table, const std::vector<AggSpec>& aggs);

  /// \brief Feeds row `row` of the bound table into `group`; a group id
  /// equal to num_groups() opens a new group. Every row counts toward
  /// `rows`; valid non-NaN cells feed the moment sums (sentinel-null
  /// model), and valid string or categorical cells only `count`.
  void Add(int64_t group, int64_t row);

  int64_t num_groups() const { return num_groups_; }

  /// \brief Bytes the group states hold.
  int64_t ByteSize() const {
    return static_cast<int64_t>(states_.size() * sizeof(AggState));
  }

  /// \brief Group `group`'s block of one state per aggregation.
  const AggState* states(int64_t group) const {
    return states_.data() + static_cast<size_t>(group) * num_aggs_;
  }

  /// \brief `keys` (one row per group, in group id order) followed by one
  /// column per aggregation.
  Result<TablePtr> Finish(const TablePtr& keys,
                          const std::vector<AggSpec>& aggs) const;

  /// \brief `keys` followed by one column per aggregation, where
  /// `groups[g]` is the state block of output row g: kCount as int64, the
  /// rest as float64, null where the group has no value.
  static Result<TablePtr> Finish(const TablePtr& keys,
                                 const std::vector<AggSpec>& aggs,
                                 const std::vector<const AggState*>& groups);

 private:
  size_t num_aggs_ = 0;
  int64_t num_groups_ = 0;
  std::vector<ArrayPtr> inputs_;
  std::vector<AggState> states_;  // [group * num_aggs + agg]
};

/// \brief Hash group-by: groups `table` on `keys` and computes `aggs`.
///
/// Output schema: the key columns (one representative row per group, in
/// first-seen order) followed by one column per AggSpec. kCount outputs
/// int64; other aggregations output float64 and ignore nulls (Pandas
/// semantics: a group whose inputs are all null aggregates to null).
Result<TablePtr> GroupBy(const TablePtr& table,
                         const std::vector<std::string>& keys,
                         const std::vector<AggSpec>& aggs);

/// \brief Morsel-driven parallel group-by: rows are radix-partitioned on
/// the top key-hash bits (disjoint keys per partition), every partition
/// aggregates into a thread-local FlatGrouper + AggFold over
/// sim::ParallelFor, and a single-threaded pass orders the groups by their
/// first row. No partition tables are materialized. Output is row-for-row
/// bit-identical to GroupBy for any worker count and in both execution
/// modes: per-group accumulation follows global row order and groups are
/// emitted in global first-seen order. The shape used by the multithreaded
/// engines (Modin/Polars/DataTable/Spark).
Result<TablePtr> GroupByPartitioned(const TablePtr& table,
                                    const std::vector<std::string>& keys,
                                    const std::vector<AggSpec>& aggs,
                                    const sim::ParallelOptions& options = {});

/// \brief Default output name for an aggregation ("<col>_<agg>").
std::string DefaultAggName(const AggSpec& spec);

}  // namespace bento::kern

#endif  // BENTO_KERNELS_GROUPBY_H_
