#ifndef BENTO_KERNELS_STATS_H_
#define BENTO_KERNELS_STATS_H_

#include <vector>

#include "kernels/common.h"
#include "sim/parallel.h"

namespace bento::kern {

/// \brief Single aggregate of one column (nulls and NaN skipped).
/// Returns a null scalar for empty/all-null inputs (count returns 0).
Result<Scalar> Aggregate(const ArrayPtr& values, AggKind kind);

/// \brief q-th quantile (0 <= q <= 1) of a numeric column by linear
/// interpolation between the order statistics of its non-null, non-NaN
/// values in the total order with -0.0 < +0.0 (the NumPy default used by
/// the outlier-locating preparator), found by selection as numpy's
/// partition does; a position on an order statistic returns it.
Result<double> Quantile(const ArrayPtr& values, double q);

/// \brief Quantile at each of `qs`, selected from one copy of the values.
Result<std::vector<double>> Quantiles(const ArrayPtr& values,
                                      const std::vector<double>& qs);

/// \brief Single-pass histogram quantile: min/max scan + 2048-bin counting
/// pass, interpolated within the hit bin. O(n) time, O(1) extra memory —
/// the streaming approximation the optimized engines use where the Pandas
/// model pays a copy + selection. Error bounded by one bin width.
Result<double> QuantileApprox(const ArrayPtr& values, double q);

/// \brief Chunk-parallel streaming aggregate: partial moments per chunk
/// (via sim::ParallelFor), merged exactly. Used by the multithreaded and
/// streaming engines.
Result<Scalar> AggregateParallel(const ArrayPtr& values, AggKind kind,
                                 const sim::ParallelOptions& options = {});

/// \brief `describe()`: one row per numeric column with
/// count/mean/std/min/25%/50%/75%/max. `approx_quantiles` switches the
/// percentile rows to the streaming histogram estimate.
Result<TablePtr> Describe(const TablePtr& table, bool approx_quantiles = false);

/// \brief Column-parallel describe: per-column statistics computed as
/// independent tasks through sim::ParallelFor — the multithreading that
/// makes Modin the paper's fastest engine at `describe` on wide tables.
Result<TablePtr> DescribeParallel(const TablePtr& table, bool approx_quantiles,
                                  const sim::ParallelOptions& options = {});

}  // namespace bento::kern

#endif  // BENTO_KERNELS_STATS_H_
