#ifndef BENTO_KERNELS_NULL_OPS_H_
#define BENTO_KERNELS_NULL_OPS_H_

#include <string>
#include <vector>

#include "kernels/common.h"
#include "sim/parallel.h"

namespace bento::kern {

/// \brief Strategy for locating nulls; the engines' choice here reproduces
/// the paper's isna results.
///
///  - kMetadata: O(1) per column using the cached/bitmap null count and the
///    validity bits (the Arrow-backed model: Pandas2, Polars, CuDF).
///  - kScan: elementwise re-examination of values — NaN test for floats,
///    per-slot validity probe otherwise (the NumPy-backed Pandas model).
enum class NullProbe { kMetadata, kScan };

/// \brief Boolean mask that is true where `values` is null.
Result<ArrayPtr> IsNull(const ArrayPtr& values, NullProbe probe);

/// \brief Per-column null counts for a whole table (`isna().sum()`):
/// the common EDA call. Metadata probe popcounts bitmaps; scan probe visits
/// every value.
Result<std::vector<int64_t>> NullCounts(const TablePtr& table, NullProbe probe);

/// \brief Replaces nulls with `fill` (type-checked against the column).
Result<ArrayPtr> FillNull(const ArrayPtr& values, const Scalar& fill);

/// \brief The mean FillNullWithMean fills with: the valid non-NaN cells of
/// a float64 or int64 column added one by one in row order (the
/// sentinel-null rule of GroupBy and Aggregate). Adding a column's chunks
/// in order gives the whole column's mean bit for bit.
class MeanFold {
 public:
  /// Fails on a column that is neither float64 nor int64.
  Status Add(const ArrayPtr& values);

  /// The mean of the cells added so far; 0 when there is none.
  double Mean() const {
    return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0;
  }

 private:
  double sum_ = 0.0;
  int64_t count_ = 0;
};

/// \brief Replaces nulls in a numeric column with its MeanFold mean (the
/// `fillna(df.mean())` idiom used by the Kaggle pipelines); an int64
/// column takes the mean truncated toward zero.
Result<ArrayPtr> FillNullWithMean(const ArrayPtr& values);

/// \brief Drops rows that contain a null in any of `subset` columns
/// (all columns when `subset` is empty). The kept rows come from the AND of
/// the subset's validity bitmaps and go through FilterTableRows' gather
/// under `options`.
Result<TablePtr> DropNullRows(const TablePtr& table,
                              const std::vector<std::string>& subset,
                              const sim::ParallelOptions& options);

}  // namespace bento::kern

#endif  // BENTO_KERNELS_NULL_OPS_H_
