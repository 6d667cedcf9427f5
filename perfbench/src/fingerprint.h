#ifndef PERFBENCH_FINGERPRINT_H_
#define PERFBENCH_FINGERPRINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "columnar/table.h"

namespace perfbench {

/// \brief Order-insensitive summary of one output column.
struct ColumnPrint {
  std::string name;
  int64_t nulls = 0;  ///< null cells; NaN counts as null
  bool numeric = false;
  /// Numeric columns (int64, float64, bool, timestamp): sum and sum of
  /// absolute values of the non-null cells.
  long double sum = 0.0L;
  long double abs_sum = 0.0L;
  /// String and categorical columns: wrapping sum of a 64-bit hash of each
  /// non-null value, so row order does not matter.
  uint64_t string_hash = 0;
};

/// \brief What the output check compares: row count, column names in order,
/// and one ColumnPrint per column. Columns are compared by value, not by
/// physical type, so a categorical and a plain string column holding the
/// same strings match, as do int64 and float64 columns with equal sums.
struct Fingerprint {
  int64_t rows = 0;
  std::vector<ColumnPrint> columns;
};

Fingerprint TakeFingerprint(const bento::col::Table& table);

/// Relative tolerance on numeric sums, as a share of the larger sum of
/// absolute values; it absorbs summation-order differences only.
inline constexpr double kSumRelTolerance = 1e-9;

/// \brief Empty when `actual` matches `expected`; otherwise a one-line
/// description of the first difference.
std::string CompareFingerprints(const Fingerprint& expected,
                                const Fingerprint& actual,
                                double rel_tolerance = kSumRelTolerance);

}  // namespace perfbench

#endif  // PERFBENCH_FINGERPRINT_H_
