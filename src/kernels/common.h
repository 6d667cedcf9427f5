#ifndef BENTO_KERNELS_COMMON_H_
#define BENTO_KERNELS_COMMON_H_

#include <string>
#include <vector>

#include "columnar/array.h"
#include "columnar/scalar.h"
#include "columnar/table.h"

namespace bento::kern {

using col::Array;
using col::ArrayPtr;
using col::Scalar;
using col::Table;
using col::TablePtr;
using col::TypeId;

/// \brief Aggregations supported by group-by, describe, and pivot.
enum class AggKind { kSum, kMean, kMin, kMax, kCount, kStd };

const char* AggName(AggKind kind);

/// \brief Comparison operators used by query predicates.
enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe };

enum class JoinType { kInner, kLeft };

/// \brief One sort key: column plus direction. Nulls always sort last.
struct SortKey {
  std::string column;
  bool ascending = true;
};

/// \brief One aggregation request: input column + function.
struct AggSpec {
  std::string column;
  AggKind kind;
  /// Output column name; defaults to "<column>_<agg>".
  std::string output_name;
};

}  // namespace bento::kern

#endif  // BENTO_KERNELS_COMMON_H_
