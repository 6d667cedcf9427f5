#ifndef BENTO_FRAME_OP_H_
#define BENTO_FRAME_OP_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "columnar/scalar.h"
#include "kernels/apply.h"
#include "kernels/common.h"
#include "sim/device.h"
#include "util/result.h"

namespace bento::frame {

class DataFrame;

/// \brief The 27 preparators of the paper's Table II (I/O lives on Engine).
///
/// Transforms produce a new frame; actions (EDA inspections) produce an
/// ActionResult and leave the frame unchanged. Lazy engines record
/// transforms into a logical plan and force it at actions / Collect().
enum class OpKind {
  // --- EDA (actions except kSortValues / kQuery) ---
  kIsNa,            ///< locate missing values: per-column null counts
  kLocateOutliers,  ///< percentile bounds + count of rows outside them
  kSearchPattern,   ///< str.contains: number of matching rows
  kSortValues,      ///< sort (transform)
  kGetColumns,      ///< column list
  kGetDtypes,       ///< column types
  kDescribe,        ///< summary statistics table
  kQuery,           ///< filter rows by a predicate string (transform)
  // --- Data transformation ---
  kCast,            ///< astype
  kDropColumns,     ///< drop
  kRename,          ///< rename
  kPivot,           ///< pivot_table (transform: result replaces frame)
  kApplyExpr,       ///< calculate column using expressions (column-wise apply)
  kMerge,           ///< join dataframes
  kGetDummies,      ///< one-hot encoding
  kCatCodes,        ///< categorical encoding
  kGroupByAgg,      ///< group dataframe (transform: aggregated frame)
  kToDatetime,      ///< change date & time format
  // --- Data cleaning ---
  kDropNa,          ///< delete empty and invalid rows
  kStrLower,        ///< set content case
  kRound,           ///< normalize numeric values
  kDropDuplicates,  ///< deduplicate rows
  kFillNa,          ///< fill empty cells
  kReplace,         ///< replace values occurrences
  kApplyRow,        ///< edit & replace cell data (row-wise apply)
};

/// Number of kinds; kApplyRow is the last enumerator.
constexpr size_t kNumOpKinds = static_cast<size_t>(OpKind::kApplyRow) + 1;

/// \brief How an op meets a stream of row chunks.
enum class StreamClass {
  kAction,     ///< EDA inspection: folds the frame into an ActionResult
  kRowMap,     ///< each chunk maps to one chunk with the same rows
  kRowFilter,  ///< each chunk maps to a subset of its rows
  kReorder,    ///< needs every row to order them (sort)
  kTwoPass,    ///< a global pass, then a per-chunk map (encodings, mean)
  kBreaker,    ///< needs every row and reshapes the frame
};

/// \brief The Op field that names a set of columns an op reads or writes.
enum class ColumnSel {
  kNone,      ///< no column
  kColumn,    ///< `column`
  kColumns,   ///< `columns`
  kSubset,    ///< `columns`, where empty means every column
  kNewName,   ///< `new_name`
  kSortKeys,  ///< the `sort_keys` columns
  kExpr,      ///< the columns the `text` expression names
  kUnknown,   ///< not nameable from the op's fields
};

/// \brief The per-kind facts every engine model needs: one row per kind.
struct OpTraits {
  OpKind kind;
  const char* name;  ///< stable snake_case name, used by JSON and reports
  StreamClass stream;
  ColumnSel reads;
  ColumnSel writes;
  sim::KernelClass device;  ///< the kernel family it runs as on a GPU
};

/// \brief The row of `kind` in the op-traits table.
const OpTraits& TraitsOf(OpKind kind);

/// \brief True for EDA inspections that return data instead of a new frame.
bool IsAction(OpKind kind);

/// \brief Stable snake_case name ("isna", "sort", ...), used by pipeline
/// JSON specs and reports.
const char* OpKindName(OpKind kind);

/// \brief The kind whose stable name is `name`; Invalid for any other name.
Result<OpKind> OpKindFromName(std::string_view name);

/// \brief One preparator application. A tagged union: each kind reads the
/// fields its factory sets. Build with the factories below.
struct Op {
  OpKind kind = OpKind::kIsNa;

  std::string column;                    // primary column
  std::vector<std::string> columns;      // subset / keys / drop list
  std::string text;                      // pattern / query / expression
  std::string new_name;                  // new column name
  std::vector<std::pair<std::string, std::string>> renames;
  std::vector<kern::SortKey> sort_keys;
  std::vector<kern::AggSpec> aggs;
  col::Scalar scalar_a;                  // fill value / replace-from
  col::Scalar scalar_b;                  // replace-to
  bool fill_with_mean = false;
  int decimals = 2;
  double lower_q = 0.01;
  double upper_q = 0.99;
  col::TypeId type = col::TypeId::kFloat64;
  kern::AggKind pivot_agg = kern::AggKind::kMean;
  std::string pivot_index, pivot_columns, pivot_values;
  kern::JoinType join_type = kern::JoinType::kInner;
  std::string left_key, right_key;
  std::shared_ptr<DataFrame> other;      // merge right side
  kern::RowFn row_fn;                    // row-wise apply body
  col::TypeId row_fn_type = col::TypeId::kFloat64;

  // --- factories ---
  static Op IsNa();
  static Op LocateOutliers(std::string column, double lower_q = 0.01,
                           double upper_q = 0.99);
  static Op SearchPattern(std::string column, std::string pattern);
  static Op SortValues(std::vector<kern::SortKey> keys);
  static Op GetColumns();
  static Op GetDtypes();
  static Op Describe();
  static Op Query(std::string predicate);
  static Op Cast(std::string column, col::TypeId type);
  static Op DropColumns(std::vector<std::string> columns);
  static Op Rename(std::vector<std::pair<std::string, std::string>> renames);
  static Op Pivot(std::string index, std::string columns, std::string values,
                  kern::AggKind agg = kern::AggKind::kMean);
  static Op ApplyExpr(std::string new_name, std::string expression);
  static Op Merge(std::shared_ptr<DataFrame> other, std::string left_key,
                  std::string right_key,
                  kern::JoinType type = kern::JoinType::kInner);
  static Op GetDummies(std::string column);
  static Op CatCodes(std::string column);
  static Op GroupByAgg(std::vector<std::string> keys,
                       std::vector<kern::AggSpec> aggs);
  static Op ToDatetime(std::string column);
  static Op DropNa(std::vector<std::string> subset = {});
  static Op StrLower(std::string column);
  static Op Round(std::string column, int decimals);
  static Op DropDuplicates(std::vector<std::string> subset = {});
  static Op FillNa(std::string column, col::Scalar value);
  static Op FillNaMean(std::string column);
  static Op Replace(std::string column, col::Scalar from, col::Scalar to);
  static Op ApplyRow(std::string new_name, kern::RowFn fn,
                     col::TypeId out_type);
};

/// \brief The stream class of `op`: its kind's, except that a fillna with
/// the column mean is two-pass.
StreamClass StreamClassOf(const Op& op);

/// \brief Output of an action preparator.
struct ActionResult {
  col::TablePtr table;                    // describe output
  std::vector<std::string> names;         // column list / dtype names
  std::vector<col::TypeId> types;         // dtypes
  std::vector<int64_t> counts;            // isna per-column counts
  int64_t count = 0;                      // pattern hits / outlier rows
  double lower_bound = 0.0;               // outlier bounds
  double upper_bound = 0.0;
};

}  // namespace bento::frame

#endif  // BENTO_FRAME_OP_H_
