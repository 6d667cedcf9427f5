#include "frame/op.h"

#include <iterator>

namespace bento::frame {

namespace {

using enum OpKind;
using enum StreamClass;
using enum ColumnSel;
using enum sim::KernelClass;

// One row per kind, in enum order: kind, name, stream class, the columns it
// reads and writes, and its device kernel class (a row-wise apply is scalar:
// at the UDF boundary a GPU does not help).
constexpr OpTraits kOpTraits[] = {
    {kIsNa,           "isna",     kAction,    kUnknown,  kNone,    kVector},
    {kLocateOutliers, "outlier",  kAction,    kColumn,   kNone,    kVector},
    {kSearchPattern,  "srchptn",  kAction,    kColumn,   kNone,    kString},
    {kSortValues,     "sort",     kReorder,   kSortKeys, kNone,    kSort},
    {kGetColumns,     "gcols",    kAction,    kNone,     kNone,    kScalar},
    {kGetDtypes,      "dtypes",   kAction,    kNone,     kNone,    kScalar},
    {kDescribe,       "stats",    kAction,    kUnknown,  kNone,    kVector},
    {kQuery,          "query",    kRowFilter, kExpr,     kNone,    kVector},
    {kCast,           "astype",   kRowMap,    kColumn,   kColumn,  kVector},
    {kDropColumns,    "drop",     kRowMap,    kNone,     kColumns, kVector},
    {kRename,         "rename",   kRowMap,    kUnknown,  kUnknown, kVector},
    {kPivot,          "pivot",    kBreaker,   kUnknown,  kUnknown, kSort},
    {kApplyExpr,      "apply",    kRowMap,    kExpr,     kNewName, kVector},
    {kMerge,          "merge",    kBreaker,   kUnknown,  kUnknown, kSort},
    {kGetDummies,     "onehot",   kTwoPass,   kColumn,   kUnknown, kString},
    {kCatCodes,       "catenc",   kTwoPass,   kColumn,   kColumn,  kString},
    {kGroupByAgg,     "groupby",  kBreaker,   kUnknown,  kUnknown, kSort},
    {kToDatetime,     "chdate",   kRowMap,    kColumn,   kColumn,  kString},
    {kDropNa,         "dropna",   kRowFilter, kSubset,   kNone,    kVector},
    {kStrLower,       "lower",    kRowMap,    kColumn,   kColumn,  kString},
    {kRound,          "round",    kRowMap,    kColumn,   kColumn,  kVector},
    {kDropDuplicates, "dedup",    kBreaker,   kSubset,   kNone,    kSort},
    {kFillNa,         "fillna",   kRowMap,    kColumn,   kColumn,  kVector},
    {kReplace,        "replace",  kRowMap,    kColumn,   kColumn,  kString},
    {kApplyRow,       "applyrow", kRowMap,    kUnknown,  kNewName, kScalar},
};

static_assert(
    [] {
      if (std::size(kOpTraits) != kNumOpKinds) return false;
      for (size_t k = 0; k < kNumOpKinds; ++k) {
        if (static_cast<size_t>(kOpTraits[k].kind) != k) return false;
      }
      return true;
    }(),
    "kOpTraits needs one row per OpKind, in enum order");

}  // namespace

const OpTraits& TraitsOf(OpKind kind) {
  return kOpTraits[static_cast<int>(kind)];
}

bool IsAction(OpKind kind) { return TraitsOf(kind).stream == kAction; }

const char* OpKindName(OpKind kind) { return TraitsOf(kind).name; }

Result<OpKind> OpKindFromName(std::string_view name) {
  for (const OpTraits& row : kOpTraits) {
    if (name == row.name) return row.kind;
  }
  return Status::Invalid("unknown op '", name, "'");
}

StreamClass StreamClassOf(const Op& op) {
  // The column mean is a global fact: the fill waits for a full pass.
  if (op.kind == OpKind::kFillNa && op.fill_with_mean) return kTwoPass;
  return TraitsOf(op.kind).stream;
}

Op Op::IsNa() {
  Op op;
  op.kind = OpKind::kIsNa;
  return op;
}

Op Op::LocateOutliers(std::string column, double lower_q, double upper_q) {
  Op op;
  op.kind = OpKind::kLocateOutliers;
  op.column = std::move(column);
  op.lower_q = lower_q;
  op.upper_q = upper_q;
  return op;
}

Op Op::SearchPattern(std::string column, std::string pattern) {
  Op op;
  op.kind = OpKind::kSearchPattern;
  op.column = std::move(column);
  op.text = std::move(pattern);
  return op;
}

Op Op::SortValues(std::vector<kern::SortKey> keys) {
  Op op;
  op.kind = OpKind::kSortValues;
  op.sort_keys = std::move(keys);
  return op;
}

Op Op::GetColumns() {
  Op op;
  op.kind = OpKind::kGetColumns;
  return op;
}

Op Op::GetDtypes() {
  Op op;
  op.kind = OpKind::kGetDtypes;
  return op;
}

Op Op::Describe() {
  Op op;
  op.kind = OpKind::kDescribe;
  return op;
}

Op Op::Query(std::string predicate) {
  Op op;
  op.kind = OpKind::kQuery;
  op.text = std::move(predicate);
  return op;
}

Op Op::Cast(std::string column, col::TypeId type) {
  Op op;
  op.kind = OpKind::kCast;
  op.column = std::move(column);
  op.type = type;
  return op;
}

Op Op::DropColumns(std::vector<std::string> columns) {
  Op op;
  op.kind = OpKind::kDropColumns;
  op.columns = std::move(columns);
  return op;
}

Op Op::Rename(std::vector<std::pair<std::string, std::string>> renames) {
  Op op;
  op.kind = OpKind::kRename;
  op.renames = std::move(renames);
  return op;
}

Op Op::Pivot(std::string index, std::string columns, std::string values,
             kern::AggKind agg) {
  Op op;
  op.kind = OpKind::kPivot;
  op.pivot_index = std::move(index);
  op.pivot_columns = std::move(columns);
  op.pivot_values = std::move(values);
  op.pivot_agg = agg;
  return op;
}

Op Op::ApplyExpr(std::string new_name, std::string expression) {
  Op op;
  op.kind = OpKind::kApplyExpr;
  op.new_name = std::move(new_name);
  op.text = std::move(expression);
  return op;
}

Op Op::Merge(std::shared_ptr<DataFrame> other, std::string left_key,
             std::string right_key, kern::JoinType type) {
  Op op;
  op.kind = OpKind::kMerge;
  op.other = std::move(other);
  op.left_key = std::move(left_key);
  op.right_key = std::move(right_key);
  op.join_type = type;
  return op;
}

Op Op::GetDummies(std::string column) {
  Op op;
  op.kind = OpKind::kGetDummies;
  op.column = std::move(column);
  return op;
}

Op Op::CatCodes(std::string column) {
  Op op;
  op.kind = OpKind::kCatCodes;
  op.column = std::move(column);
  return op;
}

Op Op::GroupByAgg(std::vector<std::string> keys,
                  std::vector<kern::AggSpec> aggs) {
  Op op;
  op.kind = OpKind::kGroupByAgg;
  op.columns = std::move(keys);
  op.aggs = std::move(aggs);
  return op;
}

Op Op::ToDatetime(std::string column) {
  Op op;
  op.kind = OpKind::kToDatetime;
  op.column = std::move(column);
  return op;
}

Op Op::DropNa(std::vector<std::string> subset) {
  Op op;
  op.kind = OpKind::kDropNa;
  op.columns = std::move(subset);
  return op;
}

Op Op::StrLower(std::string column) {
  Op op;
  op.kind = OpKind::kStrLower;
  op.column = std::move(column);
  return op;
}

Op Op::Round(std::string column, int decimals) {
  Op op;
  op.kind = OpKind::kRound;
  op.column = std::move(column);
  op.decimals = decimals;
  return op;
}

Op Op::DropDuplicates(std::vector<std::string> subset) {
  Op op;
  op.kind = OpKind::kDropDuplicates;
  op.columns = std::move(subset);
  return op;
}

Op Op::FillNa(std::string column, col::Scalar value) {
  Op op;
  op.kind = OpKind::kFillNa;
  op.column = std::move(column);
  op.scalar_a = std::move(value);
  return op;
}

Op Op::FillNaMean(std::string column) {
  Op op;
  op.kind = OpKind::kFillNa;
  op.column = std::move(column);
  op.fill_with_mean = true;
  return op;
}

Op Op::Replace(std::string column, col::Scalar from, col::Scalar to) {
  Op op;
  op.kind = OpKind::kReplace;
  op.column = std::move(column);
  op.scalar_a = std::move(from);
  op.scalar_b = std::move(to);
  return op;
}

Op Op::ApplyRow(std::string new_name, kern::RowFn fn, col::TypeId out_type) {
  Op op;
  op.kind = OpKind::kApplyRow;
  op.new_name = std::move(new_name);
  op.row_fn = std::move(fn);
  op.row_fn_type = out_type;
  return op;
}

}  // namespace bento::frame
