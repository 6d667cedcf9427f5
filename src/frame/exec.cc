#include "frame/exec.h"

#include <cmath>

#include "columnar/builder.h"
#include "expr/eval.h"
#include "obs/trace.h"
#include "expr/parser.h"
#include "frame/dataframe.h"
#include "kernels/arithmetic.h"
#include "kernels/cast.h"
#include "kernels/compare.h"
#include "kernels/datetime.h"
#include "kernels/dedup.h"
#include "kernels/encode.h"
#include "kernels/groupby.h"
#include "kernels/join.h"
#include "kernels/pivot.h"
#include "kernels/selection.h"
#include "kernels/sort.h"
#include "kernels/stats.h"

namespace bento::frame {

namespace {

using col::ArrayPtr;
using col::TablePtr;

/// RAII staging charge modeling boxed per-cell overhead of object-model
/// row iteration.
class StagingCharge {
 public:
  static Result<StagingCharge> Reserve(int64_t bytes) {
    StagingCharge charge;
    if (bytes > 0) {
      charge.pool_ = sim::MemoryPool::Current()->state();
      BENTO_RETURN_NOT_OK(charge.pool_->Reserve(static_cast<uint64_t>(bytes)));
      charge.bytes_ = static_cast<uint64_t>(bytes);
    }
    return charge;
  }

  StagingCharge() = default;
  StagingCharge(StagingCharge&& o) noexcept
      : pool_(o.pool_), bytes_(o.bytes_) {
    o.pool_ = nullptr;
    o.bytes_ = 0;
  }
  StagingCharge& operator=(StagingCharge&& o) noexcept {
    Release();
    pool_ = o.pool_;
    bytes_ = o.bytes_;
    o.pool_ = nullptr;
    o.bytes_ = 0;
    return *this;
  }
  StagingCharge(const StagingCharge&) = delete;
  StagingCharge& operator=(const StagingCharge&) = delete;
  ~StagingCharge() { Release(); }

 private:
  void Release() {
    if (pool_ != nullptr && bytes_ > 0) pool_->Release(bytes_);
    pool_ = nullptr;
    bytes_ = 0;
  }

  // Shared accounting state, kept alive past the owning pool (same
  // rationale as col::Buffer).
  std::shared_ptr<sim::MemoryPool::State> pool_;
  uint64_t bytes_ = 0;
};

Result<TablePtr> MaybeCopy(Result<TablePtr> result, const ExecPolicy& policy) {
  if (!result.ok() || !policy.copy_outputs) return result;
  return DeepCopyTable(result.ValueOrDie());
}

Result<TablePtr> DoSort(const TablePtr& table, const Op& op,
                        const ExecPolicy& policy) {
  if (policy.parallel) {
    BENTO_ASSIGN_OR_RETURN(
        auto indices,
        kern::ArgSortParallel(table, op.sort_keys, policy.parallel_options));
    return kern::TakeTableParallel(table, indices, policy.parallel_options);
  }
  return kern::SortTable(table, op.sort_keys);
}

/// The row filters' fan-out: the engine's pool when it runs parallel
/// kernels, one worker otherwise, so a serial engine's filters stay serial.
sim::ParallelOptions FilterOptions(const ExecPolicy& policy) {
  return policy.parallel ? policy.parallel_options : sim::OneWorker();
}

Result<TablePtr> DoQuery(const TablePtr& table, const Op& op,
                         const ExecPolicy& policy) {
  BENTO_ASSIGN_OR_RETURN(auto expr, expr::ParseExpr(op.text));
  BENTO_ASSIGN_OR_RETURN(auto mask, expr::Evaluate(expr, table));
  if (mask->type() != col::TypeId::kBool) {
    return Status::TypeError("query predicate must be boolean: ", op.text);
  }
  return kern::FilterTable(table, mask, FilterOptions(policy));
}

Result<TablePtr> DoApplyExpr(const TablePtr& table, const Op& op) {
  BENTO_ASSIGN_OR_RETURN(auto expr, expr::ParseExpr(op.text));
  BENTO_ASSIGN_OR_RETURN(auto values, expr::Evaluate(expr, table));
  return table->SetColumn(op.new_name, values);
}

Result<TablePtr> DoApplyRow(const TablePtr& table, const Op& op,
                            const ExecPolicy& policy) {
  if (!op.row_fn) return Status::Invalid("apply row op without a function");
  // Stage the boxed-object overhead: per-cell boxing plus a per-row Series
  // materialization, held while the untyped iteration runs. Outside
  // isolated (function-core) measurement the interpreter has time to
  // reclaim most of the churn between preparators — the paper's
  // observation that stage-level Pandas runs avoid the apply OoM.
  int64_t series_bytes = policy.row_apply_series_bytes;
  if (sim::Session::Current() == nullptr ||
      !sim::Session::Current()->isolated_measurement()) {
    series_bytes /= 4;
  }
  BENTO_ASSIGN_OR_RETURN(
      auto staging,
      StagingCharge::Reserve(
          table->num_rows() *
          (policy.row_apply_object_bytes * table->num_columns() +
           series_bytes)));
  ArrayPtr result;
  if (policy.parallel) {
    BENTO_ASSIGN_OR_RETURN(
        result, kern::ApplyRowsParallel(table, op.row_fn, op.row_fn_type,
                                        policy.parallel_options));
  } else {
    BENTO_ASSIGN_OR_RETURN(result,
                           kern::ApplyRows(table, op.row_fn, op.row_fn_type));
  }
  return table->SetColumn(op.new_name, result);
}

Result<TablePtr> DoMerge(const TablePtr& table, const Op& op,
                         const ExecPolicy& policy) {
  if (op.other == nullptr) return Status::Invalid("merge without right side");
  BENTO_ASSIGN_OR_RETURN(auto right, op.other->Collect());
  kern::JoinOptions jopts;
  jopts.type = op.join_type;
  if (policy.parallel) {
    return kern::HashJoinParallel(table, right, op.left_key, op.right_key,
                                  jopts, policy.parallel_options);
  }
  return kern::HashJoin(table, right, op.left_key, op.right_key, jopts);
}

Result<TablePtr> DoGroupBy(const TablePtr& table, const Op& op,
                           const ExecPolicy& policy) {
  if (policy.parallel) {
    return kern::GroupByPartitioned(table, op.columns, op.aggs,
                                    policy.parallel_options);
  }
  return kern::GroupBy(table, op.columns, op.aggs);
}

Result<TablePtr> ReplaceColumn(
    const TablePtr& table, const std::string& name,
    const std::function<Result<ArrayPtr>(const ArrayPtr&)>& fn) {
  BENTO_ASSIGN_OR_RETURN(auto column, table->GetColumn(name));
  BENTO_ASSIGN_OR_RETURN(auto replaced, fn(column));
  return table->SetColumn(name, replaced);
}

}  // namespace

Result<col::TablePtr> DeepCopyTable(const col::TablePtr& table) {
  std::vector<ArrayPtr> columns;
  columns.reserve(static_cast<size_t>(table->num_columns()));
  for (const ArrayPtr& c : table->columns()) {
    col::BufferPtr data, offsets, validity;
    if (c->data_buffer() != nullptr) {
      BENTO_ASSIGN_OR_RETURN(data, col::Buffer::CopyOf(c->data_buffer()->data(),
                                                       c->data_buffer()->size()));
    }
    if (c->offsets_buffer() != nullptr) {
      BENTO_ASSIGN_OR_RETURN(
          offsets, col::Buffer::CopyOf(c->offsets_buffer()->data(),
                                       c->offsets_buffer()->size()));
    }
    if (c->validity_buffer() != nullptr) {
      BENTO_ASSIGN_OR_RETURN(
          validity, col::Buffer::CopyOf(c->validity_buffer()->data(),
                                        c->validity_buffer()->size()));
    }
    ArrayPtr copy;
    switch (c->type()) {
      case col::TypeId::kString: {
        BENTO_ASSIGN_OR_RETURN(
            copy, col::Array::MakeString(c->length(), std::move(offsets),
                                         std::move(data), std::move(validity),
                                         c->cached_null_count()));
        break;
      }
      case col::TypeId::kCategorical: {
        BENTO_ASSIGN_OR_RETURN(
            copy, col::Array::MakeCategorical(
                      c->length(), std::move(data), c->dictionary(),
                      std::move(validity), c->cached_null_count()));
        break;
      }
      default: {
        BENTO_ASSIGN_OR_RETURN(
            copy, col::Array::MakeFixed(c->type(), c->length(), std::move(data),
                                        std::move(validity),
                                        c->cached_null_count()));
      }
    }
    columns.push_back(std::move(copy));
  }
  return col::Table::Make(table->schema(), std::move(columns));
}

Result<col::TablePtr> ExecTransform(const col::TablePtr& table, const Op& op,
                                    const ExecPolicy& policy) {
  BENTO_TRACE_SPAN(kEngine, OpKindName(op.kind));
  switch (op.kind) {
    case OpKind::kSortValues:
      return MaybeCopy(DoSort(table, op, policy), policy);
    case OpKind::kQuery:
      return MaybeCopy(DoQuery(table, op, policy), policy);
    case OpKind::kCast:
      return MaybeCopy(ReplaceColumn(table, op.column,
                                     [&](const ArrayPtr& c) {
                                       return kern::Cast(c, op.type);
                                     }),
                       policy);
    case OpKind::kDropColumns:
      return table->DropColumns(op.columns);
    case OpKind::kRename:
      return table->RenameColumns(op.renames);
    case OpKind::kPivot:
      return kern::PivotTable(table, op.pivot_index, op.pivot_columns,
                              op.pivot_values, op.pivot_agg);
    case OpKind::kApplyExpr:
      return MaybeCopy(DoApplyExpr(table, op), policy);
    case OpKind::kMerge:
      return MaybeCopy(DoMerge(table, op, policy), policy);
    case OpKind::kGetDummies:
      return MaybeCopy(kern::GetDummies(table, op.column), policy);
    case OpKind::kCatCodes:
      return MaybeCopy(ReplaceColumn(table, op.column, kern::CatCodes), policy);
    case OpKind::kGroupByAgg:
      return DoGroupBy(table, op, policy);
    case OpKind::kToDatetime:
      return MaybeCopy(ReplaceColumn(table, op.column,
                                     [](const ArrayPtr& c) {
                                       return kern::ToDatetime(c);
                                     }),
                       policy);
    case OpKind::kDropNa:
      return MaybeCopy(
          kern::DropNullRows(table, op.columns, FilterOptions(policy)),
          policy);
    case OpKind::kStrLower:
      return MaybeCopy(ReplaceColumn(table, op.column,
                                     [&](const ArrayPtr& c) {
                                       return kern::Lower(c,
                                                          policy.string_engine);
                                     }),
                       policy);
    case OpKind::kRound:
      return MaybeCopy(ReplaceColumn(table, op.column,
                                     [&](const ArrayPtr& c) {
                                       return kern::Round(c, op.decimals);
                                     }),
                       policy);
    case OpKind::kDropDuplicates:
      if (policy.parallel) {
        return MaybeCopy(kern::DropDuplicatesParallel(table, op.columns,
                                                      policy.parallel_options),
                         policy);
      }
      return MaybeCopy(kern::DropDuplicates(table, op.columns), policy);
    case OpKind::kFillNa:
      return MaybeCopy(
          ReplaceColumn(table, op.column,
                        [&](const ArrayPtr& c) -> Result<ArrayPtr> {
                          if (op.fill_with_mean) {
                            return kern::FillNullWithMean(c);
                          }
                          return kern::FillNull(c, op.scalar_a);
                        }),
          policy);
    case OpKind::kReplace:
      return MaybeCopy(ReplaceColumn(table, op.column,
                                     [&](const ArrayPtr& c) {
                                       return kern::ReplaceValues(
                                           c, op.scalar_a, op.scalar_b);
                                     }),
                       policy);
    case OpKind::kApplyRow:
      return MaybeCopy(DoApplyRow(table, op, policy), policy);
    default:
      return Status::Invalid("op '", OpKindName(op.kind),
                             "' is an action, not a transform");
  }
}

Result<ActionResult> ExecAction(const col::TablePtr& table, const Op& op,
                                const ExecPolicy& policy) {
  BENTO_TRACE_SPAN(kEngine, OpKindName(op.kind));
  ActionResult result;
  switch (op.kind) {
    case OpKind::kIsNa: {
      BENTO_ASSIGN_OR_RETURN(result.counts,
                             kern::NullCounts(table, policy.null_probe));
      return result;
    }
    case OpKind::kLocateOutliers: {
      BENTO_ASSIGN_OR_RETURN(auto column, table->GetColumn(op.column));
      if (policy.approx_quantile) {
        BENTO_ASSIGN_OR_RETURN(result.lower_bound,
                               kern::QuantileApprox(column, op.lower_q));
        BENTO_ASSIGN_OR_RETURN(result.upper_bound,
                               kern::QuantileApprox(column, op.upper_q));
      } else {
        BENTO_ASSIGN_OR_RETURN(
            auto bounds, kern::Quantiles(column, {op.lower_q, op.upper_q}));
        result.lower_bound = bounds[0];
        result.upper_bound = bounds[1];
      }
      // Count rows outside the bounds.
      BENTO_ASSIGN_OR_RETURN(
          auto low_mask,
          kern::CompareScalar(column, kern::CompareOp::kLt,
                              col::Scalar::Double(result.lower_bound)));
      BENTO_ASSIGN_OR_RETURN(
          auto high_mask,
          kern::CompareScalar(column, kern::CompareOp::kGt,
                              col::Scalar::Double(result.upper_bound)));
      BENTO_ASSIGN_OR_RETURN(auto outliers,
                             kern::BooleanOr(low_mask, high_mask));
      int64_t count = 0;
      const uint8_t* data = outliers->bool_data();
      for (int64_t i = 0; i < outliers->length(); ++i) {
        if (outliers->IsValid(i) && data[i] != 0) ++count;
      }
      result.count = count;
      return result;
    }
    case OpKind::kSearchPattern: {
      BENTO_ASSIGN_OR_RETURN(auto column, table->GetColumn(op.column));
      BENTO_ASSIGN_OR_RETURN(
          auto mask, kern::Contains(column, op.text, /*case_sensitive=*/true,
                                    policy.string_engine));
      int64_t count = 0;
      const uint8_t* data = mask->bool_data();
      for (int64_t i = 0; i < mask->length(); ++i) {
        if (mask->IsValid(i) && data[i] != 0) ++count;
      }
      result.count = count;
      return result;
    }
    case OpKind::kGetColumns: {
      result.names = table->schema()->names();
      return result;
    }
    case OpKind::kGetDtypes: {
      for (const col::Field& f : table->schema()->fields()) {
        result.names.push_back(f.name);
        result.types.push_back(f.type);
      }
      return result;
    }
    case OpKind::kDescribe: {
      if (policy.parallel) {
        BENTO_ASSIGN_OR_RETURN(
            result.table,
            kern::DescribeParallel(table, policy.approx_quantile,
                                   policy.parallel_options));
      } else {
        BENTO_ASSIGN_OR_RETURN(result.table,
                               kern::Describe(table, policy.approx_quantile));
      }
      return result;
    }
    default:
      return Status::Invalid("op '", OpKindName(op.kind),
                             "' is a transform, not an action");
  }
}

}  // namespace bento::frame
