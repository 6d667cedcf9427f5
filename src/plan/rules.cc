#include "plan/rules.h"

#include <algorithm>

#include "kernels/groupby.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace bento::plan {

using frame::Op;
using frame::OpKind;

bool QueryCanHopBefore(const Op& query, const Op& prev,
                       const std::set<std::string>& refs) {
  (void)query;
  switch (prev.kind) {
    case OpKind::kSortValues:
      return true;  // content-based filter commutes with reordering
    case OpKind::kDropNa:
      return true;  // two row filters commute
    case OpKind::kCast:
    case OpKind::kStrLower:
    case OpKind::kRound:
    case OpKind::kToDatetime:
    case OpKind::kReplace:
      return refs.count(prev.column) == 0;
    case OpKind::kFillNa:
      // fillna changes null rows; safe only when the filter ignores the
      // column entirely (and fillna-with-mean depends on the row set the
      // filter would change).
      return !prev.fill_with_mean && refs.count(prev.column) == 0;
    case OpKind::kFusedColumn:
      if (refs.count(prev.column) > 0) return false;
      for (const Op& step : prev.fused) {
        // A fused mean-fill or categorical encode reads global column
        // state; hopping the filter before it changes that state.
        if (step.kind == OpKind::kFillNa && step.fill_with_mean) return false;
        if (step.kind == OpKind::kCatCodes) return false;
      }
      return true;
    case OpKind::kApplyExpr:
      return refs.count(prev.new_name) == 0;
    case OpKind::kApplyRow:
      return refs.count(prev.new_name) == 0;
    case OpKind::kDropColumns: {
      // Sound only when the filter ignores every dropped column: a filter
      // referencing a dropped column must keep erroring after the drop,
      // not silently succeed ahead of it.
      std::set<std::string> dropped(prev.columns.begin(), prev.columns.end());
      return !Intersects(refs, dropped);
    }
    default:
      return false;
  }
}

namespace {

/// Columns `op` overwrites or creates (the write half of the footprint).
/// Only meaningful for order-oblivious row ops; empty for filters.
std::set<std::string> WrittenColumns(const Op& op) {
  switch (op.kind) {
    case OpKind::kCast:
    case OpKind::kStrLower:
    case OpKind::kRound:
    case OpKind::kReplace:
    case OpKind::kToDatetime:
    case OpKind::kFillNa:
    case OpKind::kCatCodes:
    case OpKind::kFusedColumn:
      return {op.column};
    case OpKind::kApplyExpr:
    case OpKind::kApplyRow:
      return {op.new_name};
    default:
      return {};
  }
}

// --- predicate pushdown ----------------------------------------------------

class PredicatePushdownRule : public RewriteRule {
 public:
  const char* name() const override { return "predicate_pushdown"; }

  bool Apply(LogicalPlan* plan, const PlanContext&) const override {
    bool changed = false;
    auto& ops = plan->ops;
    // Bubble each filter toward the source through ops it commutes with.
    for (size_t i = 1; i < ops.size(); ++i) {
      if (ops[i].kind != OpKind::kQuery) continue;
      std::set<std::string> refs = QueryReferences(ops[i]);
      size_t j = i;
      // Filters never hop column drops even when sound: drops stay
      // outermost so the executor can bind them into the scan, and
      // projection pushdown moving drops the other way would otherwise
      // ping-pong with this rule forever.
      while (j > 0 && ops[j - 1].kind != OpKind::kDropColumns &&
             QueryCanHopBefore(ops[j], ops[j - 1], refs)) {
        std::swap(ops[j], ops[j - 1]);
        --j;
        changed = true;
      }
    }
    return changed;
  }
};

// --- projection pushdown ---------------------------------------------------

class ProjectionPushdownRule : public RewriteRule {
 public:
  const char* name() const override { return "projection_pushdown"; }

  bool Apply(LogicalPlan* plan, const PlanContext&) const override {
    bool changed = false;
    auto& ops = plan->ops;
    // Pull column drops toward the source past ops that don't touch the
    // dropped columns.
    for (size_t i = 1; i < ops.size(); ++i) {
      if (ops[i].kind != OpKind::kDropColumns) continue;
      std::set<std::string> dropped(ops[i].columns.begin(),
                                    ops[i].columns.end());
      size_t j = i;
      while (j > 0) {
        const Op& prev = ops[j - 1];
        // Adjacent drops are MergeAdjacentDrops' job; swapping two disjoint
        // drops would oscillate across passes.
        if (prev.kind == OpKind::kDropColumns) break;
        if (prev.kind == OpKind::kQuery) {
          if (Intersects(QueryReferences(prev), dropped)) break;
        } else {
          std::set<std::string> touched;
          if (!OpColumnFootprint(prev, &touched)) break;
          if (Intersects(touched, dropped)) break;
        }
        std::swap(ops[j], ops[j - 1]);
        --j;
        changed = true;
      }
    }
    return changed;
  }
};

// --- filter-before-join / group-by reordering ------------------------------

/// Hops a filter over the breaker immediately before it when the predicate
/// only reads columns the breaker passes through unchanged: group-by keys
/// (key values are constant per group, so filtering groups after equals
/// filtering member rows before) and the shared join key of an inner/left
/// merge (every output row carries its probe row's key). Predicate
/// pushdown then continues the bubble toward the source.
class FilterReorderRule : public RewriteRule {
 public:
  const char* name() const override { return "filter_reorder"; }

  bool Apply(LogicalPlan* plan, const PlanContext&) const override {
    bool changed = false;
    auto& ops = plan->ops;
    for (size_t i = 1; i < ops.size(); ++i) {
      if (ops[i].kind != OpKind::kQuery) continue;
      const Op& prev = ops[i - 1];
      std::set<std::string> refs = QueryReferences(ops[i]);
      if (refs.empty()) continue;  // unparseable or constant predicate
      bool hop = false;
      if (prev.kind == OpKind::kGroupByAgg) {
        std::set<std::string> keys(prev.columns.begin(), prev.columns.end());
        std::set<std::string> outs;
        for (const kern::AggSpec& a : prev.aggs) {
          outs.insert(kern::DefaultAggName(a));
        }
        hop = Subset(refs, keys) && !Intersects(refs, outs);
      } else if (prev.kind == OpKind::kMerge &&
                 prev.left_key == prev.right_key) {
        // Same-named key: the output key column is the probe side's value
        // for inner and left joins, so a key-only filter commutes.
        hop = refs.size() == 1 && refs.count(prev.left_key) == 1;
      }
      if (hop) {
        std::swap(ops[i], ops[i - 1]);
        changed = true;
      }
    }
    return changed;
  }

 private:
  static bool Subset(const std::set<std::string>& a,
                     const std::set<std::string>& b) {
    return std::includes(b.begin(), b.end(), a.begin(), a.end());
  }
};

// --- preparator fusion -----------------------------------------------------

/// True when `op` is a single-column value map that FusedColumn can chain:
/// one GetColumn, kernel sequence, one SetColumn. fillna-with-mean and the
/// dictionary ops stay fusible because the fused op executes them against
/// the same whole-column state a separate op would see (the fused op is
/// only streamable when every step is — see IsStreamable).
bool IsFusibleColumnStep(const Op& op) {
  switch (op.kind) {
    case OpKind::kCast:
    case OpKind::kStrLower:
    case OpKind::kRound:
    case OpKind::kReplace:
    case OpKind::kToDatetime:
    case OpKind::kCatCodes:
      return true;
    case OpKind::kFillNa:
      return !op.fill_with_mean;
    default:
      return false;
  }
}

class FusionRule : public RewriteRule {
 public:
  const char* name() const override { return "fusion"; }

  bool Apply(LogicalPlan* plan, const PlanContext&) const override {
    bool changed = FuseAdjacentFilters(plan);
    changed = FuseColumnChains(plan) || changed;
    return changed;
  }

 private:
  /// query(a); query(b)  ==>  query((a) and (b)) — one mask evaluation and
  /// one filter pass instead of two.
  static bool FuseAdjacentFilters(LogicalPlan* plan) {
    auto& ops = plan->ops;
    bool changed = false;
    for (size_t i = 0; i + 1 < ops.size();) {
      if (ops[i].kind == OpKind::kQuery && ops[i + 1].kind == OpKind::kQuery) {
        ops[i].text = "(" + ops[i].text + ") and (" + ops[i + 1].text + ")";
        ops.erase(ops.begin() + static_cast<ptrdiff_t>(i) + 1);
        changed = true;
      } else {
        ++i;
      }
    }
    return changed;
  }

  /// Runs of >= 2 adjacent single-column maps over the same column collapse
  /// into one kFusedColumn op: one GetColumn / SetColumn and one table
  /// rebuild for the whole chain.
  static bool FuseColumnChains(LogicalPlan* plan) {
    auto& ops = plan->ops;
    bool changed = false;
    for (size_t i = 0; i < ops.size();) {
      if (!FusibleHead(ops[i])) {
        ++i;
        continue;
      }
      const std::string& column = ops[i].column;
      size_t j = i + 1;
      while (j < ops.size() && FusibleHead(ops[j]) && ops[j].column == column) {
        ++j;
      }
      if (j - i < 2) {
        ++i;
        continue;
      }
      std::vector<Op> steps;
      for (size_t k = i; k < j; ++k) {
        if (ops[k].kind == OpKind::kFusedColumn) {
          steps.insert(steps.end(), ops[k].fused.begin(), ops[k].fused.end());
        } else {
          steps.push_back(ops[k]);
        }
      }
      Op fused = Op::FusedColumn(column, std::move(steps));
      ops[i] = std::move(fused);
      ops.erase(ops.begin() + static_cast<ptrdiff_t>(i) + 1,
                ops.begin() + static_cast<ptrdiff_t>(j));
      changed = true;
      ++i;
    }
    return changed;
  }

  static bool FusibleHead(const Op& op) {
    return IsFusibleColumnStep(op) || op.kind == OpKind::kFusedColumn;
  }
};

// --- dead / redundant op elimination ---------------------------------------

class DeadOpEliminationRule : public RewriteRule {
 public:
  const char* name() const override { return "dead_op_elimination"; }

  bool Apply(LogicalPlan* plan, const PlanContext&) const override {
    bool changed = EliminateRedundantDedups(plan);
    changed = EliminateOverwrittenSorts(plan) || changed;
    changed = MergeAdjacentDrops(plan) || changed;
    return changed;
  }

 private:
  /// A dedup is dead when an earlier dedup/group-by already guarantees
  /// uniqueness on a subset of its effective key set and only
  /// uniqueness-preserving ops (filters, sorts) run in between. The later
  /// dedup is only removed when its own column references are provably
  /// valid (no references at all, or exactly the earlier provider's), so
  /// elimination can never mask a KeyError the original plan raised.
  static bool EliminateRedundantDedups(LogicalPlan* plan) {
    auto& ops = plan->ops;
    bool changed = false;
    for (size_t j = 0; j < ops.size();) {
      if (ops[j].kind != OpKind::kDropDuplicates || !ProvenDead(ops, j)) {
        ++j;
        continue;
      }
      ops.erase(ops.begin() + static_cast<ptrdiff_t>(j));
      changed = true;
    }
    return changed;
  }

  static bool ProvenDead(const std::vector<Op>& ops, size_t j) {
    const std::set<std::string> subset(ops[j].columns.begin(),
                                       ops[j].columns.end());
    const bool all_columns = subset.empty();
    for (size_t i = j; i-- > 0;) {
      const Op& prev = ops[i];
      if (prev.kind == OpKind::kQuery || prev.kind == OpKind::kDropNa ||
          prev.kind == OpKind::kSortValues) {
        continue;  // filters / reorders preserve row uniqueness
      }
      if (prev.kind == OpKind::kDropDuplicates) {
        std::set<std::string> provider(prev.columns.begin(),
                                       prev.columns.end());
        if (provider.empty()) {
          // Unique on every column; any later dedup whose references are
          // known-valid is dead. Only the no-reference form qualifies.
          return all_columns;
        }
        if (all_columns) return true;  // superset of provider, no refs
        return subset == provider;     // identical dedup repeated
      }
      if (prev.kind == OpKind::kGroupByAgg) {
        std::set<std::string> keys(prev.columns.begin(), prev.columns.end());
        std::set<std::string> produced = keys;
        for (const kern::AggSpec& a : prev.aggs) {
          produced.insert(kern::DefaultAggName(a));
        }
        if (all_columns) return true;  // output rows unique on keys
        // Need keys ⊆ subset (uniqueness transfers) and every referenced
        // column to exist in the group-by output (no masked KeyError).
        return std::includes(subset.begin(), subset.end(), keys.begin(),
                             keys.end()) &&
               std::includes(produced.begin(), produced.end(), subset.begin(),
                             subset.end());
      }
      return false;  // value-changing / row-multiplying op: stop the scan
    }
    return false;
  }

  /// sort(A) ... sort(B) with keys(A) ⊆ keys(B): the earlier sort only
  /// pre-orders rows inside B's tie groups, and stability means those
  /// groups end in original relative order either way — provided nothing in
  /// between reorders rows, depends on row order, or rewrites one of A's
  /// key columns (a rewrite could split A-ties that B then re-breaks
  /// differently).
  static bool EliminateOverwrittenSorts(LogicalPlan* plan) {
    auto& ops = plan->ops;
    bool changed = false;
    for (size_t i = 0; i < ops.size();) {
      if (ops[i].kind != OpKind::kSortValues) {
        ++i;
        continue;
      }
      std::set<std::string> early_keys;
      for (const kern::SortKey& k : ops[i].sort_keys) {
        early_keys.insert(k.column);
      }
      bool dead = false;
      for (size_t j = i + 1; j < ops.size(); ++j) {
        if (ops[j].kind == OpKind::kSortValues) {
          std::set<std::string> late_keys;
          for (const kern::SortKey& k : ops[j].sort_keys) {
            late_keys.insert(k.column);
          }
          dead = std::includes(late_keys.begin(), late_keys.end(),
                               early_keys.begin(), early_keys.end());
          break;
        }
        if (!IsOrderObliviousRowOp(ops[j]) ||
            Intersects(WrittenColumns(ops[j]), early_keys)) {
          break;
        }
      }
      if (dead) {
        ops.erase(ops.begin() + static_cast<ptrdiff_t>(i));
        changed = true;
      } else {
        ++i;
      }
    }
    return changed;
  }

  /// drop(A); drop(B) ==> drop(A + B) when the sets are disjoint (an
  /// overlap means the original second drop errors on an already-removed
  /// column, which the merged form must not hide).
  static bool MergeAdjacentDrops(LogicalPlan* plan) {
    auto& ops = plan->ops;
    bool changed = false;
    for (size_t i = 0; i + 1 < ops.size();) {
      if (ops[i].kind != OpKind::kDropColumns ||
          ops[i + 1].kind != OpKind::kDropColumns) {
        ++i;
        continue;
      }
      std::set<std::string> first(ops[i].columns.begin(),
                                  ops[i].columns.end());
      std::set<std::string> second(ops[i + 1].columns.begin(),
                                   ops[i + 1].columns.end());
      if (Intersects(first, second)) {
        ++i;
        continue;
      }
      ops[i].columns.insert(ops[i].columns.end(), ops[i + 1].columns.begin(),
                            ops[i + 1].columns.end());
      ops.erase(ops.begin() + static_cast<ptrdiff_t>(i) + 1);
      changed = true;
    }
    return changed;
  }
};

// --- common-subplan elimination across join inputs -------------------------

/// Two merges whose right sides have identical lineage signatures share one
/// frame object, so the subplan collects once (the lazy frame caches its
/// materialized result) instead of once per join.
class CommonSubplanRule : public RewriteRule {
 public:
  const char* name() const override { return "common_subplan"; }

  bool Apply(LogicalPlan* plan, const PlanContext& ctx) const override {
    if (!ctx.subplan_signature) return false;
    auto& ops = plan->ops;
    bool changed = false;
    for (size_t i = 0; i < ops.size(); ++i) {
      if (ops[i].kind != OpKind::kMerge || ops[i].other == nullptr) continue;
      std::optional<std::string> sig_i;
      bool sig_i_computed = false;
      for (size_t j = i + 1; j < ops.size(); ++j) {
        if (ops[j].kind != OpKind::kMerge || ops[j].other == nullptr) continue;
        if (ops[j].other == ops[i].other) continue;  // already shared
        if (!sig_i_computed) {
          sig_i = ctx.subplan_signature(ops[i].other);
          sig_i_computed = true;
        }
        if (!sig_i.has_value()) break;  // opaque subplan: nothing to share
        std::optional<std::string> sig_j = ctx.subplan_signature(ops[j].other);
        if (sig_j.has_value() && *sig_j == *sig_i) {
          ops[j].other = ops[i].other;
          changed = true;
        }
      }
    }
    return changed;
  }
};

}  // namespace

// --- driver ----------------------------------------------------------------

RuleDriver::RuleDriver(const OptimizerPolicy& policy) {
  // Reorder first so the pushdown bubble sees filters already hoisted over
  // breakers; fusion and elimination run on the settled op order.
  if (policy.predicate_pushdown) {
    rules_.push_back(std::make_unique<FilterReorderRule>());
    rules_.push_back(std::make_unique<PredicatePushdownRule>());
  }
  if (policy.projection_pushdown) {
    rules_.push_back(std::make_unique<ProjectionPushdownRule>());
  }
  rules_.push_back(std::make_unique<DeadOpEliminationRule>());
  rules_.push_back(std::make_unique<FusionRule>());
  rules_.push_back(std::make_unique<CommonSubplanRule>());
}

LogicalPlan RuleDriver::Run(LogicalPlan plan, const PlanContext& ctx) const {
  // Every rule strictly reduces op count, shares a pointer, or moves an op
  // toward the source, so a fixed point exists; the pass cap is a backstop.
  constexpr int kMaxPasses = 16;
  for (int pass = 0; pass < kMaxPasses; ++pass) {
    bool changed = false;
    for (const auto& rule : rules_) {
      BENTO_TRACE_SPAN_DYN(kEngine, std::string("plan.rule.") + rule->name());
      if (rule->Apply(&plan, ctx)) {
        obs::MetricsRegistry::Global()
            .counter(std::string("plan.rewrite.") + rule->name())
            ->Increment();
        changed = true;
      }
    }
    if (!changed) break;
  }
  return plan;
}

}  // namespace bento::plan
