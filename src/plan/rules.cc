#include "plan/rules.h"

#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "plan/logical_plan.h"

namespace bento::plan {

using frame::Op;
using frame::OpKind;
using frame::StreamClass;

bool QueryCanHopBefore(const Op& query, const Op& prev,
                       const std::set<std::string>& refs) {
  (void)query;
  switch (frame::StreamClassOf(prev)) {
    case StreamClass::kReorder:
      return true;  // content-based filter commutes with reordering
    case StreamClass::kRowFilter:
      // Two row filters commute; two queries keep their order, so the
      // rewrite reaches a fixed point.
      return prev.kind != OpKind::kQuery;
    case StreamClass::kRowMap: {
      // Sound only when the filter reads no column the map writes: a filter
      // referencing a dropped column must keep erroring after the drop,
      // not silently succeed ahead of it.
      std::set<std::string> written;
      return SelectColumns(prev, frame::TraitsOf(prev.kind).writes,
                           &written) &&
             !Intersects(refs, written);
    }
    default:
      // Two-pass ops (fillna with the mean among them) and breakers depend
      // on the row set the filter would change.
      return false;
  }
}

namespace {

/// Bubbles each filter toward the source through ops it commutes with.
bool PushDownPredicates(std::vector<Op>* plan) {
  std::vector<Op>& ops = *plan;
  bool changed = false;
  for (size_t i = 1; i < ops.size(); ++i) {
    if (ops[i].kind != OpKind::kQuery) continue;
    // A filter that does not parse keeps its place, so an earlier op's
    // error still comes first.
    std::set<std::string> refs;
    if (!SelectColumns(ops[i], frame::ColumnSel::kExpr, &refs)) continue;
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

/// Pulls each column drop toward the source past ops that don't touch the
/// dropped columns.
bool PushDownProjections(std::vector<Op>* plan) {
  std::vector<Op>& ops = *plan;
  bool changed = false;
  for (size_t i = 1; i < ops.size(); ++i) {
    if (ops[i].kind != OpKind::kDropColumns) continue;
    std::set<std::string> dropped(ops[i].columns.begin(),
                                  ops[i].columns.end());
    size_t j = i;
    while (j > 0) {
      const Op& prev = ops[j - 1];
      // Two drops never swap: disjoint drops would trade places on every
      // pass.
      if (prev.kind == OpKind::kDropColumns) break;
      std::set<std::string> touched;
      if (!OpColumnFootprint(prev, &touched)) break;
      if (Intersects(touched, dropped)) break;
      std::swap(ops[j], ops[j - 1]);
      --j;
      changed = true;
    }
  }
  return changed;
}

}  // namespace

std::vector<Op> Optimize(std::vector<Op> ops, const OptimizerPolicy& policy) {
  struct Rule {
    const char* name;
    bool enabled;
    bool (*apply)(std::vector<Op>*);
  };
  const Rule rules[] = {
      {"predicate_pushdown", policy.predicate_pushdown, PushDownPredicates},
      {"projection_pushdown", policy.projection_pushdown, PushDownProjections},
  };
  // Every swap moves a filter or a drop toward the source, and filters never
  // hop drops, so a fixed point exists; the pass cap is a backstop.
  constexpr int kMaxPasses = 16;
  for (int pass = 0; pass < kMaxPasses; ++pass) {
    bool changed = false;
    for (const Rule& rule : rules) {
      if (!rule.enabled) continue;
      BENTO_TRACE_SPAN_DYN(kEngine, std::string("plan.rule.") + rule.name);
      if (rule.apply(&ops)) {
        obs::MetricsRegistry::Global()
            .counter(std::string("plan.rewrite.") + rule.name)
            ->Increment();
        changed = true;
      }
    }
    if (!changed) break;
  }
  return ops;
}

}  // namespace bento::plan
