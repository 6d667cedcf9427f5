#ifndef BENTO_PLAN_RULES_H_
#define BENTO_PLAN_RULES_H_

#include <set>
#include <string>
#include <vector>

#include "frame/op.h"

namespace bento::plan {

/// \brief Per-engine optimizer policy: the two rewrite rules, each of which
/// an engine model may switch off (SparkPD's reduced Catalyst surface clears
/// predicate pushdown).
struct OptimizerPolicy {
  /// Bubble filters toward the source through the ops they commute with.
  bool predicate_pushdown = true;
  /// Drop hoisting; the executor also binds a leading drop into the scan
  /// (CSV column skipping, BCF column projection).
  bool projection_pushdown = true;
};

/// \brief Rewrites `ops` (a lazy frame's transforms, source to sink) with
/// the rules `policy` enables, predicate then projection pushdown, until a
/// full pass changes nothing. Every rule runs under a `plan.rule.<name>`
/// trace span, and every pass in which it rewrites the plan increments the
/// `plan.rewrite.<name>` counter.
std::vector<frame::Op> Optimize(std::vector<frame::Op> ops,
                                const OptimizerPolicy& policy);

/// \brief True when a kQuery with references `refs` may hop before `prev`
/// without changing results (or error behaviour). The soundness core of
/// predicate pushdown, exposed for tests.
bool QueryCanHopBefore(const frame::Op& query, const frame::Op& prev,
                       const std::set<std::string>& refs);

}  // namespace bento::plan

#endif  // BENTO_PLAN_RULES_H_
