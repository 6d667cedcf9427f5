#ifndef BENTO_PLAN_RULES_H_
#define BENTO_PLAN_RULES_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "plan/logical_plan.h"

namespace bento::frame {
class DataFrame;
}  // namespace bento::frame

namespace bento::plan {

/// \brief Per-engine optimizer policy: the two rule families an engine
/// model may switch off (SparkPD's reduced Catalyst surface clears
/// predicate pushdown). Fusion, dead-op elimination and common-subplan
/// sharing always run.
struct OptimizerPolicy {
  /// Filter reordering over breakers plus the pushdown bubble toward the
  /// source: both model the same Catalyst/Polars filter-placement machinery.
  bool predicate_pushdown = true;
  /// Drop hoisting; the executor also binds a leading drop into the scan
  /// (CSV column skipping, BCF column projection).
  bool projection_pushdown = true;
};

/// \brief Engine-supplied context for rules that need to look outside the
/// op sequence itself.
struct PlanContext {
  /// Stable lineage signature of a merge right-side frame, or nullopt when
  /// the frame is opaque (non-lazy engine, row_fn in the subplan, already
  /// materialized from an unknown table). Equal signatures must imply
  /// value-identical Collect() results.
  std::function<std::optional<std::string>(
      const std::shared_ptr<frame::DataFrame>&)>
      subplan_signature;
};

/// \brief One answer-preserving plan rewrite. Apply() returns true when it
/// changed the plan; the driver re-runs the rule set until a full pass
/// changes nothing.
class RewriteRule {
 public:
  virtual ~RewriteRule() = default;
  virtual const char* name() const = 0;
  virtual bool Apply(LogicalPlan* plan, const PlanContext& ctx) const = 0;
};

/// \brief Fixed-point driver over the rule catalog selected by `policy`.
/// Each rule application emits a plan.rewrite.<rule> counter and runs under
/// a per-rule trace span.
class RuleDriver {
 public:
  explicit RuleDriver(const OptimizerPolicy& policy);

  LogicalPlan Run(LogicalPlan plan, const PlanContext& ctx) const;

  const std::vector<std::unique_ptr<RewriteRule>>& rules() const {
    return rules_;
  }

 private:
  std::vector<std::unique_ptr<RewriteRule>> rules_;
};

/// \brief True when a kQuery with references `refs` may hop before `prev`
/// without changing results (or error behaviour). The soundness core of
/// predicate pushdown, exposed for tests.
bool QueryCanHopBefore(const frame::Op& query, const frame::Op& prev,
                       const std::set<std::string>& refs);

}  // namespace bento::plan

#endif  // BENTO_PLAN_RULES_H_
