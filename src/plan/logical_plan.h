#ifndef BENTO_PLAN_LOGICAL_PLAN_H_
#define BENTO_PLAN_LOGICAL_PLAN_H_

#include <set>
#include <string>
#include <vector>

#include "frame/op.h"

namespace bento::plan {

// A logical plan is the ordered transform sequence (std::vector<frame::Op>)
// a lazy frame accumulated between its source and the forcing action.
// plan::Optimize rewrites it; the executor runs whatever remains.

/// \brief One-line rendering of a single op for plan dumps and golden
/// tests, e.g. "query[age >= 20]" or "round[height, 1]".
std::string OpSummary(const frame::Op& op);

/// \brief Multi-line plan dump (one OpSummary per line, source to sink).
/// This is the `--explain` text form; golden plan-snapshot tests compare
/// these strings before/after optimization.
std::string Explain(const std::vector<frame::Op>& ops);

// --- column-footprint analysis shared by the rewrite rules -----------------

/// \brief Adds the columns `sel` names on `op` to `out`. Returns false when
/// they cannot be named (kUnknown, an empty kSubset, or a kExpr that does
/// not parse); `out` is then meaningless.
bool SelectColumns(const frame::Op& op, frame::ColumnSel sel,
                   std::set<std::string>* out);

/// \brief Columns `op` reads or writes, as its op-traits row names them.
/// Returns false for actions and breakers, and when the op touches the
/// whole row (opaque to column analysis); `touched` is then meaningless.
bool OpColumnFootprint(const frame::Op& op, std::set<std::string>* touched);

/// \brief Columns referenced by a kQuery predicate (empty on parse failure).
std::set<std::string> QueryReferences(const frame::Op& query);

/// \brief True when the two sets share at least one element.
bool Intersects(const std::set<std::string>& a, const std::set<std::string>& b);

}  // namespace bento::plan

#endif  // BENTO_PLAN_LOGICAL_PLAN_H_
