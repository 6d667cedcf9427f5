#include "plan/logical_plan.h"

#include "expr/parser.h"

namespace bento::plan {

using frame::Op;
using frame::OpKind;

namespace {

using kern::AggName;

std::string JoinList(const std::vector<std::string>& names) {
  if (names.empty()) return "*";
  std::string out;
  for (size_t i = 0; i < names.size(); ++i) {
    if (i > 0) out += ", ";
    out += names[i];
  }
  return out;
}

}  // namespace

std::string OpSummary(const Op& op) {
  std::string s = frame::OpKindName(op.kind);
  s += "[";
  switch (op.kind) {
    case OpKind::kQuery:
    case OpKind::kSearchPattern:
      s += op.text;
      break;
    case OpKind::kSortValues:
      for (size_t i = 0; i < op.sort_keys.size(); ++i) {
        if (i > 0) s += ", ";
        s += op.sort_keys[i].column;
        s += op.sort_keys[i].ascending ? " asc" : " desc";
      }
      break;
    case OpKind::kCast:
      s += op.column;
      s += " -> ";
      s += col::TypeName(op.type);
      break;
    case OpKind::kDropColumns:
    case OpKind::kDropNa:
    case OpKind::kDropDuplicates:
      s += JoinList(op.columns);
      break;
    case OpKind::kRename:
      for (size_t i = 0; i < op.renames.size(); ++i) {
        if (i > 0) s += ", ";
        s += op.renames[i].first;
        s += " -> ";
        s += op.renames[i].second;
      }
      break;
    case OpKind::kApplyExpr:
      s += op.new_name;
      s += " = ";
      s += op.text;
      break;
    case OpKind::kMerge:
      s += op.left_key;
      s += " = ";
      s += op.right_key;
      s += op.join_type == kern::JoinType::kLeft ? ", left" : ", inner";
      break;
    case OpKind::kGroupByAgg: {
      s += JoinList(op.columns);
      s += " | ";
      for (size_t i = 0; i < op.aggs.size(); ++i) {
        if (i > 0) s += ", ";
        const kern::AggSpec& a = op.aggs[i];
        s += a.output_name.empty() ? a.column + "_" + AggName(a.kind)
                                   : a.output_name;
        s += " = ";
        s += AggName(a.kind);
        s += "(";
        s += a.column;
        s += ")";
      }
      break;
    }
    case OpKind::kPivot:
      s += op.pivot_index;
      s += " x ";
      s += op.pivot_columns;
      s += " : ";
      s += AggName(op.pivot_agg);
      s += "(";
      s += op.pivot_values;
      s += ")";
      break;
    case OpKind::kRound:
      s += op.column;
      s += ", ";
      s += std::to_string(op.decimals);
      break;
    case OpKind::kFillNa:
      s += op.column;
      s += " = ";
      s += op.fill_with_mean ? std::string("mean") : op.scalar_a.ToString();
      break;
    case OpKind::kReplace:
      s += op.column;
      s += ": ";
      s += op.scalar_a.ToString();
      s += " -> ";
      s += op.scalar_b.ToString();
      break;
    case OpKind::kApplyRow:
      s += op.new_name;
      break;
    default:
      // Single-column ops (lower, catenc, onehot, chdate, outlier) and
      // column-less actions.
      s += op.column;
      break;
  }
  s += "]";
  return s;
}

std::string Explain(const std::vector<Op>& ops) {
  std::string out;
  for (const Op& op : ops) {
    out += OpSummary(op);
    out += "\n";
  }
  return out;
}

bool SelectColumns(const Op& op, frame::ColumnSel sel,
                   std::set<std::string>* out) {
  switch (sel) {
    case frame::ColumnSel::kNone:
      return true;
    case frame::ColumnSel::kColumn:
      out->insert(op.column);
      return true;
    case frame::ColumnSel::kSubset:
      if (op.columns.empty()) return false;  // every column
      [[fallthrough]];
    case frame::ColumnSel::kColumns:
      out->insert(op.columns.begin(), op.columns.end());
      return true;
    case frame::ColumnSel::kNewName:
      out->insert(op.new_name);
      return true;
    case frame::ColumnSel::kSortKeys:
      for (const auto& key : op.sort_keys) out->insert(key.column);
      return true;
    case frame::ColumnSel::kExpr: {
      auto parsed = expr::ParseExpr(op.text);
      if (!parsed.ok()) return false;
      parsed.ValueOrDie()->CollectColumns(out);
      return true;
    }
    case frame::ColumnSel::kUnknown:
      return false;
  }
  return false;
}

bool OpColumnFootprint(const Op& op, std::set<std::string>* touched) {
  const frame::OpTraits& traits = frame::TraitsOf(op.kind);
  // Actions never sit in a plan, and no drop moves across a breaker.
  if (traits.stream == frame::StreamClass::kAction ||
      traits.stream == frame::StreamClass::kBreaker) {
    return false;
  }
  return SelectColumns(op, traits.reads, touched) &&
         SelectColumns(op, traits.writes, touched);
}

std::set<std::string> QueryReferences(const Op& query) {
  std::set<std::string> refs;
  SelectColumns(query, frame::ColumnSel::kExpr, &refs);  // empty on failure
  return refs;
}

bool Intersects(const std::set<std::string>& a,
                const std::set<std::string>& b) {
  for (const std::string& x : a) {
    if (b.count(x) > 0) return true;
  }
  return false;
}

}  // namespace bento::plan
