#ifndef BENTO_EXPR_EXPR_H_
#define BENTO_EXPR_EXPR_H_

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "columnar/scalar.h"
#include "columnar/schema.h"

namespace bento::expr {

class Expr;
using ExprPtr = std::shared_ptr<const Expr>;

enum class BinOpKind {
  kAdd,
  kSub,
  kMul,
  kDiv,
  kMod,
  kPow,
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kAnd,
  kOr,
};

enum class UnOpKind { kNeg, kNot };

/// \brief Scalar-expression AST shared by the lazy engines (Polars plans,
/// Spark logical plans, Vaex virtual columns) and by the `query` / `apply`
/// preparators.
///
/// Nodes are immutable and shared; build with the factory functions below.
class Expr {
 public:
  enum class Kind { kColumn, kLiteral, kBinary, kUnary, kCall };

  static ExprPtr Column(std::string name);
  static ExprPtr Literal(col::Scalar value);
  static ExprPtr Binary(BinOpKind op, ExprPtr left, ExprPtr right);
  static ExprPtr Unary(UnOpKind op, ExprPtr operand);
  /// Known functions: abs, log, log1p, exp, sqrt, round(x, k), lower(s),
  /// length(s), contains(s, "pat"), isnull(x), fillna(x, v), year(ts),
  /// month(ts), day(ts), hour(ts), weekday(ts).
  static ExprPtr Call(std::string fn, std::vector<ExprPtr> args);

  Kind kind() const { return kind_; }
  const std::string& column_name() const { return name_; }
  const col::Scalar& literal() const { return literal_; }
  BinOpKind bin_op() const { return bin_op_; }
  UnOpKind un_op() const { return un_op_; }
  const ExprPtr& left() const { return left_; }
  const ExprPtr& right() const { return right_; }
  const ExprPtr& operand() const { return left_; }
  const std::string& fn_name() const { return name_; }
  const std::vector<ExprPtr>& args() const { return args_; }
  /// Levels below this node: 0 for a column, literal or argument-less call,
  /// else one more than its deepest child. Every walk over the tree
  /// recurses this deep.
  int depth() const { return depth_; }

  /// Adds every referenced column name to `out` (projection pushdown input).
  void CollectColumns(std::set<std::string>* out) const;

  /// Infix rendering for plan display ("(a + 1) > 2").
  std::string ToString() const;

  /// Result type of this expression over `schema`; type errors surface here.
  Result<col::TypeId> InferType(const col::Schema& schema) const;

 private:
  Expr() = default;

  Kind kind_ = Kind::kLiteral;
  std::string name_;       // column name or function name
  col::Scalar literal_;
  BinOpKind bin_op_ = BinOpKind::kAdd;
  UnOpKind un_op_ = UnOpKind::kNeg;
  ExprPtr left_;
  ExprPtr right_;
  std::vector<ExprPtr> args_;
  int depth_ = 0;
};

const char* BinOpName(BinOpKind op);
bool IsComparison(BinOpKind op);
bool IsArithmetic(BinOpKind op);

}  // namespace bento::expr

#endif  // BENTO_EXPR_EXPR_H_
