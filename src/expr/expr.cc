#include "expr/expr.h"

#include <algorithm>

namespace bento::expr {

ExprPtr Expr::Column(std::string name) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = Kind::kColumn;
  e->name_ = std::move(name);
  return e;
}

ExprPtr Expr::Literal(col::Scalar value) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = Kind::kLiteral;
  e->literal_ = std::move(value);
  return e;
}

ExprPtr Expr::Binary(BinOpKind op, ExprPtr left, ExprPtr right) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = Kind::kBinary;
  e->bin_op_ = op;
  e->left_ = std::move(left);
  e->right_ = std::move(right);
  e->depth_ = 1 + std::max(e->left_->depth_, e->right_->depth_);
  return e;
}

ExprPtr Expr::Unary(UnOpKind op, ExprPtr operand) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = Kind::kUnary;
  e->un_op_ = op;
  e->left_ = std::move(operand);
  e->depth_ = 1 + e->left_->depth_;
  return e;
}

ExprPtr Expr::Call(std::string fn, std::vector<ExprPtr> args) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->kind_ = Kind::kCall;
  e->name_ = std::move(fn);
  e->args_ = std::move(args);
  for (const ExprPtr& arg : e->args_) {
    e->depth_ = std::max(e->depth_, 1 + arg->depth_);
  }
  return e;
}

void Expr::CollectColumns(std::set<std::string>* out) const {
  switch (kind_) {
    case Kind::kColumn:
      out->insert(name_);
      break;
    case Kind::kLiteral:
      break;
    case Kind::kBinary:
      left_->CollectColumns(out);
      right_->CollectColumns(out);
      break;
    case Kind::kUnary:
      left_->CollectColumns(out);
      break;
    case Kind::kCall:
      for (const ExprPtr& a : args_) a->CollectColumns(out);
      break;
  }
}

const char* BinOpName(BinOpKind op) {
  switch (op) {
    case BinOpKind::kAdd:
      return "+";
    case BinOpKind::kSub:
      return "-";
    case BinOpKind::kMul:
      return "*";
    case BinOpKind::kDiv:
      return "/";
    case BinOpKind::kMod:
      return "%";
    case BinOpKind::kPow:
      return "**";
    case BinOpKind::kEq:
      return "==";
    case BinOpKind::kNe:
      return "!=";
    case BinOpKind::kLt:
      return "<";
    case BinOpKind::kLe:
      return "<=";
    case BinOpKind::kGt:
      return ">";
    case BinOpKind::kGe:
      return ">=";
    case BinOpKind::kAnd:
      return "and";
    case BinOpKind::kOr:
      return "or";
  }
  return "?";
}

bool IsComparison(BinOpKind op) {
  switch (op) {
    case BinOpKind::kEq:
    case BinOpKind::kNe:
    case BinOpKind::kLt:
    case BinOpKind::kLe:
    case BinOpKind::kGt:
    case BinOpKind::kGe:
      return true;
    default:
      return false;
  }
}

bool IsArithmetic(BinOpKind op) {
  switch (op) {
    case BinOpKind::kAdd:
    case BinOpKind::kSub:
    case BinOpKind::kMul:
    case BinOpKind::kDiv:
    case BinOpKind::kMod:
    case BinOpKind::kPow:
      return true;
    default:
      return false;
  }
}

std::string Expr::ToString() const {
  switch (kind_) {
    case Kind::kColumn:
      return name_;
    // The pieces are appended: `"lit" + std::string&&` trips a GCC 12
    // -Wrestrict false positive.
    case Kind::kLiteral: {
      if (literal_.kind() != col::Scalar::Kind::kString) {
        return literal_.ToString();
      }
      std::string out = "'";
      out += literal_.ToString();
      out += '\'';
      return out;
    }
    case Kind::kBinary: {
      std::string out = "(";
      out += left_->ToString();
      out += ' ';
      out += BinOpName(bin_op_);
      out += ' ';
      out += right_->ToString();
      out += ')';
      return out;
    }
    case Kind::kUnary: {
      std::string out = un_op_ == UnOpKind::kNeg ? "(-" : "(not ";
      out += left_->ToString();
      out += ')';
      return out;
    }
    case Kind::kCall: {
      std::string out = name_ + "(";
      for (size_t i = 0; i < args_.size(); ++i) {
        if (i > 0) out += ", ";
        out += args_[i]->ToString();
      }
      return out + ")";
    }
  }
  return "?";
}

Result<col::TypeId> Expr::InferType(const col::Schema& schema) const {
  using col::TypeId;
  switch (kind_) {
    case Kind::kColumn: {
      BENTO_ASSIGN_OR_RETURN(auto field, schema.GetField(name_));
      return field.type;
    }
    case Kind::kLiteral:
      switch (literal_.kind()) {
        case col::Scalar::Kind::kInt:
          return TypeId::kInt64;
        case col::Scalar::Kind::kDouble:
          return TypeId::kFloat64;
        case col::Scalar::Kind::kBool:
          return TypeId::kBool;
        case col::Scalar::Kind::kString:
          return TypeId::kString;
        case col::Scalar::Kind::kTimestamp:
          return TypeId::kTimestamp;
        case col::Scalar::Kind::kNull:
          return TypeId::kFloat64;  // typeless null defaults to float
      }
      return TypeId::kFloat64;
    case Kind::kBinary: {
      BENTO_ASSIGN_OR_RETURN(TypeId lt, left_->InferType(schema));
      BENTO_ASSIGN_OR_RETURN(TypeId rt, right_->InferType(schema));
      if (IsComparison(bin_op_) || bin_op_ == BinOpKind::kAnd ||
          bin_op_ == BinOpKind::kOr) {
        return TypeId::kBool;
      }
      if (!col::IsNumeric(lt) && lt != TypeId::kBool) {
        return Status::TypeError("arithmetic on ", col::TypeName(lt));
      }
      if (!col::IsNumeric(rt) && rt != TypeId::kBool) {
        return Status::TypeError("arithmetic on ", col::TypeName(rt));
      }
      if (lt == TypeId::kInt64 && rt == TypeId::kInt64 &&
          (bin_op_ == BinOpKind::kAdd || bin_op_ == BinOpKind::kSub ||
           bin_op_ == BinOpKind::kMul)) {
        return TypeId::kInt64;
      }
      return TypeId::kFloat64;
    }
    case Kind::kUnary: {
      BENTO_ASSIGN_OR_RETURN(TypeId t, left_->InferType(schema));
      if (un_op_ == UnOpKind::kNot) return TypeId::kBool;
      return t == TypeId::kInt64 ? TypeId::kInt64 : TypeId::kFloat64;
    }
    case Kind::kCall: {
      if (name_ == "lower") return TypeId::kString;
      if (name_ == "contains" || name_ == "isnull") return TypeId::kBool;
      if (name_ == "length" || name_ == "year" || name_ == "month" ||
          name_ == "day" || name_ == "hour" || name_ == "weekday") {
        return TypeId::kInt64;
      }
      if (name_ == "abs" || name_ == "round" || name_ == "fillna") {
        if (args_.empty()) return Status::Invalid(name_, " needs arguments");
        return args_[0]->InferType(schema);
      }
      // log / log1p / exp / sqrt
      return TypeId::kFloat64;
    }
  }
  return Status::Invalid("bad expression");
}

}  // namespace bento::expr
