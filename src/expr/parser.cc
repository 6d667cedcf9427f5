#include "expr/parser.h"

#include <cctype>
#include <charconv>

namespace bento::expr {

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<ExprPtr> Parse() {
    BENTO_ASSIGN_OR_RETURN(ExprPtr e, ParseOr());
    SkipWs();
    if (pos_ != text_.size()) {
      return Status::Invalid("unexpected trailing input at offset ", pos_,
                             " in expression: ", std::string(text_));
    }
    return e;
  }

 private:
  Result<ExprPtr> ParseOr() {
    BENTO_ASSIGN_OR_RETURN(ExprPtr left, ParseAnd());
    while (true) {
      SkipWs();
      if (ConsumeWord("or") || Consume("||") || ConsumeSingle('|')) {
        BENTO_ASSIGN_OR_RETURN(ExprPtr right, ParseAnd());
        BENTO_ASSIGN_OR_RETURN(left, Binary(BinOpKind::kOr, left, right));
      } else {
        return left;
      }
    }
  }

  Result<ExprPtr> ParseAnd() {
    BENTO_ASSIGN_OR_RETURN(ExprPtr left, ParseNot());
    while (true) {
      SkipWs();
      if (ConsumeWord("and") || Consume("&&") || ConsumeSingle('&')) {
        BENTO_ASSIGN_OR_RETURN(ExprPtr right, ParseNot());
        BENTO_ASSIGN_OR_RETURN(left, Binary(BinOpKind::kAnd, left, right));
      } else {
        return left;
      }
    }
  }

  Result<ExprPtr> ParseNot() {
    SkipWs();
    if (ConsumeWord("not") || (Peek() == '!' && PeekAt(1) != '=')) {
      if (Peek() == '!') ++pos_;
      BENTO_ASSIGN_OR_RETURN(ExprPtr e, Nested([&] { return ParseNot(); }));
      return Expr::Unary(UnOpKind::kNot, e);
    }
    return ParseComparison();
  }

  Result<ExprPtr> ParseComparison() {
    BENTO_ASSIGN_OR_RETURN(ExprPtr left, ParseAdditive());
    SkipWs();
    BinOpKind op;
    if (Consume("==")) {
      op = BinOpKind::kEq;
    } else if (Consume("!=")) {
      op = BinOpKind::kNe;
    } else if (Consume("<=")) {
      op = BinOpKind::kLe;
    } else if (Consume(">=")) {
      op = BinOpKind::kGe;
    } else if (Peek() == '<') {
      ++pos_;
      op = BinOpKind::kLt;
    } else if (Peek() == '>') {
      ++pos_;
      op = BinOpKind::kGt;
    } else {
      return left;
    }
    BENTO_ASSIGN_OR_RETURN(ExprPtr right, ParseAdditive());
    return Binary(op, left, right);
  }

  Result<ExprPtr> ParseAdditive() {
    BENTO_ASSIGN_OR_RETURN(ExprPtr left, ParseTerm());
    while (true) {
      SkipWs();
      char c = Peek();
      if (c == '+' || c == '-') {
        ++pos_;
        BENTO_ASSIGN_OR_RETURN(ExprPtr right, ParseTerm());
        BENTO_ASSIGN_OR_RETURN(
            left, Binary(c == '+' ? BinOpKind::kAdd : BinOpKind::kSub, left,
                         right));
      } else {
        return left;
      }
    }
  }

  Result<ExprPtr> ParseTerm() {
    BENTO_ASSIGN_OR_RETURN(ExprPtr left, ParsePower());
    while (true) {
      SkipWs();
      char c = Peek();
      if (c == '*' && PeekAt(1) != '*') {
        ++pos_;
        BENTO_ASSIGN_OR_RETURN(ExprPtr right, ParsePower());
        BENTO_ASSIGN_OR_RETURN(left, Binary(BinOpKind::kMul, left, right));
      } else if (c == '/') {
        ++pos_;
        BENTO_ASSIGN_OR_RETURN(ExprPtr right, ParsePower());
        BENTO_ASSIGN_OR_RETURN(left, Binary(BinOpKind::kDiv, left, right));
      } else if (c == '%') {
        ++pos_;
        BENTO_ASSIGN_OR_RETURN(ExprPtr right, ParsePower());
        BENTO_ASSIGN_OR_RETURN(left, Binary(BinOpKind::kMod, left, right));
      } else {
        return left;
      }
    }
  }

  Result<ExprPtr> ParsePower() {
    BENTO_ASSIGN_OR_RETURN(ExprPtr left, ParseUnary());
    SkipWs();
    if (Consume("**")) {
      BENTO_ASSIGN_OR_RETURN(ExprPtr right,  // right-assoc
                             Nested([&] { return ParsePower(); }));
      return Binary(BinOpKind::kPow, left, right);
    }
    return left;
  }

  Result<ExprPtr> ParseUnary() {
    SkipWs();
    if (Peek() == '-') {
      ++pos_;
      BENTO_ASSIGN_OR_RETURN(ExprPtr e, Nested([&] { return ParseUnary(); }));
      // Fold negative numeric literals.
      if (e->kind() == Expr::Kind::kLiteral && e->literal().is_numeric()) {
        if (e->literal().kind() == col::Scalar::Kind::kInt) {
          return Expr::Literal(col::Scalar::Int(-e->literal().int_value()));
        }
        return Expr::Literal(col::Scalar::Double(-e->literal().double_value()));
      }
      return Expr::Unary(UnOpKind::kNeg, e);
    }
    return ParsePrimary();
  }

  Result<ExprPtr> ParsePrimary() {
    SkipWs();
    char c = Peek();
    if (c == '\0') return Status::Invalid("unexpected end of expression");
    if (c == '(') {
      ++pos_;
      BENTO_ASSIGN_OR_RETURN(ExprPtr e, Nested([&] { return ParseOr(); }));
      SkipWs();
      if (Peek() != ')') return Status::Invalid("expected ')' at ", pos_);
      ++pos_;
      return e;
    }
    if (c == '\'' || c == '"') return ParseString(c);
    if (std::isdigit(static_cast<unsigned char>(c)) || c == '.') {
      return ParseNumber();
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      return ParseIdentifier();
    }
    return Status::Invalid("unexpected character '", std::string(1, c),
                           "' at offset ", pos_);
  }

  Result<ExprPtr> ParseString(char quote) {
    ++pos_;
    std::string value;
    while (pos_ < text_.size() && text_[pos_] != quote) {
      value.push_back(text_[pos_++]);
    }
    if (pos_ >= text_.size()) return Status::Invalid("unterminated string");
    ++pos_;
    return Expr::Literal(col::Scalar::Str(std::move(value)));
  }

  Result<ExprPtr> ParseNumber() {
    size_t start = pos_;
    bool is_float = false;
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E') {
        is_float = true;
        ++pos_;
        if ((c == 'e' || c == 'E') && pos_ < text_.size() &&
            (text_[pos_] == '+' || text_[pos_] == '-')) {
          ++pos_;
        }
      } else {
        break;
      }
    }
    std::string_view tok = text_.substr(start, pos_ - start);
    if (is_float) {
      double v = 0.0;
      auto [p, ec] = std::from_chars(tok.data(), tok.data() + tok.size(), v);
      if (ec != std::errc() || p != tok.data() + tok.size()) {
        return Status::Invalid("bad number '", std::string(tok), "'");
      }
      return Expr::Literal(col::Scalar::Double(v));
    }
    int64_t v = 0;
    auto [p, ec] = std::from_chars(tok.data(), tok.data() + tok.size(), v);
    if (ec != std::errc() || p != tok.data() + tok.size()) {
      return Status::Invalid("bad number '", std::string(tok), "'");
    }
    return Expr::Literal(col::Scalar::Int(v));
  }

  Result<ExprPtr> ParseIdentifier() {
    size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '_' || text_[pos_] == '.')) {
      ++pos_;
    }
    std::string name(text_.substr(start, pos_ - start));
    if (name == "true" || name == "True") {
      return Expr::Literal(col::Scalar::Bool(true));
    }
    if (name == "false" || name == "False") {
      return Expr::Literal(col::Scalar::Bool(false));
    }
    if (name == "null" || name == "None" || name == "nan" || name == "NaN") {
      return Expr::Literal(col::Scalar::Null());
    }
    SkipWs();
    if (Peek() == '(') {
      ++pos_;
      std::vector<ExprPtr> args;
      SkipWs();
      if (Peek() == ')') {
        ++pos_;
        return Expr::Call(std::move(name), std::move(args));
      }
      while (true) {
        BENTO_ASSIGN_OR_RETURN(ExprPtr arg, Nested([&] { return ParseOr(); }));
        args.push_back(std::move(arg));
        SkipWs();
        if (Peek() == ',') {
          ++pos_;
          continue;
        }
        if (Peek() == ')') {
          ++pos_;
          break;
        }
        return Status::Invalid("expected ',' or ')' in call at ", pos_);
      }
      return Expr::Call(std::move(name), std::move(args));
    }
    return Expr::Column(std::move(name));
  }

  /// Runs one recursive production one level deeper. Every recursion in the
  /// grammar goes through here, so hostile nesting returns a Status instead
  /// of exhausting the stack.
  template <typename Fn>
  Result<ExprPtr> Nested(Fn parse) {
    if (depth_ >= kMaxDepth) return TooDeep();
    ++depth_;
    Result<ExprPtr> e = parse();
    --depth_;
    return e;
  }

  /// Builds a binary node. Operator chains (`a + a + ... + a`) loop instead
  /// of recursing, but each step deepens the left-deep tree by one level, so
  /// the node counts its own depth against the limit: no parsed tree is
  /// deeper than kMaxDepth, and walks over it cannot exhaust the stack.
  Result<ExprPtr> Binary(BinOpKind op, ExprPtr left, ExprPtr right) {
    ExprPtr e = Expr::Binary(op, std::move(left), std::move(right));
    if (depth_ + e->depth() > kMaxDepth) return TooDeep();
    return e;
  }

  Status TooDeep() const {
    return Status::Invalid("expression nested deeper than ", kMaxDepth,
                           " levels at offset ", pos_);
  }

  void SkipWs() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  char PeekAt(size_t k) const {
    return pos_ + k < text_.size() ? text_[pos_ + k] : '\0';
  }

  bool Consume(std::string_view tok) {
    if (text_.substr(pos_, tok.size()) == tok) {
      pos_ += tok.size();
      return true;
    }
    return false;
  }

  /// Consumes `c` only when not doubled (so "|" doesn't eat half of "||").
  bool ConsumeSingle(char c) {
    if (Peek() == c && PeekAt(1) != c) {
      ++pos_;
      return true;
    }
    return false;
  }

  /// Consumes a keyword followed by a non-identifier character.
  bool ConsumeWord(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    size_t after = pos_ + word.size();
    if (after < text_.size() &&
        (std::isalnum(static_cast<unsigned char>(text_[after])) ||
         text_[after] == '_')) {
      return false;
    }
    pos_ = after;
    return true;
  }

  static constexpr int kMaxDepth = 256;

  std::string_view text_;
  size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

Result<ExprPtr> ParseExpr(std::string_view text) {
  return Parser(text).Parse();
}

}  // namespace bento::expr
