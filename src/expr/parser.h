#ifndef BENTO_EXPR_PARSER_H_
#define BENTO_EXPR_PARSER_H_

#include <string_view>

#include "expr/expr.h"

namespace bento::expr {

/// \brief Parses a Pandas-`query`-style expression string into an AST.
///
/// Grammar (precedence climbing, loosest first):
///   or_expr    := and_expr (("or" | "||" | "|") and_expr)*
///   and_expr   := not_expr (("and" | "&&" | "&") not_expr)*
///   not_expr   := ("not" | "!") not_expr | comparison
///   comparison := additive (("=="|"!="|"<"|"<="|">"|">=") additive)?
///   additive   := term (("+"|"-") term)*
///   term       := power (("*"|"/"|"%") power)*
///   power      := unary ("**" power)?
///   unary      := "-" unary | primary
///   primary    := number | 'string' | "string" | true | false | null
///              | identifier | identifier "(" args ")" | "(" or_expr ")"
///
/// Identifiers are column names unless followed by "(", in which case they
/// are function calls (see Expr::Call for the function inventory). Input
/// whose tree would be more than 256 levels deep, by nesting or by a long
/// operator chain, returns Invalid.
Result<ExprPtr> ParseExpr(std::string_view text);

}  // namespace bento::expr

#endif  // BENTO_EXPR_PARSER_H_
