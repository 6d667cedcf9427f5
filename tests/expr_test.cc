#include <gtest/gtest.h>

#include "expr/eval.h"
#include "expr/parser.h"
#include "tests/test_util.h"

namespace bento::expr {
namespace {

using col::Scalar;
using col::TypeId;
using test::F64;
using test::I64;
using test::MakeTable;
using test::Str;

TEST(ExprBuildTest, ToStringRendersInfix) {
  auto e = Expr::Binary(BinOpKind::kGt,
                        Expr::Binary(BinOpKind::kAdd, Expr::Column("a"),
                                     Expr::Literal(Scalar::Int(1))),
                        Expr::Literal(Scalar::Int(2)));
  EXPECT_EQ(e->ToString(), "((a + 1) > 2)");
}

TEST(ExprBuildTest, CollectColumns) {
  auto e = ParseExpr("a + b * fillna(c, 0) > d").ValueOrDie();
  std::set<std::string> cols;
  e->CollectColumns(&cols);
  EXPECT_EQ(cols, (std::set<std::string>{"a", "b", "c", "d"}));
}

TEST(ParserTest, Precedence) {
  EXPECT_EQ(ParseExpr("1 + 2 * 3").ValueOrDie()->ToString(), "(1 + (2 * 3))");
  EXPECT_EQ(ParseExpr("(1 + 2) * 3").ValueOrDie()->ToString(), "((1 + 2) * 3)");
  EXPECT_EQ(ParseExpr("a > 1 and b < 2 or c == 3").ValueOrDie()->ToString(),
            "(((a > 1) and (b < 2)) or (c == 3))");
  EXPECT_EQ(ParseExpr("2 ** 3 ** 2").ValueOrDie()->ToString(),
            "(2 ** (3 ** 2))");  // right associative
  EXPECT_EQ(ParseExpr("-x + 1").ValueOrDie()->ToString(), "((-x) + 1)");
}

TEST(ParserTest, LiteralsAndKeywords) {
  EXPECT_EQ(ParseExpr("42").ValueOrDie()->literal().int_value(), 42);
  EXPECT_DOUBLE_EQ(ParseExpr("-2.5").ValueOrDie()->literal().double_value(),
                   -2.5);
  EXPECT_TRUE(ParseExpr("True").ValueOrDie()->literal().bool_value());
  EXPECT_TRUE(ParseExpr("None").ValueOrDie()->literal().is_null());
  EXPECT_EQ(ParseExpr("'hi'").ValueOrDie()->literal().string_value(), "hi");
  EXPECT_EQ(ParseExpr("\"there\"").ValueOrDie()->literal().string_value(),
            "there");
}

TEST(ParserTest, AlternativeOperatorSpellings) {
  EXPECT_EQ(ParseExpr("a && b").ValueOrDie()->ToString(), "(a and b)");
  EXPECT_EQ(ParseExpr("a || b").ValueOrDie()->ToString(), "(a or b)");
  EXPECT_EQ(ParseExpr("a & b").ValueOrDie()->ToString(), "(a and b)");
  EXPECT_EQ(ParseExpr("!a").ValueOrDie()->ToString(), "(not a)");
  EXPECT_EQ(ParseExpr("not a").ValueOrDie()->ToString(), "(not a)");
}

TEST(ParserTest, FunctionCalls) {
  auto e = ParseExpr("round(log(a), 2)").ValueOrDie();
  EXPECT_EQ(e->kind(), Expr::Kind::kCall);
  EXPECT_EQ(e->fn_name(), "round");
  ASSERT_EQ(e->args().size(), 2u);
  EXPECT_EQ(e->args()[0]->fn_name(), "log");
}

TEST(ParserTest, Rejections) {
  EXPECT_FALSE(ParseExpr("").ok());
  EXPECT_FALSE(ParseExpr("a +").ok());
  EXPECT_FALSE(ParseExpr("(a").ok());
  EXPECT_FALSE(ParseExpr("f(a,").ok());
  EXPECT_FALSE(ParseExpr("'unterminated").ok());
  EXPECT_FALSE(ParseExpr("a b").ok());
  EXPECT_FALSE(ParseExpr("#").ok());
}

TEST(ParserTest, RejectsDeepNestingWithoutCrashing) {
  auto repeat = [](const std::string& s, int n) {
    std::string out;
    for (int i = 0; i < n; ++i) out += s;
    return out;
  };
  constexpr int kDeep = 100000;
  // Operator chains inside parentheses: each level's chain is short, but
  // every level deepens the left-deep tree by its whole chain.
  std::string nested_chains = "a";
  for (int i = 0; i < 200; ++i) {
    nested_chains = "(" + nested_chains + repeat(" + a", 200) + ")";
  }
  for (const std::string& text :
       {repeat("(", kDeep) + "a" + repeat(")", kDeep), repeat("(", kDeep),
        repeat("f(", kDeep) + "a" + repeat(")", kDeep),
        repeat("not ", kDeep) + "a", repeat("!", kDeep) + "a",
        repeat("-", kDeep) + "a", repeat("a ** ", kDeep) + "a",
        repeat("a + ", kDeep) + "a", repeat("a * ", kDeep) + "a",
        repeat("a and ", kDeep) + "a", repeat("a or ", kDeep) + "a",
        nested_chains}) {
    const auto parsed = ParseExpr(text);
    ASSERT_FALSE(parsed.ok()) << text.substr(0, 16);
    EXPECT_TRUE(parsed.status().IsInvalid()) << parsed.status().ToString();
  }
  // Nesting below the limit still parses.
  EXPECT_EQ(ParseExpr(repeat("(", 100) + "a" + repeat(")", 100))
                .ValueOrDie()
                ->ToString(),
            "a");
}

TEST(ParserTest, ChainJustUnderTheDepthLimitParsesAndEvaluates) {
  std::string text = "a";
  for (int i = 1; i < 256; ++i) text += " + a";
  ASSERT_OK_AND_ASSIGN(auto e, ParseExpr(text));
  EXPECT_EQ(e->depth(), 255);
  ASSERT_OK_AND_ASSIGN(auto out, Evaluate(e, MakeTable({{"a", I64({1, 2})}})));
  EXPECT_EQ(out->int64_data()[0], 256);
  EXPECT_EQ(out->int64_data()[1], 512);
  // Two more terms make the tree deeper than the 256-level limit.
  const auto over = ParseExpr(text + " + a + a");
  ASSERT_FALSE(over.ok());
  EXPECT_TRUE(over.status().IsInvalid()) << over.status().ToString();
}

TEST(InferTypeTest, Rules) {
  col::Schema schema({{"i", TypeId::kInt64},
                      {"f", TypeId::kFloat64},
                      {"s", TypeId::kString},
                      {"ts", TypeId::kTimestamp}});
  auto type_of = [&](const std::string& text) {
    return ParseExpr(text).ValueOrDie()->InferType(schema);
  };
  EXPECT_EQ(type_of("i + 1").ValueOrDie(), TypeId::kInt64);
  EXPECT_EQ(type_of("i / 2").ValueOrDie(), TypeId::kFloat64);
  EXPECT_EQ(type_of("i + f").ValueOrDie(), TypeId::kFloat64);
  EXPECT_EQ(type_of("i > 1").ValueOrDie(), TypeId::kBool);
  EXPECT_EQ(type_of("lower(s)").ValueOrDie(), TypeId::kString);
  EXPECT_EQ(type_of("contains(s, 'x')").ValueOrDie(), TypeId::kBool);
  EXPECT_EQ(type_of("year(ts)").ValueOrDie(), TypeId::kInt64);
  EXPECT_EQ(type_of("log(f)").ValueOrDie(), TypeId::kFloat64);
  EXPECT_FALSE(type_of("s + 1").ok());
  EXPECT_FALSE(type_of("missing_column").ok());
}

TEST(EvalTest, ArithmeticOverColumns) {
  auto t = MakeTable({{"a", F64({1.0, 2.0})}, {"b", F64({10.0, 20.0})}});
  auto e = ParseExpr("a * 2 + b").ValueOrDie();
  auto out = Evaluate(e, t).ValueOrDie();
  EXPECT_DOUBLE_EQ(out->float64_data()[0], 12.0);
  EXPECT_DOUBLE_EQ(out->float64_data()[1], 24.0);
}

TEST(EvalTest, PredicateWithStrings) {
  auto t = MakeTable({{"name", Str({"alice", "bob"})}, {"age", I64({30, 40})}});
  auto e = ParseExpr("age > 35 and name == 'bob'").ValueOrDie();
  auto out = Evaluate(e, t).ValueOrDie();
  EXPECT_EQ(out->bool_data()[0], 0);
  EXPECT_EQ(out->bool_data()[1], 1);
}

TEST(EvalTest, NullPropagation) {
  auto t = MakeTable({{"a", F64({1.0, 0.0}, {true, false})}});
  auto out = Evaluate(ParseExpr("a + 1").ValueOrDie(), t).ValueOrDie();
  EXPECT_FALSE(out->IsNull(0));
  EXPECT_TRUE(out->IsNull(1));
}

TEST(EvalTest, Functions) {
  auto t = MakeTable({{"x", F64({4.0, -1.0})},
                      {"s", Str({"Hello World", "bye"})}});
  EXPECT_DOUBLE_EQ(Evaluate(ParseExpr("sqrt(x)").ValueOrDie(), t)
                       .ValueOrDie()
                       ->float64_data()[0],
                   2.0);
  EXPECT_EQ(Evaluate(ParseExpr("lower(s)").ValueOrDie(), t)
                .ValueOrDie()
                ->GetView(0),
            "hello world");
  EXPECT_EQ(Evaluate(ParseExpr("contains(s, 'World')").ValueOrDie(), t)
                .ValueOrDie()
                ->bool_data()[0],
            1);
  EXPECT_EQ(Evaluate(ParseExpr("length(s)").ValueOrDie(), t)
                .ValueOrDie()
                ->int64_data()[1],
            3);
  EXPECT_DOUBLE_EQ(Evaluate(ParseExpr("fillna(x, 0.5)").ValueOrDie(), t)
                       .ValueOrDie()
                       ->float64_data()[0],
                   4.0);
  EXPECT_FALSE(Evaluate(ParseExpr("nosuchfn(x)").ValueOrDie(), t).ok());
}

TEST(EvalTest, IsNullFunction) {
  auto t = MakeTable({{"a", I64({1, 0}, {true, false})}});
  auto out = Evaluate(ParseExpr("isnull(a)").ValueOrDie(), t).ValueOrDie();
  EXPECT_EQ(out->bool_data()[0], 0);
  EXPECT_EQ(out->bool_data()[1], 1);
}

TEST(EvalTest, LiteralBroadcast) {
  auto t = MakeTable({{"a", I64({1, 2, 3})}});
  auto out = Evaluate(ParseExpr("7").ValueOrDie(), t).ValueOrDie();
  EXPECT_EQ(out->length(), 3);
  EXPECT_EQ(out->int64_data()[2], 7);
}

TEST(EvalTest, ErrorsSurface) {
  auto t = MakeTable({{"a", I64({1})}});
  EXPECT_FALSE(Evaluate(ParseExpr("zz + 1").ValueOrDie(), t).ok());
  EXPECT_FALSE(Evaluate(nullptr, t).ok());
}

}  // namespace
}  // namespace bento::expr
