// Golden plan-snapshot tests for plan::Optimize: each of its two rewrite
// rules (predicate and projection pushdown) gets a before/after Explain()
// comparison plus negative cases proving the rule does NOT fire when the
// rewrite would be unsound. Includes the regression for the
// predicate-pushdown soundness hole (a filter must not hop before a drop of
// a column it references — that would mask a KeyError the unoptimized plan
// raises).
#include <gtest/gtest.h>

#include <optional>

#include "columnar/builder.h"
#include "engines/lazy_engine.h"
#include "frame/engine.h"
#include "plan/logical_plan.h"
#include "plan/rules.h"
#include "sim/machine.h"
#include "tests/test_util.h"

namespace bento::plan {
namespace {

using col::TypeId;
using frame::Op;
using frame::OpKind;
using test::F64;
using test::I64;
using test::MakeTable;
using test::Str;

/// Optimizes under the full policy (no engine) and returns the explain dump
/// of the result.
std::string OptimizeAndExplain(std::vector<Op> ops) {
  return Explain(Optimize(std::move(ops), OptimizerPolicy{}));
}

TEST(ExplainTest, RendersOneOpPerLine) {
  EXPECT_EQ(Explain({Op::Query("age >= 20"), Op::Cast("year", TypeId::kFloat64),
                     Op::DropColumns({"games", "event"})}),
            "query[age >= 20]\n"
            "astype[year -> float64]\n"
            "drop[games, event]\n");
  EXPECT_EQ(Explain({Op::SortValues({{"height", true}, {"age", false}}),
                     Op::GroupByAgg({"team"}, {{"weight", kern::AggKind::kSum,
                                                "w"}})}),
            "sort[height asc, age desc]\n"
            "groupby[team | w = sum(weight)]\n");
}

// --- predicate pushdown ------------------------------------------------------

TEST(PredicatePushdownTest, FilterBubblesPastColumnMaps) {
  EXPECT_EQ(OptimizeAndExplain({Op::StrLower("team"), Op::Round("height", 1),
                                Op::Query("age >= 20")}),
            "query[age >= 20]\n"
            "lower[team]\n"
            "round[height, 1]\n");
}

TEST(PredicatePushdownTest, BlockedByColumnDependency) {
  // The filter reads the column the op rewrites: no hop.
  EXPECT_EQ(OptimizeAndExplain(
                {Op::Round("age", 0), Op::Query("age >= 20")}),
            "round[age, 0]\n"
            "query[age >= 20]\n");
}

TEST(PredicatePushdownTest, UnparsableFilterKeepsItsPlace) {
  // The parse error must not pre-empt the cast's missing-column error.
  EXPECT_EQ(OptimizeAndExplain({Op::Cast("missing", TypeId::kFloat64),
                                Op::Query("games >")}),
            "astype[missing -> float64]\n"
            "query[games >]\n");
}

TEST(PredicatePushdownTest, BlockedByCatCodes) {
  // Categorical codes depend on first appearance among remaining rows;
  // filtering first would change code assignment.
  EXPECT_EQ(OptimizeAndExplain({Op::CatCodes("team"), Op::Query("age >= 20")}),
            "catenc[team]\n"
            "query[age >= 20]\n");
}

// Regression: the seed optimizer let every filter hop before kDropColumns
// unconditionally, so `drop(c); query(c ...)` — a KeyError in the written
// plan — silently became `query(c ...); drop(c)` and succeeded.
TEST(PredicatePushdownTest, RegressionFilterMustNotCrossDropOfItsColumn) {
  EXPECT_EQ(OptimizeAndExplain(
                {Op::DropColumns({"games"}), Op::Query("games > 2000")}),
            "drop[games]\n"
            "query[games > 2000]\n");
  // Unrelated drops still commute — via projection pushdown pulling the
  // drop outermost (filters deliberately never hop drops themselves, so
  // the two rules cannot ping-pong).
  EXPECT_EQ(OptimizeAndExplain(
                {Op::Query("games > 2000"), Op::DropColumns({"event"})}),
            "drop[event]\n"
            "query[games > 2000]\n");
  EXPECT_EQ(OptimizeAndExplain(
                {Op::DropColumns({"event"}), Op::Query("games > 2000")}),
            "drop[event]\n"
            "query[games > 2000]\n");
}

TEST(QueryCanHopBeforeTest, DropColumnsIntersectionRule) {
  const Op query = Op::Query("games > 2000");
  const std::set<std::string> refs = QueryReferences(query);
  EXPECT_FALSE(QueryCanHopBefore(query, Op::DropColumns({"games"}), refs));
  EXPECT_FALSE(
      QueryCanHopBefore(query, Op::DropColumns({"event", "games"}), refs));
  EXPECT_TRUE(QueryCanHopBefore(query, Op::DropColumns({"event"}), refs));
}

TEST(QueryCanHopBeforeTest, EveryKind) {
  // A filter over `games` meeting one op per kind in enum order, then the
  // edge cases: for each column-writing kind, one op that writes `games`
  // and one that writes another column.
  const Op query = Op::Query("games > 2000");
  const std::set<std::string> refs = QueryReferences(query);
  ASSERT_EQ(refs, std::set<std::string>{"games"});
  const kern::RowFn row_fn = [](const col::Table&, int64_t) {
    return Result<col::Scalar>(col::Scalar::Double(1.0));
  };
  const std::vector<std::pair<Op, bool>> cases = {
      {Op::IsNa(), false},
      {Op::LocateOutliers("games"), false},
      {Op::SearchPattern("event", "Swim"), false},
      {Op::SortValues({{"games", true}}), true},
      {Op::GetColumns(), false},
      {Op::GetDtypes(), false},
      {Op::Describe(), false},
      {Op::Query("height > 1"), false},
      {Op::Cast("games", TypeId::kFloat64), false},
      {Op::DropColumns({"games"}), false},
      {Op::Rename({{"height", "h"}}), false},
      {Op::Pivot("event", "team", "height"), false},
      {Op::ApplyExpr("games", "height * 2"), false},
      {Op::Merge(nullptr, "noc", "noc"), false},
      {Op::GetDummies("event"), false},
      {Op::CatCodes("event"), false},
      {Op::GroupByAgg({"event"}, {{"height", kern::AggKind::kSum, "h"}}),
       false},
      {Op::ToDatetime("games"), false},
      {Op::DropNa(), true},
      {Op::StrLower("games"), false},
      {Op::Round("games", 0), false},
      {Op::DropDuplicates(), false},
      {Op::FillNa("games", col::Scalar::Int(0)), false},
      {Op::Replace("games", col::Scalar::Int(1), col::Scalar::Int(2)), false},
      {Op::ApplyRow("games", row_fn, TypeId::kFloat64), false},
      // Writes another column than the filter reads.
      {Op::Cast("height", TypeId::kFloat64), true},
      {Op::DropColumns({"event"}), true},
      {Op::DropColumns({}), true},
      {Op::ApplyExpr("bmi", "games * 2"), true},
      {Op::ApplyExpr("bmi", "height *"), true},
      {Op::ToDatetime("date"), true},
      {Op::StrLower("event"), true},
      {Op::Round("height", 1), true},
      {Op::FillNa("height", col::Scalar::Double(0)), true},
      {Op::Replace("event", col::Scalar::Str("a"), col::Scalar::Str("b")),
       true},
      {Op::ApplyRow("score", row_fn, TypeId::kFloat64), true},
      // Kinds whose answer ignores the columns.
      {Op::SortValues({{"height", false}}), true},
      {Op::DropNa({"games"}), true},
      {Op::DropNa({"height"}), true},
      {Op::Query("games > 1"), false},
      {Op::Rename({{"games", "g"}}), false},
      {Op::GetDummies("games"), false},
      {Op::CatCodes("games"), false},
      {Op::DropDuplicates({"event"}), false},
      {Op::FillNaMean("height"), false},
      {Op::FillNaMean("games"), false},
  };
  for (size_t k = 0; k < 25; ++k) {
    EXPECT_EQ(static_cast<size_t>(cases[k].first.kind), k);
  }
  for (const auto& [prev, hops] : cases) {
    EXPECT_EQ(QueryCanHopBefore(query, prev, refs), hops) << OpSummary(prev);
  }
  // A filter that does not parse references nothing, so the rule lets it
  // past a column map; PushDownPredicates never asks, because it leaves
  // such a filter where it is.
  const Op bad = Op::Query("games >");
  EXPECT_TRUE(QueryReferences(bad).empty());
  EXPECT_TRUE(QueryCanHopBefore(bad, Op::Cast("games", TypeId::kFloat64),
                                QueryReferences(bad)));
}

TEST(OpColumnFootprintTest, EveryKind) {
  // One op per kind in enum order, then edge cases; nullopt is "touches the
  // whole row".
  using Footprint = std::optional<std::set<std::string>>;
  const kern::RowFn row_fn = [](const col::Table&, int64_t) {
    return Result<col::Scalar>(col::Scalar::Double(1.0));
  };
  const std::vector<std::pair<Op, Footprint>> cases = {
      {Op::IsNa(), std::nullopt},
      {Op::LocateOutliers("games"), std::nullopt},
      {Op::SearchPattern("event", "Swim"), std::nullopt},
      {Op::SortValues({{"games", true}, {"height", false}}),
       std::set<std::string>{"games", "height"}},
      {Op::GetColumns(), std::nullopt},
      {Op::GetDtypes(), std::nullopt},
      {Op::Describe(), std::nullopt},
      {Op::Query("games > height"), std::set<std::string>{"games", "height"}},
      {Op::Cast("games", TypeId::kFloat64), std::set<std::string>{"games"}},
      {Op::DropColumns({"event", "games"}),
       std::set<std::string>{"event", "games"}},
      {Op::Rename({{"height", "h"}}), std::nullopt},
      {Op::Pivot("event", "team", "height"), std::nullopt},
      {Op::ApplyExpr("bmi", "height / games"),
       std::set<std::string>{"bmi", "games", "height"}},
      {Op::Merge(nullptr, "noc", "noc"), std::nullopt},
      {Op::GetDummies("event"), std::nullopt},
      {Op::CatCodes("event"), std::set<std::string>{"event"}},
      {Op::GroupByAgg({"event"}, {{"height", kern::AggKind::kSum, "h"}}),
       std::nullopt},
      {Op::ToDatetime("date"), std::set<std::string>{"date"}},
      {Op::DropNa({"height"}), std::set<std::string>{"height"}},
      {Op::StrLower("event"), std::set<std::string>{"event"}},
      {Op::Round("height", 1), std::set<std::string>{"height"}},
      {Op::DropDuplicates({"event"}), std::nullopt},
      {Op::FillNa("height", col::Scalar::Double(0)),
       std::set<std::string>{"height"}},
      {Op::Replace("event", col::Scalar::Str("a"), col::Scalar::Str("b")),
       std::set<std::string>{"event"}},
      {Op::ApplyRow("score", row_fn, TypeId::kFloat64), std::nullopt},
      // Edge cases.
      {Op::DropNa(), std::nullopt},
      {Op::DropDuplicates(), std::nullopt},
      {Op::DropColumns({}), std::set<std::string>{}},
      {Op::ApplyExpr("bmi", "height *"), std::nullopt},
      {Op::Query("games >"), std::nullopt},
      {Op::FillNaMean("height"), std::set<std::string>{"height"}},
  };
  for (size_t k = 0; k < 25; ++k) {
    EXPECT_EQ(static_cast<size_t>(cases[k].first.kind), k);
  }
  for (const auto& [op, expected] : cases) {
    std::set<std::string> touched;
    const bool known = OpColumnFootprint(op, &touched);
    EXPECT_EQ(known, expected.has_value()) << OpSummary(op);
    if (known && expected.has_value()) {
      EXPECT_EQ(touched, *expected) << OpSummary(op);
    }
  }
}

// End-to-end: the lazy-optimized engine must raise the same KeyError the
// eager reference raises for a filter over a dropped column.
TEST(PredicatePushdownTest, RegressionDroppedColumnFilterStillErrors) {
  sim::Session session(sim::MachineSpec::Server());
  const col::TablePtr table = MakeTable(
      {{"games", I64({1896, 2016})}, {"height", F64({1.7, 1.9})}});
  for (const char* id : {"polars", "spark_sql", "pandas"}) {
    SCOPED_TRACE(id);
    ASSERT_OK_AND_ASSIGN(auto engine, frame::CreateEngine(id));
    ASSERT_OK_AND_ASSIGN(auto frame, engine->FromTable(table));
    ASSERT_OK_AND_ASSIGN(frame, frame->Apply(Op::DropColumns({"games"})));
    auto applied = frame->Apply(Op::Query("games > 1900"));
    const Status status =
        applied.ok() ? applied.ValueOrDie()->Collect().status()
                     : applied.status();
    EXPECT_TRUE(status.IsKeyError()) << status.ToString();
  }
}

// --- projection pushdown -----------------------------------------------------

TEST(ProjectionPushdownTest, DropBubblesPastUnrelatedOps) {
  EXPECT_EQ(OptimizeAndExplain(
                {Op::Round("height", 1), Op::DropColumns({"team"})}),
            "drop[team]\n"
            "round[height, 1]\n");
}

TEST(ProjectionPushdownTest, BlockedWhenOpTouchesDroppedColumn) {
  EXPECT_EQ(OptimizeAndExplain(
                {Op::Round("height", 1), Op::DropColumns({"height"})}),
            "round[height, 1]\n"
            "drop[height]\n");
  EXPECT_EQ(OptimizeAndExplain(
                {Op::Query("height > 1.5"), Op::DropColumns({"height"})}),
            "query[height > 1.5]\n"
            "drop[height]\n");
  // A filter that does not parse names no columns, so a drop stays after
  // it and the parse error still comes first.
  EXPECT_EQ(OptimizeAndExplain(
                {Op::Query("height >"), Op::DropColumns({"team"})}),
            "query[height >]\n"
            "drop[team]\n");
}

// --- breakers block predicate pushdown ---------------------------------------
//
// A filter written after a group-by or a merge stays where it was written,
// whatever columns it reads.

TEST(PredicatePushdownTest, KeyFilterStaysAfterGroupBy) {
  EXPECT_EQ(OptimizeAndExplain(
                {Op::GroupByAgg({"team"}, {{"weight", kern::AggKind::kSum,
                                            "w"}}),
                 Op::Query("team == 'usa'")}),
            "groupby[team | w = sum(weight)]\n"
            "query[team == 'usa']\n");
}

TEST(PredicatePushdownTest, AggregateOutputFilterStaysAfterGroupBy) {
  // The filter reads the aggregate's output column, which does not exist
  // before the group-by.
  EXPECT_EQ(OptimizeAndExplain(
                {Op::GroupByAgg({"team"}, {{"weight", kern::AggKind::kSum,
                                            "w"}}),
                 Op::Query("w > 100")}),
            "groupby[team | w = sum(weight)]\n"
            "query[w > 100]\n");
  // Same with the default "<column>_<agg>" output name.
  EXPECT_EQ(OptimizeAndExplain(
                {Op::GroupByAgg({"team"}, {{"weight", kern::AggKind::kSum,
                                            ""}}),
                 Op::Query("weight_sum > 100")}),
            "groupby[team | weight_sum = sum(weight)]\n"
            "query[weight_sum > 100]\n");
}

TEST(PredicatePushdownTest, FilterStaysAfterMerge) {
  sim::Session session(sim::MachineSpec::Server());
  ASSERT_OK_AND_ASSIGN(auto engine, frame::CreateEngine("polars"));
  const col::TablePtr regions =
      MakeTable({{"noc", Str({"USA", "GER"})}, {"region", Str({"a", "b"})}});
  ASSERT_OK_AND_ASSIGN(auto other, engine->FromTable(regions));

  // A filter on the shared join key.
  EXPECT_EQ(OptimizeAndExplain({Op::Merge(other, "noc", "noc"),
                                Op::Query("noc == 'USA'")}),
            "merge[noc = noc, inner]\n"
            "query[noc == 'USA']\n");
  // On a probe-side key whose build-side name differs.
  EXPECT_EQ(OptimizeAndExplain({Op::Merge(other, "committee", "noc"),
                                Op::Query("committee == 'USA'")}),
            "merge[committee = noc, inner]\n"
            "query[committee == 'USA']\n");
  // On a right-side payload column.
  EXPECT_EQ(OptimizeAndExplain({Op::Merge(other, "noc", "noc"),
                                Op::Query("region == 'a'")}),
            "merge[noc = noc, inner]\n"
            "query[region == 'a']\n");
}

// --- policy gating -----------------------------------------------------------

TEST(PolicyTest, DisabledFamiliesDoNotFire) {
  OptimizerPolicy policy;
  policy.predicate_pushdown = false;
  EXPECT_EQ(Explain(Optimize({Op::StrLower("team"), Op::Query("age >= 20")},
                             policy)),
            "lower[team]\n"
            "query[age >= 20]\n");
}

TEST(PolicyTest, NooptEngineRunsPlanAsWritten) {
  ASSERT_OK_AND_ASSIGN(auto engine, frame::CreateEngine("polars_noopt"));
  auto* lazy = dynamic_cast<eng::LazyEngineBase*>(engine.get());
  ASSERT_NE(lazy, nullptr);
  EXPECT_FALSE(lazy->optimizer_enabled());
  std::vector<Op> optimized =
      lazy->Optimize({Op::StrLower("team"), Op::Query("age >= 20")});
  ASSERT_EQ(optimized.size(), 2u);
  EXPECT_EQ(optimized[0].kind, OpKind::kStrLower);
  EXPECT_EQ(optimized[1].kind, OpKind::kQuery);
}

}  // namespace
}  // namespace bento::plan
