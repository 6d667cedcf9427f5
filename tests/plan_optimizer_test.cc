// Golden plan-snapshot tests for the rule-based optimizer: each rewrite
// rule gets a before/after Explain() comparison plus negative cases proving
// the rule does NOT fire when the rewrite would be unsound. Includes the
// regression for the predicate-pushdown soundness hole (a filter must not
// hop before a drop of a column it references — that would mask a
// KeyError the unoptimized plan raises).
#include <gtest/gtest.h>

#include "columnar/builder.h"
#include "engines/lazy_engine.h"
#include "frame/engine.h"
#include "plan/logical_plan.h"
#include "plan/rules.h"
#include "sim/machine.h"
#include "tests/test_util.h"

namespace bento::plan {
namespace {

using col::Scalar;
using col::TypeId;
using frame::Op;
using frame::OpKind;
using test::F64;
using test::I64;
using test::MakeTable;
using test::Str;

/// Runs the full-policy driver (no engine context) and returns the explain
/// dump of the result.
std::string OptimizeAndExplain(std::vector<Op> ops) {
  LogicalPlan plan;
  plan.ops = std::move(ops);
  const RuleDriver driver{OptimizerPolicy{}};
  plan = driver.Run(std::move(plan), PlanContext{});
  return Explain(plan.ops);
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
}

// --- filter reordering over breakers ----------------------------------------

TEST(FilterReorderTest, KeyFilterHopsOverGroupBy) {
  EXPECT_EQ(OptimizeAndExplain(
                {Op::GroupByAgg({"team"}, {{"weight", kern::AggKind::kSum,
                                            "w"}}),
                 Op::Query("team == 'usa'")}),
            "query[team == 'usa']\n"
            "groupby[team | w = sum(weight)]\n");
}

TEST(FilterReorderTest, AggregateOutputFilterStaysPut) {
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

TEST(FilterReorderTest, SharedKeyFilterHopsOverMerge) {
  sim::Session session(sim::MachineSpec::Server());
  ASSERT_OK_AND_ASSIGN(auto engine, frame::CreateEngine("polars"));
  const col::TablePtr regions =
      MakeTable({{"noc", Str({"USA", "GER"})}, {"region", Str({"a", "b"})}});
  ASSERT_OK_AND_ASSIGN(auto other, engine->FromTable(regions));

  EXPECT_EQ(OptimizeAndExplain({Op::Merge(other, "noc", "noc"),
                                Op::Query("noc == 'USA'")}),
            "query[noc == 'USA']\n"
            "merge[noc = noc, inner]\n");
  // Differently-named keys: the probe-side column name is ambiguous after
  // the join, so the filter stays put.
  EXPECT_EQ(OptimizeAndExplain({Op::Merge(other, "committee", "noc"),
                                Op::Query("committee == 'USA'")}),
            "merge[committee = noc, inner]\n"
            "query[committee == 'USA']\n");
  // A filter over a right-side payload column must not hop either.
  EXPECT_EQ(OptimizeAndExplain({Op::Merge(other, "noc", "noc"),
                                Op::Query("region == 'a'")}),
            "merge[noc = noc, inner]\n"
            "query[region == 'a']\n");
}

// --- preparator fusion -------------------------------------------------------

TEST(FusionTest, AdjacentFiltersCollapse) {
  EXPECT_EQ(OptimizeAndExplain(
                {Op::Query("age >= 20"), Op::Query("height < 2.0")}),
            "query[(age >= 20) and (height < 2.0)]\n");
}

TEST(FusionTest, SameColumnChainFuses) {
  EXPECT_EQ(OptimizeAndExplain({Op::FillNa("height", Scalar::Double(1.7)),
                                Op::Cast("height", TypeId::kFloat64),
                                Op::Round("height", 1)}),
            "fused[height: fillna; astype; round]\n");
}

TEST(FusionTest, DifferentColumnsDoNotFuse) {
  EXPECT_EQ(OptimizeAndExplain(
                {Op::Cast("height", TypeId::kFloat64), Op::StrLower("team")}),
            "astype[height -> float64]\n"
            "lower[team]\n");
}

TEST(FusionTest, BreakerInterruptsTheChain) {
  // A group-by between two maps over the same column keeps them apart
  // (fusion only collapses adjacent runs).
  EXPECT_EQ(OptimizeAndExplain(
                {Op::Round("weight", 1),
                 Op::GroupByAgg({"weight"}, {{"weight", kern::AggKind::kCount,
                                              "n"}}),
                 Op::Round("weight", 0)}),
            "round[weight, 1]\n"
            "groupby[weight | n = count(weight)]\n"
            "round[weight, 0]\n");
}

TEST(FusionTest, MeanFillDoesNotFuse) {
  // fillna-with-mean needs the whole-column mean; it stays a standalone op
  // (and a breaker for the streaming engines).
  EXPECT_EQ(OptimizeAndExplain(
                {Op::FillNaMean("height"), Op::Round("height", 1)}),
            "fillna[height = mean]\n"
            "round[height, 1]\n");
}

TEST(FusionTest, FusedChainExecutesLikeTheOriginal) {
  sim::Session session(sim::MachineSpec::Server());
  const col::TablePtr table = MakeTable(
      {{"v", F64({1.234, 5.678, 0.0}, {true, true, false})},
       {"k", I64({1, 2, 3})}});
  const std::vector<Op> ops = {Op::FillNa("v", Scalar::Double(9.0)),
                               Op::Round("v", 1)};
  for (const char* opt : {"polars", "polars_noopt"}) {
    SCOPED_TRACE(opt);
    ASSERT_OK_AND_ASSIGN(auto engine, frame::CreateEngine(opt));
    ASSERT_OK_AND_ASSIGN(auto frame, engine->FromTable(table));
    for (const Op& op : ops) {
      ASSERT_OK_AND_ASSIGN(frame, frame->Apply(op));
    }
    ASSERT_OK_AND_ASSIGN(auto got, frame->Collect());
    test::ExpectTablesEqual(
        MakeTable({{"v", F64({1.2, 5.7, 9.0})}, {"k", I64({1, 2, 3})}}), got);
  }
}

// --- dead / redundant op elimination ----------------------------------------

TEST(DeadOpTest, RepeatedDedupEliminated) {
  EXPECT_EQ(OptimizeAndExplain({Op::DropDuplicates(), Op::Query("age >= 20"),
                                Op::DropDuplicates()}),
            "dedup[*]\n"
            "query[age >= 20]\n");
  EXPECT_EQ(OptimizeAndExplain({Op::DropDuplicates({"noc", "season"}),
                                Op::DropDuplicates({"noc", "season"})}),
            "dedup[noc, season]\n");
}

TEST(DeadOpTest, DedupAfterGroupByEliminated) {
  // Group-by output is unique on its keys; a full-row dedup after it is a
  // no-op, as is a dedup on a superset of the keys drawn from the output.
  EXPECT_EQ(OptimizeAndExplain(
                {Op::GroupByAgg({"team"}, {{"weight", kern::AggKind::kSum,
                                            "w"}}),
                 Op::DropDuplicates()}),
            "groupby[team | w = sum(weight)]\n");
  EXPECT_EQ(OptimizeAndExplain(
                {Op::GroupByAgg({"team"}, {{"weight", kern::AggKind::kSum,
                                            "w"}}),
                 Op::DropDuplicates({"team", "w"})}),
            "groupby[team | w = sum(weight)]\n");
}

TEST(DeadOpTest, DedupSurvivesWhenNotProvenRedundant) {
  // Different subset: the second dedup may remove more rows.
  EXPECT_EQ(OptimizeAndExplain({Op::DropDuplicates({"noc"}),
                                Op::DropDuplicates({"season"})}),
            "dedup[noc]\n"
            "dedup[season]\n");
  // Value-changing op in between re-creates duplicates.
  EXPECT_EQ(OptimizeAndExplain({Op::DropDuplicates(), Op::Round("height", 0),
                                Op::DropDuplicates()}),
            "dedup[*]\n"
            "round[height, 0]\n"
            "dedup[*]\n");
  // Dedup referencing a column outside the group-by output must keep
  // raising its KeyError.
  EXPECT_EQ(OptimizeAndExplain(
                {Op::GroupByAgg({"team"}, {{"weight", kern::AggKind::kSum,
                                            "w"}}),
                 Op::DropDuplicates({"team", "height"})}),
            "groupby[team | w = sum(weight)]\n"
            "dedup[team, height]\n");
}

TEST(DeadOpTest, OverwrittenSortEliminated) {
  EXPECT_EQ(OptimizeAndExplain(
                {Op::SortValues({{"height", true}}), Op::Query("age >= 20"),
                 Op::SortValues({{"weight", true}, {"height", false}})}),
            "query[age >= 20]\n"
            "sort[weight asc, height desc]\n");
}

TEST(DeadOpTest, SortSurvivesWhenLaterSortHasFewerKeys) {
  // keys(A) ⊄ keys(B): A still orders B's ties.
  EXPECT_EQ(OptimizeAndExplain({Op::SortValues({{"height", true}}),
                                Op::SortValues({{"weight", true}})}),
            "sort[height asc]\n"
            "sort[weight asc]\n");
}

TEST(DeadOpTest, SortSurvivesWhenKeyColumnRewrittenBetween) {
  // Rounding the early key can collapse values the later sort then ties on
  // differently; the early sort still matters.
  EXPECT_EQ(OptimizeAndExplain(
                {Op::SortValues({{"height", true}}), Op::Round("height", 0),
                 Op::SortValues({{"weight", true}, {"height", true}})}),
            "sort[height asc]\n"
            "round[height, 0]\n"
            "sort[weight asc, height asc]\n");
}

TEST(DeadOpTest, AdjacentDisjointDropsMerge) {
  EXPECT_EQ(OptimizeAndExplain(
                {Op::DropColumns({"games"}), Op::DropColumns({"event"})}),
            "drop[games, event]\n");
  // Overlapping drops: the second op's KeyError must be preserved.
  EXPECT_EQ(OptimizeAndExplain(
                {Op::DropColumns({"games"}), Op::DropColumns({"games"})}),
            "drop[games]\n"
            "drop[games]\n");
}

// --- common-subplan elimination ---------------------------------------------

TEST(CommonSubplanTest, IdenticalMergeInputsShareOneFrame) {
  sim::Session session(sim::MachineSpec::Server());
  ASSERT_OK_AND_ASSIGN(auto engine, frame::CreateEngine("polars"));
  auto* lazy = dynamic_cast<eng::LazyEngineBase*>(engine.get());
  ASSERT_NE(lazy, nullptr);

  const col::TablePtr regions =
      MakeTable({{"noc", Str({"USA", "GER"})}, {"region", Str({"a", "b"})}});
  auto build_side = [&]() {
    auto frame = engine->FromTable(regions).ValueOrDie();
    return frame->Apply(Op::Query("noc == 'USA'")).ValueOrDie();
  };
  // Two structurally identical but distinct frames.
  auto left_input = build_side();
  auto right_input = build_side();
  ASSERT_NE(left_input.get(), right_input.get());

  std::vector<Op> optimized = lazy->Optimize(
      {Op::Merge(left_input, "noc", "noc"), Op::ApplyExpr("z", "height + 1"),
       Op::Merge(right_input, "noc", "noc")});
  ASSERT_EQ(optimized.size(), 3u);
  EXPECT_EQ(optimized[0].other.get(), optimized[2].other.get());
}

TEST(CommonSubplanTest, DifferentSubplansStayDistinct) {
  sim::Session session(sim::MachineSpec::Server());
  ASSERT_OK_AND_ASSIGN(auto engine, frame::CreateEngine("polars"));
  auto* lazy = dynamic_cast<eng::LazyEngineBase*>(engine.get());
  ASSERT_NE(lazy, nullptr);

  const col::TablePtr regions =
      MakeTable({{"noc", Str({"USA", "GER"})}, {"region", Str({"a", "b"})}});
  auto base = engine->FromTable(regions).ValueOrDie();
  auto filtered_a = base->Apply(Op::Query("noc == 'USA'")).ValueOrDie();
  auto filtered_b = base->Apply(Op::Query("noc == 'GER'")).ValueOrDie();

  std::vector<Op> optimized =
      lazy->Optimize({Op::Merge(filtered_a, "noc", "noc"),
                      Op::Merge(filtered_b, "noc", "noc")});
  ASSERT_EQ(optimized.size(), 2u);
  EXPECT_NE(optimized[0].other.get(), optimized[1].other.get());
}

// --- policy gating -----------------------------------------------------------

TEST(PolicyTest, DisabledFamiliesDoNotFire) {
  OptimizerPolicy policy;
  policy.predicate_pushdown = false;
  LogicalPlan plan;
  plan.ops = {Op::StrLower("team"), Op::Query("age >= 20")};
  const RuleDriver driver(policy);
  plan = driver.Run(std::move(plan), PlanContext{});
  EXPECT_EQ(Explain(plan.ops),
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
