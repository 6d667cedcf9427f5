// Golden plan-snapshot tests for plan::Optimize: each of its two rewrite
// rules (predicate and projection pushdown) gets a before/after Explain()
// comparison plus negative cases proving the rule does NOT fire when the
// rewrite would be unsound. Includes the regression for the
// predicate-pushdown soundness hole (a filter must not hop before a drop of
// a column it references — that would mask a KeyError the unoptimized plan
// raises).
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
