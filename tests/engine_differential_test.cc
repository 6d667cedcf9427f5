// Cross-engine differential suite: every registered engine, every
// preparator of the paper's Table II, on seeded generated data, in BOTH
// execution modes (simulated schedule vs real work-stealing threads).
//
// Two invariants are locked down:
//  1. Per engine, kReal execution is bit-identical to kSimulated — the
//     real backend must never change results, only wall time.
//  2. Per preparator, every engine agrees with the eager Pandas reference
//     on values (modulo documented policy differences: approximate
//     quantiles, group emission order, spark_pd's materialized index).
#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "columnar/builder.h"
#include "datagen/datasets.h"
#include "frame/engine.h"
#include "kernels/encode.h"
#include "kernels/selection.h"
#include "obs/trace.h"
#include "sim/machine.h"
#include "sim/parallel.h"
#include "tests/test_util.h"

namespace bento::eng {
namespace {

using col::Scalar;
using col::TablePtr;
using col::TypeId;
using frame::ActionResult;
using frame::Op;
using frame::OpKind;

/// One preparator case. `build` receives the engine so kMerge can wrap the
/// regions table in an engine-owned frame.
struct OpCase {
  std::string name;
  std::function<Op(const frame::EnginePtr&, const TablePtr& regions)> build;
  /// Row order is engine-dependent (partitioned emission): compare sorted
  /// by these keys instead of positionally.
  std::vector<std::string> equivalence_keys = {};
  /// Result depends on the approx_quantile policy: restrict the
  /// cross-engine comparison to exact-quantile engines.
  bool quantile_sensitive = false;
};

/// The athlete table plus a parseable date column (the dataset itself has
/// none; loan/patrol/taxi carry the ToDatetime load in the pipelines).
TablePtr TestTable() {
  static const TablePtr table = [] {
    auto t = gen::GenerateDataset("athlete", 0.05, 7).ValueOrDie();
    auto year = t->GetColumn("year").ValueOrDie();
    col::StringBuilder dates;
    for (int64_t i = 0; i < year->length(); ++i) {
      char buf[16];
      std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d",
                    static_cast<int>(year->int64_data()[i]),
                    static_cast<int>(1 + i % 12), static_cast<int>(1 + i % 28));
      dates.Append(buf);
    }
    return t->SetColumn("when", dates.Finish().ValueOrDie()).ValueOrDie();
  }();
  return table;
}

TablePtr RegionsTable() {
  static const TablePtr table = gen::GenerateRegionsTable(7).ValueOrDie();
  return table;
}

/// `table` with the listed string columns dictionary-encoded (the shape a
/// CSV read with dictionary_encode_strings produces).
TablePtr DictEncodeColumns(TablePtr table,
                           const std::vector<std::string>& names) {
  for (const std::string& name : names) {
    auto a = table->GetColumn(name).ValueOrDie();
    table =
        table->SetColumn(name, kern::DictEncode(a).ValueOrDie()).ValueOrDie();
  }
  return table;
}

TablePtr DictTestTable() {
  static const TablePtr table =
      DictEncodeColumns(TestTable(), {"sex", "team", "noc", "season"});
  return table;
}

TablePtr DictRegionsTable() {
  static const TablePtr table = DictEncodeColumns(RegionsTable(), {"noc"});
  return table;
}

/// All 27 preparators of frame::OpKind, instantiated against the athlete
/// schema (id, name, sex, age, height, weight, team, noc, games, year,
/// season, city, sport, event, medal, when).
std::vector<OpCase> AllOpCases() {
  auto plain = [](Op op) {
    return [op](const frame::EnginePtr&, const TablePtr&) { return op; };
  };
  std::vector<OpCase> cases;
  // EDA actions.
  cases.push_back({"isna", plain(Op::IsNa())});
  cases.push_back({"outliers", plain(Op::LocateOutliers("weight")), {},
                   /*quantile_sensitive=*/true});
  cases.push_back({"srchptn", plain(Op::SearchPattern("team", "a"))});
  cases.push_back({"columns", plain(Op::GetColumns())});
  cases.push_back({"dtypes", plain(Op::GetDtypes())});
  cases.push_back({"describe", plain(Op::Describe()), {},
                   /*quantile_sensitive=*/true});
  // Transforms.
  cases.push_back({"sort", plain(Op::SortValues({{"height", true}}))});
  cases.push_back({"query", plain(Op::Query("age >= 20"))});
  cases.push_back({"cast", plain(Op::Cast("year", TypeId::kFloat64))});
  cases.push_back({"drop", plain(Op::DropColumns({"games", "event"}))});
  cases.push_back({"rename", plain(Op::Rename({{"noc", "committee"}}))});
  cases.push_back({"pivot",
                   plain(Op::Pivot("season", "sex", "weight",
                                   kern::AggKind::kMean)),
                   {"season"}});
  cases.push_back(
      {"applyexpr", plain(Op::ApplyExpr("bmi", "weight / (height * height)"))});
  cases.push_back({"merge",
                   [](const frame::EnginePtr& engine, const TablePtr& regions) {
                     auto other = engine->FromTable(regions).ValueOrDie();
                     return Op::Merge(other, "noc", "noc",
                                      kern::JoinType::kInner);
                   }});
  cases.push_back({"dummies", plain(Op::GetDummies("season"))});
  cases.push_back({"catcodes", plain(Op::CatCodes("sex"))});
  cases.push_back({"groupby",
                   plain(Op::GroupByAgg({"team"},
                                        {{"weight", kern::AggKind::kSum, "w"},
                                         {"age", kern::AggKind::kMean, "m"},
                                         {"id", kern::AggKind::kCount, "n"}})),
                   {"team"}});
  cases.push_back({"todatetime", plain(Op::ToDatetime("when"))});
  // Cleaning.
  cases.push_back({"dropna", plain(Op::DropNa({"age", "height"}))});
  cases.push_back({"strlower", plain(Op::StrLower("team"))});
  cases.push_back({"round", plain(Op::Round("height", 1))});
  cases.push_back({"dedup", plain(Op::DropDuplicates({"noc", "season"}))});
  cases.push_back({"fillna", plain(Op::FillNa("age", Scalar::Double(0.0)))});
  cases.push_back({"fillna_mean", plain(Op::FillNaMean("weight"))});
  cases.push_back(
      {"replace", plain(Op::Replace("sex", Scalar::Str("M"), Scalar::Str("male")))});
  cases.push_back({"applyrow",
                   plain(Op::ApplyRow(
                       "heavy",
                       [](const col::Table& t, int64_t row) -> Result<Scalar> {
                         auto w = t.GetColumn("weight").ValueOrDie();
                         if (w->IsNull(row)) return Scalar::Null();
                         return Scalar::Bool(w->float64_data()[row] > 80.0);
                       },
                       TypeId::kBool))});
  return cases;
}

/// Outcome of one engine × op × mode run. `status` captures legitimate
/// NotImplemented outcomes; both modes and the cross-engine check must then
/// agree on the failure, too.
struct RunOutcome {
  Status status;
  bool is_action = false;
  TablePtr table;        // transform output (index column stripped)
  ActionResult action;   // action output
};

/// Removes spark_pd's materialized "__index__" from an EDA result so the
/// logical frame is what gets compared. PrepareSource appends the index as
/// the LAST column, so per-column vectors lose their tail entry; named
/// structures filter by name.
void StripIndexFromAction(ActionResult* a) {
  while (!a->names.empty() && a->names.back().rfind("__index__", 0) == 0) {
    a->names.pop_back();
    if (!a->types.empty()) a->types.pop_back();
    if (a->counts.size() > a->names.size()) a->counts.pop_back();
  }
  if (a->names.empty() && !a->counts.empty()) a->counts.pop_back();
  if (a->table != nullptr) {
    auto col = a->table->GetColumn("column");
    if (col.ok()) {
      col::BoolBuilder keep;
      auto names = col.ValueOrDie();
      for (int64_t i = 0; i < names->length(); ++i) {
        keep.Append(names->IsNull(i) ||
                    std::string(names->GetView(i)).rfind("__index__", 0) != 0);
      }
      a->table = kern::FilterTable(a->table, keep.Finish().ValueOrDie(), {})
                     .ValueOrDie();
    }
  }
}

RunOutcome RunOne(const std::string& engine_id, sim::ExecutionMode mode,
                  const OpCase& op_case, const TablePtr& source,
                  const TablePtr& regions) {
  sim::Session session(sim::MachineSpec::Server());
  session.set_execution_mode(mode);
  RunOutcome out;
  auto engine = frame::CreateEngine(engine_id).ValueOrDie();
  auto frame_r = engine->FromTable(source);
  if (!frame_r.ok()) {
    out.status = frame_r.status();
    return out;
  }
  Op op = op_case.build(engine, regions);
  out.is_action = frame::IsAction(op.kind);
  if (out.is_action) {
    auto action = frame_r.ValueOrDie()->RunAction(op);
    out.status = action.status();
    if (action.ok()) {
      out.action = std::move(action).ValueOrDie();
      if (engine_id == "spark_pd") StripIndexFromAction(&out.action);
    }
    return out;
  }
  auto applied = frame_r.ValueOrDie()->Apply(op);
  if (!applied.ok()) {
    out.status = applied.status();
    return out;
  }
  auto collected = applied.ValueOrDie()->Collect();
  out.status = collected.status();
  if (!collected.ok()) return out;
  out.table = std::move(collected).ValueOrDie();
  // spark_pd materializes its distributed default index; strip it (and the
  // suffixed copy a merge pulls in from the right side) so value
  // comparisons see the logical frame.
  std::vector<std::string> index_cols;
  for (const col::Field& f : out.table->schema()->fields()) {
    if (f.name.rfind("__index__", 0) == 0) index_cols.push_back(f.name);
  }
  if (!index_cols.empty()) {
    out.table = out.table->DropColumns(index_cols).ValueOrDie();
  }
  return out;
}

RunOutcome RunOne(const std::string& engine_id, sim::ExecutionMode mode,
                  const OpCase& op_case) {
  return RunOne(engine_id, mode, op_case, TestTable(), RegionsTable());
}

void ExpectActionsEqual(const ActionResult& a, const ActionResult& b) {
  EXPECT_EQ(a.names, b.names);
  EXPECT_EQ(a.types, b.types);
  EXPECT_EQ(a.counts, b.counts);
  EXPECT_EQ(a.count, b.count);
  EXPECT_DOUBLE_EQ(a.lower_bound, b.lower_bound);
  EXPECT_DOUBLE_EQ(a.upper_bound, b.upper_bound);
  ASSERT_EQ(a.table == nullptr, b.table == nullptr);
  if (a.table != nullptr) test::ExpectTablesEqual(a.table, b.table);
}

class EngineDifferentialTest : public ::testing::TestWithParam<std::string> {};

// Invariant 1: real threads change wall time, never results.
TEST_P(EngineDifferentialTest, RealExecutionMatchesSimulated) {
  const std::string id = GetParam();
  for (const OpCase& c : AllOpCases()) {
    SCOPED_TRACE(c.name);
    RunOutcome sim_run = RunOne(id, sim::ExecutionMode::kSimulated, c);
    RunOutcome real_run = RunOne(id, sim::ExecutionMode::kReal, c);
    ASSERT_EQ(sim_run.status.code(), real_run.status.code())
        << sim_run.status.ToString() << " vs " << real_run.status.ToString();
    if (!sim_run.status.ok()) continue;  // same NotImplemented both ways
    if (sim_run.is_action) {
      ExpectActionsEqual(sim_run.action, real_run.action);
    } else {
      test::ExpectTablesEqual(sim_run.table, real_run.table);
    }
  }
}

// Invariant 3: obs tracing is an observer, never a participant — results
// with a trace collecting are bit-identical to results without, in both
// execution modes (spans and counters must not perturb engine logic).
// The full-sampling arm additionally turns on per-span resource counters
// and energy accounting: hardware-counter reads and joule attribution on
// every span exit must be equally invisible to engine results.
TEST_P(EngineDifferentialTest, TracingDoesNotChangeResults) {
  const std::string id = GetParam();
  for (const auto mode :
       {sim::ExecutionMode::kSimulated, sim::ExecutionMode::kReal}) {
    for (const OpCase& c : AllOpCases()) {
      SCOPED_TRACE(c.name);
      RunOutcome plain = RunOne(id, mode, c);

      obs::StartTracing();
      RunOutcome traced = RunOne(id, mode, c);
      obs::StopTracing();

      obs::StartTracing();
      obs::ResetResourceAggregation();
      obs::EnableResourceSampling();
      RunOutcome sampled = RunOne(id, mode, c);
      obs::DisableResourceSampling();
      obs::StopTracing();

      for (const RunOutcome* run : {&traced, &sampled}) {
        ASSERT_EQ(plain.status.code(), run->status.code())
            << plain.status.ToString() << " vs " << run->status.ToString();
        if (!plain.status.ok()) continue;
        if (plain.is_action) {
          ExpectActionsEqual(plain.action, run->action);
        } else {
          test::ExpectTablesEqual(plain.table, run->table);
        }
      }
    }
  }
}

// Invariant 2: every engine agrees with the eager Pandas reference.
TEST_P(EngineDifferentialTest, AgreesWithEagerReference) {
  const std::string id = GetParam();
  // The policy knob that legitimately changes values: approximate
  // quantiles (describe percentiles, outlier bounds).
  const bool approx_quantiles = id == "spark_sql" || id == "polars" ||
                                id == "cudf" || id == "vaex" ||
                                id == "datatable";
  for (const OpCase& c : AllOpCases()) {
    SCOPED_TRACE(c.name);
    RunOutcome expect = RunOne("pandas", sim::ExecutionMode::kSimulated, c);
    ASSERT_OK(expect.status);  // the reference supports every preparator
    RunOutcome got = RunOne(id, sim::ExecutionMode::kReal, c);
    if (!got.status.ok()) {
      // Engines may lack a preparator (Table II gaps), never crash.
      EXPECT_TRUE(got.status.IsNotImplemented()) << got.status.ToString();
      continue;
    }
    if (c.quantile_sensitive && approx_quantiles) continue;
    if (expect.is_action) {
      ExpectActionsEqual(expect.action, got.action);
    } else if (!c.equivalence_keys.empty()) {
      test::ExpectTablesEquivalent(expect.table, got.table,
                                   c.equivalence_keys);
    } else {
      test::ExpectTablesEqual(expect.table, got.table);
    }
  }
}

// Invariant 4: dictionary-encoded string columns are a representation, not
// a semantic — every preparator that touches an encoded column produces
// value-identical results to the plain-string run (categorical outputs
// compare decoded). Covers the CSV dictionary_encode_strings /
// BCF strings_as_categorical read paths end to end through each engine.
TEST_P(EngineDifferentialTest, DictEncodedStringsMatchPlain) {
  const std::string id = GetParam();
  auto plain_src = [](Op op) {
    return [op](const frame::EnginePtr&, const TablePtr&) { return op; };
  };
  std::vector<OpCase> cases;
  cases.push_back(
      {"sort_team", plain_src(Op::SortValues({{"team", true}, {"id", true}}))});
  cases.push_back({"groupby_team",
                   plain_src(Op::GroupByAgg(
                       {"team"}, {{"weight", kern::AggKind::kSum, "w"},
                                  {"age", kern::AggKind::kMean, "m"},
                                  {"id", kern::AggKind::kCount, "n"}})),
                   {"team"}});
  cases.push_back({"dedup", plain_src(Op::DropDuplicates({"noc", "season"}))});
  cases.push_back({"strlower", plain_src(Op::StrLower("team"))});
  cases.push_back({"srchptn", plain_src(Op::SearchPattern("team", "a"))});
  cases.push_back({"catcodes", plain_src(Op::CatCodes("sex"))});
  cases.push_back({"dummies", plain_src(Op::GetDummies("season"))});
  cases.push_back({"merge",
                   [](const frame::EnginePtr& engine, const TablePtr& regions) {
                     auto other = engine->FromTable(regions).ValueOrDie();
                     return Op::Merge(other, "noc", "noc",
                                      kern::JoinType::kInner);
                   }});
  cases.push_back({"isna", plain_src(Op::IsNa())});
  for (const OpCase& c : cases) {
    SCOPED_TRACE(c.name);
    RunOutcome plain = RunOne(id, sim::ExecutionMode::kReal, c, TestTable(),
                              RegionsTable());
    RunOutcome dict = RunOne(id, sim::ExecutionMode::kReal, c, DictTestTable(),
                             DictRegionsTable());
    ASSERT_EQ(plain.status.code(), dict.status.code())
        << plain.status.ToString() << " vs " << dict.status.ToString();
    if (!plain.status.ok()) continue;  // same NotImplemented both ways
    if (plain.is_action) {
      ExpectActionsEqual(plain.action, dict.action);
    } else if (!c.equivalence_keys.empty()) {
      test::ExpectTablesEquivalent(plain.table, dict.table,
                                   c.equivalence_keys);
    } else {
      test::ExpectTablesEqual(plain.table, dict.table);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllEngines, EngineDifferentialTest,
                         ::testing::ValuesIn(frame::EngineIds()),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace bento::eng
