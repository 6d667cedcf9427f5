// Differential plan fuzzer: seeded random preparator pipelines run three
// ways — lazy with the optimizer on, lazy with the optimizer off (the
// `_noopt` registry variants), and the eager pandas reference — and the
// results must agree. Optimized vs unoptimized on the SAME engine must be
// bit-identical including row order (the optimizer's contract); against the
// eager reference, plans containing breakers with engine-specific emission
// order (group-by, join, dedup) are compared as sorted multisets. The
// streaming engines also rerun each seed under a tight memory budget, where
// the breakers stream and spill, and must reproduce their unbounded run bit
// for bit at every chunk size and worker count.
//
// The default seed count keeps ctest bounded; set BENTO_FUZZ_SEEDS to fuzz
// harder (the acceptance run uses >= 200).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "engines/lazy_engine.h"
#include "frame/engine.h"
#include "kernels/common.h"
#include "kernels/groupby.h"
#include "plan/logical_plan.h"
#include "sim/machine.h"
#include "sim/parallel.h"
#include "tests/test_util.h"

namespace bento {
namespace {

using col::Scalar;
using col::TypeId;
using frame::Op;
using frame::OpKind;
using test::F64;
using test::I64;
using test::MakeTable;
using test::Str;

using Rng = std::mt19937;

int RandInt(Rng& rng, int lo, int hi) {  // inclusive
  return lo + static_cast<int>(rng() % static_cast<uint32_t>(hi - lo + 1));
}

template <typename T>
const T& Pick(Rng& rng, const std::vector<T>& pool) {
  return pool[rng() % pool.size()];
}

// --- random base data --------------------------------------------------------

const std::vector<std::string>& TeamPool() {
  static const std::vector<std::string> pool = {
      "Alpha", "BRAVO", "charlie", "Delta", "echo", "FOX"};
  return pool;
}

const std::vector<std::string>& NocPool() {
  static const std::vector<std::string> pool = {"USA", "GER", "CHN", "KEN",
                                                "BRA"};
  return pool;
}

/// Seed-dependent athlete-like table: numeric and string columns, nulls,
/// duplicate keys.
col::TablePtr MakeBaseTable(Rng& rng) {
  const int n = RandInt(rng, 80, 200);
  std::vector<int64_t> id, age;
  std::vector<double> height, weight;
  std::vector<std::string> team, noc, medal;
  std::vector<bool> age_valid, height_valid, medal_valid;
  for (int i = 0; i < n; ++i) {
    id.push_back(rng() % 64);  // dense duplicates
    age.push_back(15 + static_cast<int64_t>(rng() % 30));
    age_valid.push_back(rng() % 10 != 0);
    height.push_back(150.0 + static_cast<double>(rng() % 500) / 10.0);
    height_valid.push_back(rng() % 8 != 0);
    weight.push_back(45.0 + static_cast<double>(rng() % 600) / 10.0);
    team.push_back(Pick(rng, TeamPool()));
    noc.push_back(Pick(rng, NocPool()));
    medal.push_back(Pick(rng, std::vector<std::string>{"gold", "silver",
                                                       "bronze"}));
    medal_valid.push_back(rng() % 4 != 0);
  }
  return MakeTable({{"id", I64(id)},
                    {"age", I64(age, age_valid)},
                    {"height", F64(height, height_valid)},
                    {"weight", F64(weight)},
                    {"team", Str(team)},
                    {"noc", Str(noc)},
                    {"medal", Str(medal, medal_valid)}});
}

col::TablePtr RegionsTable() {
  return MakeTable({{"noc", Str({"USA", "GER", "CHN", "KEN"})},
                    {"region", Str({"americas", "europe", "asia", "africa"})},
                    {"rank", I64({1, 2, 3, 4})}});
}

// --- random pipelines --------------------------------------------------------

enum class ColType { kNum, kStr };

struct Shadow {
  std::vector<std::pair<std::string, ColType>> cols;

  bool Has(const std::string& name) const {
    for (const auto& c : cols) {
      if (c.first == name) return true;
    }
    return false;
  }
  std::vector<std::string> Of(ColType t) const {
    std::vector<std::string> out;
    for (const auto& c : cols) {
      if (c.second == t) out.push_back(c.first);
    }
    return out;
  }
  void Drop(const std::vector<std::string>& names) {
    for (const std::string& n : names) {
      for (size_t i = 0; i < cols.size(); ++i) {
        if (cols[i].first == n) {
          cols.erase(cols.begin() + i);
          break;
        }
      }
    }
  }
};

std::string FormatDouble(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", v);
  return buf;
}

struct FuzzPlan {
  std::vector<Op> ops;
  bool expect_error = false;
  bool order_ambiguous = false;  // contains groupby / merge / dedup
  std::vector<std::string> final_columns;
};

/// Generates a random valid pipeline against the base-table schema,
/// tracking the live columns so every op references existing data. With
/// small probability the last op references a missing column instead, and
/// all three arms must fail alike.
FuzzPlan GeneratePlan(Rng& rng) {
  FuzzPlan out;
  Shadow shadow;
  shadow.cols = {{"id", ColType::kNum},      {"age", ColType::kNum},
                 {"height", ColType::kNum},  {"weight", ColType::kNum},
                 {"team", ColType::kStr},    {"noc", ColType::kStr},
                 {"medal", ColType::kStr}};
  bool merged = false;
  int next_expr_col = 0;

  const int target_len = RandInt(rng, 2, 7);
  int guard = 0;
  while (static_cast<int>(out.ops.size()) < target_len && ++guard < 64) {
    const std::vector<std::string> nums = shadow.Of(ColType::kNum);
    const std::vector<std::string> strs = shadow.Of(ColType::kStr);
    switch (rng() % 13) {
      case 0: {  // numeric filter
        if (nums.empty()) break;
        const std::vector<std::string> cmps = {">", ">=", "<", "<=", "=="};
        std::string pred = Pick(rng, nums) + " " + Pick(rng, cmps) + " " +
                           FormatDouble(RandInt(rng, 0, 220));
        if (rng() % 3 == 0 && !nums.empty()) {
          pred += " and " + Pick(rng, nums) + " >= " +
                  FormatDouble(RandInt(rng, 0, 60));
        }
        out.ops.push_back(Op::Query(pred));
        break;
      }
      case 1: {  // string equality filter
        if (strs.empty()) break;
        const std::string& col = Pick(rng, strs);
        const std::string value =
            col == "noc" ? Pick(rng, NocPool()) : Pick(rng, TeamPool());
        out.ops.push_back(Op::Query(col + " == '" + value + "'"));
        break;
      }
      case 2: {  // sort
        std::vector<kern::SortKey> keys;
        keys.push_back({Pick(rng, shadow.cols).first, rng() % 2 == 0});
        if (rng() % 2 == 0) {
          keys.push_back({Pick(rng, shadow.cols).first, rng() % 2 == 0});
        }
        out.ops.push_back(Op::SortValues(std::move(keys)));
        break;
      }
      case 3: {  // cast to float64
        if (nums.empty()) break;
        out.ops.push_back(Op::Cast(Pick(rng, nums), TypeId::kFloat64));
        break;
      }
      case 4: {  // drop a column (keep a workable schema)
        if (shadow.cols.size() < 4) break;
        const std::string col = Pick(rng, shadow.cols).first;
        out.ops.push_back(Op::DropColumns({col}));
        shadow.Drop({col});
        break;
      }
      case 5: {  // round
        if (nums.empty()) break;
        out.ops.push_back(Op::Round(Pick(rng, nums), RandInt(rng, 0, 2)));
        break;
      }
      case 6: {  // fillna (scalar or mean)
        if (nums.empty()) break;
        const std::string& col = Pick(rng, nums);
        if (rng() % 2 == 0) {
          out.ops.push_back(Op::FillNa(
              col, Scalar::Double(static_cast<double>(RandInt(rng, 0, 99)))));
        } else {
          out.ops.push_back(Op::FillNaMean(col));
        }
        break;
      }
      case 7: {  // lowercase / replace on a string column
        if (strs.empty()) break;
        const std::string& col = Pick(rng, strs);
        if (rng() % 2 == 0) {
          out.ops.push_back(Op::StrLower(col));
        } else {
          out.ops.push_back(
              Op::Replace(col, Scalar::Str(Pick(rng, TeamPool())),
                          Scalar::Str("other")));
        }
        break;
      }
      case 8: {  // dedup (full row or subset)
        std::vector<std::string> subset;
        if (rng() % 2 == 0) {
          subset.push_back(Pick(rng, shadow.cols).first);
          if (rng() % 2 == 0) subset.push_back(Pick(rng, shadow.cols).first);
        }
        out.ops.push_back(Op::DropDuplicates(subset));
        out.order_ambiguous = true;
        break;
      }
      case 9: {  // group-by aggregate
        if (strs.empty() || nums.empty()) break;
        std::vector<std::string> keys = {Pick(rng, strs)};
        std::vector<kern::AggSpec> aggs;
        Shadow after;
        after.cols.push_back({keys[0], ColType::kStr});
        const std::vector<kern::AggKind> kinds = {
            kern::AggKind::kSum, kern::AggKind::kMin, kern::AggKind::kMax,
            kern::AggKind::kCount};
        const int n_aggs = RandInt(rng, 1, 2);
        for (int i = 0; i < n_aggs; ++i) {
          kern::AggSpec spec{Pick(rng, nums), Pick(rng, kinds), ""};
          if (rng() % 2 == 0) spec.output_name = "agg" + std::to_string(i);
          const std::string produced = spec.output_name.empty()
                                           ? kern::DefaultAggName(spec)
                                           : spec.output_name;
          if (after.Has(produced)) continue;
          after.cols.push_back({produced, ColType::kNum});
          aggs.push_back(std::move(spec));
        }
        if (aggs.empty()) break;
        out.ops.push_back(Op::GroupByAgg(std::move(keys), std::move(aggs)));
        shadow = after;
        out.order_ambiguous = true;
        break;
      }
      case 10: {  // merge with the regions table (right side bound per arm)
        if (merged || !shadow.Has("noc")) break;
        out.ops.push_back(Op::Merge(nullptr, "noc", "noc",
                                    rng() % 2 == 0 ? kern::JoinType::kInner
                                                   : kern::JoinType::kLeft));
        shadow.cols.push_back({"region", ColType::kStr});
        shadow.cols.push_back({"rank", ColType::kNum});
        merged = true;
        out.order_ambiguous = true;
        break;
      }
      case 11: {  // derived numeric column
        if (nums.size() < 2) break;
        const std::string name = "fx" + std::to_string(next_expr_col++);
        out.ops.push_back(Op::ApplyExpr(
            name, Pick(rng, nums) + " + " + Pick(rng, nums) + " * 2"));
        shadow.cols.push_back({name, ColType::kNum});
        break;
      }
      case 12: {  // dropna
        std::vector<std::string> subset;
        if (rng() % 2 == 0 && !nums.empty()) subset.push_back(Pick(rng, nums));
        out.ops.push_back(Op::DropNa(subset));
        break;
      }
    }
  }
  if (out.ops.empty()) out.ops.push_back(Op::Query("age >= 20.0"));

  // Some seeds run the whole pipeline over an empty frame: a filter no row
  // can pass, injected up front so every downstream op (group-by, merge,
  // sort, scan-bound drops) sees zero rows.
  if (rng() % 7 == 0) {
    out.ops.insert(out.ops.begin(), Op::Query("weight > 10000.0"));
  }

  // Occasionally close with an op over a column that does not exist; the
  // optimizer must not turn this error into a success (or vice versa).
  if (rng() % 8 == 0) {
    out.expect_error = true;
    if (rng() % 2 == 0) {
      out.ops.push_back(Op::Query("zz_missing > 1.0"));
    } else {
      out.ops.push_back(Op::DropColumns({"zz_missing"}));
    }
  }
  for (const auto& c : shadow.cols) out.final_columns.push_back(c.first);
  return out;
}

// --- arms --------------------------------------------------------------------

struct SourceSpec {
  enum class Kind { kTable, kCsv, kBcf } kind = Kind::kTable;
  col::TablePtr table;
  std::string path;
};

struct ArmResult {
  Status status = Status::OK();
  col::TablePtr table;
};

/// Drops SparkPD's synthetic index columns so arms compare on user data.
col::TablePtr StripIndexColumns(const col::TablePtr& table) {
  std::vector<std::string> doomed;
  for (const auto& field : table->schema()->fields()) {
    if (field.name.rfind("__index__", 0) == 0) doomed.push_back(field.name);
  }
  if (doomed.empty()) return table;
  auto stripped = table->DropColumns(doomed);
  return stripped.ok() ? stripped.ValueOrDie() : table;
}

ArmResult RunPipeline(const std::string& engine_id, const SourceSpec& source,
                      const std::vector<Op>& ops) {
  auto engine_r = frame::CreateEngine(engine_id);
  if (!engine_r.ok()) return {engine_r.status(), nullptr};
  auto engine = engine_r.ValueOrDie();

  auto open = [&]() -> Result<frame::DataFrame::Ptr> {
    switch (source.kind) {
      case SourceSpec::Kind::kCsv:
        return engine->ReadCsv(source.path, io::CsvReadOptions{});
      case SourceSpec::Kind::kBcf:
        return engine->ReadBcf(source.path);
      case SourceSpec::Kind::kTable:
      default:
        return engine->FromTable(source.table);
    }
  };
  Result<frame::DataFrame::Ptr> frame_r = open();
  if (!frame_r.ok()) return {frame_r.status(), nullptr};
  frame::DataFrame::Ptr frame = frame_r.ValueOrDie();

  for (const Op& op : ops) {
    Op bound = op;
    if (bound.kind == OpKind::kMerge) {
      auto other = engine->FromTable(RegionsTable());
      if (!other.ok()) return {other.status(), nullptr};
      bound.other = other.ValueOrDie();
    }
    auto next = frame->Apply(bound);
    if (!next.ok()) return {next.status(), nullptr};
    frame = next.ValueOrDie();
  }
  auto out = frame->Collect();
  if (!out.ok()) return {out.status(), nullptr};
  return {Status::OK(), StripIndexColumns(out.ValueOrDie())};
}

int SeedCount() {
  const char* env = std::getenv("BENTO_FUZZ_SEEDS");
  if (env != nullptr && *env != '\0') {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 200;  // bounded ctest default (~9 s); raise via env to fuzz harder
}

const std::vector<std::string>& LazyEngines() {
  static const std::vector<std::string> ids = {"polars", "spark_sql",
                                               "spark_pd", "vaex"};
  return ids;
}

/// Scoped environment override; restores the previous value.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) old_ = old;
    setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (old_.has_value()) {
      setenv(name_, old_->c_str(), 1);
    } else {
      unsetenv(name_);
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
  std::optional<std::string> old_;
};

/// The engines whose breakers stream under memory pressure.
bool StreamsUnderTightBudget(const std::string& id) {
  return id == "polars" || id == "spark_sql" || id == "vaex";
}

class TempFile {
 public:
  explicit TempFile(std::string path) : path_(std::move(path)) {}
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(PlanFuzzTest, OptimizedMatchesUnoptimizedAndEagerReference) {
  const int seeds = SeedCount();
  for (int seed = 0; seed < seeds; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(static_cast<uint32_t>(0x5eed0000 + seed));

    // Worker counts 1..4, alternating simulated / real thread dispatch.
    sim::MachineSpec spec = sim::MachineSpec::Server();
    spec.cores = 1 + seed % 4;
    sim::Session session(spec);
    session.set_execution_mode(seed % 2 == 0 ? sim::ExecutionMode::kSimulated
                                             : sim::ExecutionMode::kReal);

    const col::TablePtr base = MakeBaseTable(rng);
    const FuzzPlan fuzz = GeneratePlan(rng);
    SCOPED_TRACE("plan:\n" + plan::Explain(fuzz.ops));

    // Rotate the source kind so the scan-bound projection (CSV column
    // skipping, BCF column projection) is fuzzed too, not just in-memory
    // plans.
    SourceSpec source;
    std::unique_ptr<TempFile> temp;
    {
      ASSERT_OK_AND_ASSIGN(auto writer_engine, frame::CreateEngine("pandas"));
      ASSERT_OK_AND_ASSIGN(auto writer_frame, writer_engine->FromTable(base));
      const std::string stem =
          testing::TempDir() + "bento_fuzz_" + std::to_string(seed);
      switch (seed % 3) {
        case 0:
          source.kind = SourceSpec::Kind::kTable;
          source.table = base;
          break;
        case 1:
          source.kind = SourceSpec::Kind::kCsv;
          source.path = stem + ".csv";
          temp = std::make_unique<TempFile>(source.path);
          ASSERT_OK(writer_engine->WriteCsv(writer_frame, source.path));
          break;
        case 2:
          source.kind = SourceSpec::Kind::kBcf;
          source.path = stem + ".bcf";
          temp = std::make_unique<TempFile>(source.path);
          ASSERT_OK(writer_engine->WriteBcf(writer_frame, source.path));
          break;
      }
    }

    const ArmResult reference = RunPipeline("pandas", source, fuzz.ops);
    if (fuzz.expect_error) {
      EXPECT_FALSE(reference.status.ok())
          << "reference unexpectedly succeeded";
    }

    for (const std::string& id : LazyEngines()) {
      SCOPED_TRACE("engine=" + id);
      const ArmResult optimized = RunPipeline(id, source, fuzz.ops);
      const ArmResult unoptimized = RunPipeline(id + "_noopt", source,
                                                fuzz.ops);

      ASSERT_EQ(optimized.status.ok(), reference.status.ok())
          << "optimized: " << optimized.status.ToString()
          << "\nreference: " << reference.status.ToString();
      ASSERT_EQ(unoptimized.status.ok(), reference.status.ok())
          << "unoptimized: " << unoptimized.status.ToString()
          << "\nreference: " << reference.status.ToString();

      // Tight arm: a budget of 4x the base table makes the source memory
      // tight, so the breakers stream, spill and map their results back.
      if (StreamsUnderTightBudget(id)) {
        for (const char* chunk_rows : {"1", "7", "64"}) {
          for (const char* workers : {"1", "4"}) {
            SCOPED_TRACE(std::string("tight chunk_rows=") + chunk_rows +
                         " workers=" + workers);
            ScopedEnv rows_env("BENTO_CHUNK_ROWS", chunk_rows);
            ScopedEnv workers_env("BENTO_PIPELINE_WORKERS", workers);
            sim::MachineSpec tight = spec;
            tight.ram_bytes = static_cast<uint64_t>(base->ByteSize() * 4);
            sim::Session tight_session(tight);
            tight_session.set_execution_mode(session.execution_mode());
            const ArmResult streamed = RunPipeline(id, source, fuzz.ops);
            ASSERT_EQ(streamed.status.ok(), optimized.status.ok())
                << "tight: " << streamed.status.ToString()
                << "\nunbounded: " << optimized.status.ToString();
            if (optimized.status.ok()) {
              test::ExpectTablesEqual(optimized.table, streamed.table);
            } else {
              EXPECT_EQ(streamed.status.code(), optimized.status.code())
                  << streamed.status.ToString() << " vs "
                  << optimized.status.ToString();
            }
          }
        }
      }

      if (!reference.status.ok()) {
        // The optimizer must preserve the *kind* of failure, not just
        // failure itself.
        EXPECT_EQ(optimized.status.code(), unoptimized.status.code())
            << optimized.status.ToString() << " vs "
            << unoptimized.status.ToString();
        continue;
      }

      // Optimized vs unoptimized on the same engine: bit-identical,
      // including row order.
      test::ExpectTablesEqual(unoptimized.table, optimized.table);

      // Against the eager reference: breakers with engine-specific emission
      // order compare as sorted multisets over every shared column.
      if (fuzz.order_ambiguous) {
        std::vector<std::string> keys;
        for (const auto& field : reference.table->schema()->fields()) {
          keys.push_back(field.name);
        }
        test::ExpectTablesEquivalent(reference.table, optimized.table, keys);
      } else {
        test::ExpectTablesEqual(reference.table, optimized.table);
      }
    }
  }
}

/// A filter that does not parse keeps its place behind an op that fails
/// first, so the optimized plan fails like the unoptimized plan and the
/// eager reference: with the cast's missing-column error, not the parse
/// error.
TEST(PlanFuzzTest, UnparsableFilterFailsLikeTheReference) {
  SourceSpec source;
  source.table = MakeTable({{"games", I64({1, 2, 3})}});
  const std::vector<Op> ops = {Op::Cast("missing", TypeId::kFloat64),
                               Op::Query("games >")};
  const ArmResult reference = RunPipeline("pandas", source, ops);
  ASSERT_TRUE(reference.status.IsKeyError()) << reference.status.ToString();
  for (const std::string& id : LazyEngines()) {
    for (const std::string& variant : {id, id + "_noopt"}) {
      const ArmResult got = RunPipeline(variant, source, ops);
      EXPECT_EQ(got.status.code(), reference.status.code())
          << variant << ": " << got.status.ToString();
    }
  }
}

}  // namespace
}  // namespace bento
