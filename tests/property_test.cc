// Randomized property tests over the core invariants, parameterized by seed
// (TEST_P sweeps).
#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <numeric>

#include "expr/parser.h"
#include "io/bcf.h"
#include "io/csv.h"
#include "kernels/groupby.h"
#include "kernels/selection.h"
#include "kernels/sort.h"
#include "sim/machine.h"
#include "sim/parallel.h"
#include "tests/test_util.h"
#include "util/json.h"
#include "util/random.h"

namespace bento {
namespace {

using col::TablePtr;
using col::TypeId;

/// A random table mixing all basic types, nulls, and odd string content.
TablePtr RandomTable(Rng* rng, int64_t rows) {
  col::Int64Builder ints;
  col::Float64Builder doubles;
  col::BoolBuilder bools;
  col::StringBuilder strings;
  for (int64_t i = 0; i < rows; ++i) {
    ints.AppendMaybe(rng->UniformInt(-1000, 1000), !rng->Bernoulli(0.1));
    doubles.AppendMaybe(rng->Normal(0, 100), !rng->Bernoulli(0.2));
    bools.AppendMaybe(rng->Bernoulli(0.5), !rng->Bernoulli(0.15));
    std::string s = rng->AsciiString(0, 24);
    if (rng->Bernoulli(0.1)) s += ",\"tricky\nbit\"";
    strings.AppendMaybe(s, !rng->Bernoulli(0.25));
  }
  return test::MakeTable({{"i", ints.Finish().ValueOrDie()},
                          {"d", doubles.Finish().ValueOrDie()},
                          {"b", bools.Finish().ValueOrDie()},
                          {"s", strings.Finish().ValueOrDie()}});
}

class SeededProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SeededProperty, BcfRoundTripsAnyTable) {
  Rng rng(GetParam());
  auto t = RandomTable(&rng, 1 + static_cast<int64_t>(rng.Uniform(3000)));
  std::string path = "/tmp/bento_prop_" + std::to_string(::getpid()) + "_" +
                     std::to_string(GetParam()) + ".bcf";
  io::BcfWriteOptions options;
  options.row_group_rows = 1 + static_cast<int64_t>(rng.Uniform(500));
  options.compression = rng.Bernoulli(0.5);
  ASSERT_OK(io::WriteBcf(t, path, options));
  auto back = io::BcfReader::Open(path).ValueOrDie()->ReadAll().ValueOrDie();
  test::ExpectTablesEqual(t, back);
  std::remove(path.c_str());
}

TEST_P(SeededProperty, CsvRoundTripsQuotedContent) {
  Rng rng(GetParam() ^ 0xC5);
  auto t = RandomTable(&rng, 1 + static_cast<int64_t>(rng.Uniform(500)));
  std::string path = "/tmp/bento_prop_" + std::to_string(::getpid()) + "_" +
                     std::to_string(GetParam()) + ".csv";
  ASSERT_OK(io::WriteCsv(t, path));
  auto back = io::ReadCsv(path).ValueOrDie();
  test::ExpectTablesEqual(t, back);
  std::remove(path.c_str());
}

TEST_P(SeededProperty, SortProducesOrderedPermutation) {
  Rng rng(GetParam() ^ 0x50);
  auto t = RandomTable(&rng, 1 + static_cast<int64_t>(rng.Uniform(2000)));
  std::vector<kern::SortKey> keys = {{"d", rng.Bernoulli(0.5)},
                                     {"i", rng.Bernoulli(0.5)}};
  auto indices = kern::ArgSort(t, keys).ValueOrDie();

  // Permutation: every row index exactly once.
  std::vector<int64_t> sorted_idx = indices;
  std::sort(sorted_idx.begin(), sorted_idx.end());
  for (size_t i = 0; i < sorted_idx.size(); ++i) {
    ASSERT_EQ(sorted_idx[i], static_cast<int64_t>(i));
  }

  // Ordered under the comparator (adjacent pairs never inverted).
  auto sorted = kern::TakeTable(t, indices).ValueOrDie();
  for (int64_t r = 0; r + 1 < sorted->num_rows(); ++r) {
    int cmp =
        kern::CompareTableRows(sorted, r, sorted, r + 1, keys).ValueOrDie();
    ASSERT_LE(cmp, 0) << "rows " << r << " and " << r + 1;
  }
}

TEST_P(SeededProperty, GroupSumsPreserveColumnTotal) {
  Rng rng(GetParam() ^ 0x61);
  auto t = RandomTable(&rng, 100 + static_cast<int64_t>(rng.Uniform(3000)));
  auto grouped =
      kern::GroupBy(t, {"i"}, {{"d", kern::AggKind::kSum, "sum"},
                               {"d", kern::AggKind::kCount, "n"}})
          .ValueOrDie();
  double group_total = 0;
  int64_t group_count = 0;
  auto sums = grouped->GetColumn("sum").ValueOrDie();
  auto counts = grouped->GetColumn("n").ValueOrDie();
  for (int64_t g = 0; g < grouped->num_rows(); ++g) {
    if (sums->IsValid(g)) group_total += sums->float64_data()[g];
    group_count += counts->int64_data()[g];
  }
  auto d = t->GetColumn("d").ValueOrDie();
  double direct_total = 0;
  int64_t direct_count = 0;
  for (int64_t r = 0; r < d->length(); ++r) {
    if (d->IsValid(r)) {
      direct_total += d->float64_data()[r];
      ++direct_count;
    }
  }
  EXPECT_NEAR(group_total, direct_total, 1e-6 * (std::abs(direct_total) + 1));
  EXPECT_EQ(group_count, direct_count);
}

TEST_P(SeededProperty, FilterThenConcatIsPartition) {
  Rng rng(GetParam() ^ 0x99);
  auto t = RandomTable(&rng, 1 + static_cast<int64_t>(rng.Uniform(2000)));
  // Filter on b==true, b==false, b==null: the three parts partition t.
  auto b = t->GetColumn("b").ValueOrDie();
  col::BoolBuilder is_true, is_false, is_null;
  for (int64_t i = 0; i < b->length(); ++i) {
    const bool valid = b->IsValid(i);
    const bool v = valid && b->bool_data()[i] != 0;
    is_true.Append(valid && v);
    is_false.Append(valid && !v);
    is_null.Append(!valid);
  }
  int64_t total = 0;
  for (auto* builder : {&is_true, &is_false, &is_null}) {
    auto mask = builder->Finish().ValueOrDie();
    total += kern::FilterTable(t, mask, {}).ValueOrDie()->num_rows();
  }
  EXPECT_EQ(total, t->num_rows());
}

TEST_P(SeededProperty, SlicesReassembleToWhole) {
  Rng rng(GetParam() ^ 0x42);
  auto t = RandomTable(&rng, 10 + static_cast<int64_t>(rng.Uniform(1000)));
  std::vector<TablePtr> parts;
  int64_t pos = 0;
  while (pos < t->num_rows()) {
    int64_t len = std::min<int64_t>(1 + static_cast<int64_t>(rng.Uniform(97)),
                                    t->num_rows() - pos);
    parts.push_back(t->Slice(pos, len).ValueOrDie());
    pos += len;
  }
  auto whole = col::ConcatTables(parts).ValueOrDie();
  test::ExpectTablesEqual(t, whole);
}

TEST_P(SeededProperty, ExprToStringParsesBackToItself) {
  Rng rng(GetParam() ^ 0xE0);
  // Build a random expression tree, render, parse, render again: fixpoint.
  std::function<expr::ExprPtr(int)> build = [&](int depth) -> expr::ExprPtr {
    if (depth <= 0 || rng.Bernoulli(0.3)) {
      switch (rng.Uniform(3)) {
        case 0:
          return expr::Expr::Column(std::string(1, 'a' + rng.Uniform(4)));
        case 1:
          return expr::Expr::Literal(col::Scalar::Int(rng.UniformInt(-9, 9)));
        default:
          return expr::Expr::Literal(
              col::Scalar::Double(rng.UniformInt(1, 9) * 0.5));
      }
    }
    static const expr::BinOpKind ops[] = {
        expr::BinOpKind::kAdd, expr::BinOpKind::kMul, expr::BinOpKind::kLt,
        expr::BinOpKind::kAnd, expr::BinOpKind::kOr,  expr::BinOpKind::kSub};
    return expr::Expr::Binary(ops[rng.Uniform(6)], build(depth - 1),
                              build(depth - 1));
  };
  auto e = build(4);
  std::string rendered = e->ToString();
  auto reparsed = expr::ParseExpr(rendered);
  ASSERT_TRUE(reparsed.ok()) << rendered << ": "
                             << reparsed.status().ToString();
  EXPECT_EQ(reparsed.ValueOrDie()->ToString(), rendered);
}

TEST_P(SeededProperty, JsonDumpParseFixpoint) {
  Rng rng(GetParam() ^ 0x15);
  std::function<JsonValue(int)> build = [&](int depth) -> JsonValue {
    if (depth <= 0 || rng.Bernoulli(0.4)) {
      switch (rng.Uniform(4)) {
        case 0:
          return JsonValue::Null();
        case 1:
          return JsonValue::Bool(rng.Bernoulli(0.5));
        case 2:
          return JsonValue::Int(rng.UniformInt(-1000000, 1000000));
        default:
          return JsonValue::Str(rng.AsciiString(0, 12) + "\"\n\\x");
      }
    }
    if (rng.Bernoulli(0.5)) {
      JsonValue arr = JsonValue::Array();
      for (uint64_t i = 0; i < rng.Uniform(4); ++i) {
        arr.Append(build(depth - 1));
      }
      return arr;
    }
    JsonValue obj = JsonValue::Object();
    for (uint64_t i = 0; i < rng.Uniform(4); ++i) {
      obj.Set(std::string("k").append(std::to_string(i)), build(depth - 1));
    }
    return obj;
  };
  JsonValue v = build(4);
  std::string once = v.Dump();
  auto round = ParseJson(once);
  ASSERT_TRUE(round.ok()) << once;
  EXPECT_EQ(round.ValueOrDie().Dump(), once);
  // Pretty-printed form parses to the same document too.
  auto pretty = ParseJson(v.Dump(2));
  ASSERT_TRUE(pretty.ok());
  EXPECT_EQ(pretty.ValueOrDie().Dump(), once);
}

TEST_P(SeededProperty, MakespanBounds) {
  Rng rng(GetParam() ^ 0x3C);
  for (int trial = 0; trial < 50; ++trial) {
    const int n = 1 + static_cast<int>(rng.Uniform(40));
    std::vector<double> durations(n);
    double total = 0, longest = 0;
    for (double& d : durations) {
      d = rng.Uniform(1000) * 1e-3;
      if (rng.Bernoulli(0.2)) d = 0.0;       // idle tasks
      if (rng.Bernoulli(0.1)) d *= 50;       // heavy skew
      total += d;
      longest = std::max(longest, d);
    }
    const int workers = 1 + static_cast<int>(rng.Uniform(12));
    for (auto policy :
         {sim::SchedulePolicy::kGreedy, sim::SchedulePolicy::kStaticBlocks}) {
      const double m = sim::SimulateMakespan(durations, workers, policy);
      // No schedule beats the critical path or perfect work division, and
      // none is worse than fully serial execution (zero dispatch cost).
      ASSERT_GE(m, longest - 1e-12);
      ASSERT_GE(m, total / workers - 1e-9);
      ASSERT_LE(m, total + 1e-9);
      // One worker has no overlap to exploit: makespan is the serial sum.
      ASSERT_NEAR(sim::SimulateMakespan(durations, 1, policy), total, 1e-9);
    }
    // Dispatch overhead only ever adds time.
    const double dispatch = rng.Uniform(100) * 1e-4;
    ASSERT_GE(sim::SimulateMakespan(durations, workers,
                                    sim::SchedulePolicy::kGreedy, dispatch),
              sim::SimulateMakespan(durations, workers,
                                    sim::SchedulePolicy::kGreedy));
  }
}

TEST_P(SeededProperty, GreedyMakespanMonotoneInWorkers) {
  // Greedy (work-stealing) scheduling never slows down when workers are
  // added. Deliberately NOT asserted for kStaticBlocks: shifting block
  // boundaries can pack two heavy tasks onto one worker (e.g. durations
  // {0,0,9,9,0,0} take 9s on 2 workers but 18s on 3).
  Rng rng(GetParam() ^ 0xA7);
  for (int trial = 0; trial < 50; ++trial) {
    const int n = 1 + static_cast<int>(rng.Uniform(30));
    std::vector<double> durations(n);
    for (double& d : durations) d = rng.Uniform(1000) * 1e-3;
    const double dispatch = rng.Bernoulli(0.5) ? rng.Uniform(50) * 1e-4 : 0.0;
    double prev = sim::SimulateMakespan(durations, 1,
                                        sim::SchedulePolicy::kGreedy, dispatch);
    for (int w = 2; w <= 14; ++w) {
      double m = sim::SimulateMakespan(durations, w,
                                       sim::SchedulePolicy::kGreedy, dispatch);
      ASSERT_LE(m, prev + 1e-9) << "workers " << w;
      prev = m;
    }
  }
}

TEST_P(SeededProperty, SplitRangeCoversDisjointly) {
  Rng rng(GetParam() ^ 0x5B);
  for (int trial = 0; trial < 200; ++trial) {
    const int64_t n = static_cast<int64_t>(rng.Uniform(100000));
    const int max_chunks = 1 + static_cast<int>(rng.Uniform(24));
    const int64_t min_rows = 1 + static_cast<int64_t>(rng.Uniform(5000));
    auto chunks = sim::SplitRange(n, max_chunks, min_rows);
    if (n == 0) {
      ASSERT_TRUE(chunks.empty());
      continue;
    }
    // Exact disjoint cover of [0, n): contiguous, ascending, non-empty.
    ASSERT_FALSE(chunks.empty());
    ASSERT_LE(static_cast<int>(chunks.size()), max_chunks);
    ASSERT_EQ(chunks.front().first, 0);
    ASSERT_EQ(chunks.back().second, n);
    for (size_t i = 0; i < chunks.size(); ++i) {
      ASSERT_LT(chunks[i].first, chunks[i].second);
      if (i > 0) {
        ASSERT_EQ(chunks[i].first, chunks[i - 1].second);
      }
      // The minimum-chunk contract: inputs of at least min_rows rows never
      // produce an undersized chunk; smaller inputs collapse to one chunk.
      if (n >= min_rows) {
        ASSERT_GE(chunks[i].second - chunks[i].first, min_rows);
      }
    }
    if (n < min_rows) {
      ASSERT_EQ(chunks.size(), 1u);
    }
  }
  // Pinned edge cases.
  EXPECT_TRUE(sim::SplitRange(0, 8, 1).empty());
  auto tiny = sim::SplitRange(3, 8, 100);
  ASSERT_EQ(tiny.size(), 1u);
  EXPECT_EQ(tiny[0], (std::pair<int64_t, int64_t>{0, 3}));
  // Degenerate arguments clamp instead of misbehaving.
  auto clamped = sim::SplitRange(10, 0, 0);
  ASSERT_EQ(clamped.size(), 1u);
  EXPECT_EQ(clamped[0], (std::pair<int64_t, int64_t>{0, 10}));
}

TEST_P(SeededProperty, RealExecutionMatchesSimulated) {
  // The tentpole invariant at the ParallelFor level: a real-thread run
  // produces exactly the per-index outputs of the simulated (serial) run.
  Rng rng(GetParam() ^ 0x77);
  const int64_t n = 1 + static_cast<int64_t>(rng.Uniform(4000));
  std::vector<uint64_t> inputs(n);
  for (auto& v : inputs) v = rng.Uniform(1u << 30);

  auto run = [&](sim::ExecutionMode mode) {
    sim::Session session(sim::MachineSpec::Server());
    session.set_execution_mode(mode);
    std::vector<uint64_t> out(n, 0);
    sim::ParallelOptions options;
    options.mode = sim::ExecutionMode::kReal;
    options.max_workers = 1 + static_cast<int>(rng.Uniform(8));
    EXPECT_TRUE(sim::ParallelFor(
                    n,
                    [&](int64_t i) {
                      uint64_t h = inputs[i] * 0x9E3779B97F4A7C15ULL;
                      out[i] = h ^ (h >> 31);
                      return Status::OK();
                    },
                    options)
                    .ok());
    return out;
  };
  EXPECT_EQ(run(sim::ExecutionMode::kSimulated),
            run(sim::ExecutionMode::kReal));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeededProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace bento
