// Google-benchmark microbenchmarks of the shared compute kernels — the
// per-op cost drivers behind the figure-level results (ablation material:
// metadata vs scan null probes, columnar vs object strings, serial vs
// partitioned group-by).
#include <benchmark/benchmark.h>

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <unordered_map>

#include "bench/bench_common.h"
#include "columnar/builder.h"
#include "datagen/datasets.h"
#include "io/csv.h"
#include "kernels/compare.h"
#include "kernels/dedup.h"
#include "kernels/encode.h"
#include "kernels/flat_index.h"
#include "kernels/selection.h"
#include "simd/simd.h"
#include "kernels/groupby.h"
#include "kernels/join.h"
#include "kernels/null_ops.h"
#include "kernels/row_hash.h"
#include "kernels/sort.h"
#include "kernels/stats.h"
#include "kernels/string_ops.h"
#include "obs/resource.h"
#include "obs/trace.h"
#include "sim/parallel.h"
#include "util/random.h"

namespace bento {
namespace {

col::TablePtr BenchTable(int64_t rows) {
  Rng rng(1234);
  col::Int64Builder keys;
  col::Float64Builder values;
  col::StringBuilder strings;
  for (int64_t i = 0; i < rows; ++i) {
    keys.Append(rng.UniformInt(0, 1000));
    values.AppendMaybe(rng.UniformDouble(0, 100), !rng.Bernoulli(0.1));
    strings.Append(rng.AsciiString(8, 40));
  }
  std::vector<col::Field> fields = {{"k", col::TypeId::kInt64},
                                    {"v", col::TypeId::kFloat64},
                                    {"s", col::TypeId::kString}};
  return col::Table::Make(
             std::make_shared<col::Schema>(std::move(fields)),
             {keys.Finish().ValueOrDie(), values.Finish().ValueOrDie(),
              strings.Finish().ValueOrDie()})
      .ValueOrDie();
}

void BM_IsNullMetadata(benchmark::State& state) {
  auto t = BenchTable(state.range(0));
  for (auto _ : state) {
    auto counts = kern::NullCounts(t, kern::NullProbe::kMetadata);
    benchmark::DoNotOptimize(counts);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_IsNullMetadata)->Arg(10000)->Arg(100000);

void BM_IsNullScan(benchmark::State& state) {
  auto t = BenchTable(state.range(0));
  for (auto _ : state) {
    auto counts = kern::NullCounts(t, kern::NullProbe::kScan);
    benchmark::DoNotOptimize(counts);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_IsNullScan)->Arg(10000)->Arg(100000);

void BM_ContainsColumnar(benchmark::State& state) {
  auto t = BenchTable(state.range(0));
  auto s = t->GetColumn("s").ValueOrDie();
  for (auto _ : state) {
    auto mask = kern::Contains(s, "ab", true, kern::StringEngine::kColumnar);
    benchmark::DoNotOptimize(mask);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ContainsColumnar)->Arg(100000);

void BM_ContainsRowObjects(benchmark::State& state) {
  auto t = BenchTable(state.range(0));
  auto s = t->GetColumn("s").ValueOrDie();
  for (auto _ : state) {
    auto mask = kern::Contains(s, "ab", true, kern::StringEngine::kRowObjects);
    benchmark::DoNotOptimize(mask);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ContainsRowObjects)->Arg(100000);

void BM_SortSerial(benchmark::State& state) {
  auto t = BenchTable(state.range(0));
  for (auto _ : state) {
    auto sorted = kern::SortTable(t, {{"k", true}});
    benchmark::DoNotOptimize(sorted);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SortSerial)->Arg(50000);

void BM_GroupBySerial(benchmark::State& state) {
  auto t = BenchTable(state.range(0));
  std::vector<kern::AggSpec> aggs = {{"v", kern::AggKind::kMean, "m"}};
  for (auto _ : state) {
    auto grouped = kern::GroupBy(t, {"k"}, aggs);
    benchmark::DoNotOptimize(grouped);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GroupBySerial)->Arg(50000);

void BM_GroupByPartitioned(benchmark::State& state) {
  auto t = BenchTable(state.range(0));
  std::vector<kern::AggSpec> aggs = {{"v", kern::AggKind::kMean, "m"}};
  sim::ParallelOptions opts;
  opts.max_workers = 8;
  for (auto _ : state) {
    auto grouped = kern::GroupByPartitioned(t, {"k"}, aggs, opts);
    benchmark::DoNotOptimize(grouped);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GroupByPartitioned)->Arg(50000);

// --- real execution backend (ExecutionMode::kReal) ------------------------
//
// The pairs below run the identical kernel with 1 vs 4 real workers on the
// shared work-stealing pool (no Session installed, so real dispatch is
// unconditional). Compare against the simulated makespan the partitioned
// benchmarks above report through virtual time: on a multi-core host the
// 4-worker wall-clock should land within the same ballpark as the simulated
// speedup (the acceptance bar is >= 1.5x on >= 1M rows); on a single-core
// host only the simulated numbers can show the speedup.

sim::ParallelOptions RealOptions(int workers) {
  sim::ParallelOptions opts;
  opts.mode = sim::ExecutionMode::kReal;
  opts.max_workers = workers;
  return opts;
}

void BM_GroupByReal(benchmark::State& state) {
  auto t = BenchTable(state.range(0));
  std::vector<kern::AggSpec> aggs = {{"v", kern::AggKind::kMean, "m"}};
  auto opts = RealOptions(static_cast<int>(state.range(1)));
  for (auto _ : state) {
    auto grouped = kern::GroupByPartitioned(t, {"k"}, aggs, opts);
    benchmark::DoNotOptimize(grouped);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GroupByReal)->Args({1000000, 1})->Args({1000000, 4});

void BM_SortReal(benchmark::State& state) {
  auto t = BenchTable(state.range(0));
  auto opts = RealOptions(static_cast<int>(state.range(1)));
  for (auto _ : state) {
    auto indices = kern::ArgSortParallel(t, {{"k", true}}, opts);
    benchmark::DoNotOptimize(indices);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SortReal)->Args({1000000, 1})->Args({1000000, 4});

// --- hash-build ablations (flat open-addressing vs node-based map) --------
//
// The FlatIndex/FlatGrouper pairs below isolate the hash-build phase of
// join and group-by at 1M rows: the *_NodeMap variants reproduce the
// pre-flat-index structures (std::unordered_map chained buckets with
// per-bucket std::vectors) so the layout win stays measurable in-tree.
// BENCH_kernels.json tracks these numbers across PRs (acceptance bar for
// the flat-index PR: >= 2x rows/s on both pairs).

col::TablePtr KeyTable(int64_t rows, int64_t distinct) {
  Rng rng(99);
  col::Int64Builder keys;
  for (int64_t i = 0; i < rows; ++i) {
    keys.Append(rng.UniformInt(0, distinct - 1));
  }
  std::vector<col::Field> fields = {{"k", col::TypeId::kInt64}};
  return col::Table::Make(std::make_shared<col::Schema>(std::move(fields)),
                          {keys.Finish().ValueOrDie()})
      .ValueOrDie();
}

void BM_JoinBuildFlat(benchmark::State& state) {
  auto t = KeyTable(state.range(0), 65536);
  auto key = t->GetColumn("k").ValueOrDie();
  auto equal = kern::RowEquality::Make(t, {"k"}, t, {"k"}).ValueOrDie();
  auto hashes = kern::HashRows(t, {"k"}).ValueOrDie();
  for (auto _ : state) {
    kern::FlatIndex index;
    index.Build(
        hashes, [&](int64_t j) { return !key->IsNull(j); },
        [&](int64_t a, int64_t b) { return equal.Equal(a, b); });
    benchmark::DoNotOptimize(index.num_keys());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_JoinBuildFlat)->Arg(1000000);

void BM_JoinBuildFlatRadix(benchmark::State& state) {
  auto t = KeyTable(state.range(0), 65536);
  auto key = t->GetColumn("k").ValueOrDie();
  auto equal = kern::RowEquality::Make(t, {"k"}, t, {"k"}).ValueOrDie();
  sim::ParallelOptions opts;
  opts.mode = sim::ExecutionMode::kReal;
  opts.max_workers = static_cast<int>(state.range(1));
  auto hashes = kern::HashRowsParallel(t, {"k"}, opts).ValueOrDie();
  for (auto _ : state) {
    kern::FlatIndex index;
    Status st = index.BuildPartitioned(
        hashes, [&](int64_t j) { return !key->IsNull(j); },
        [&](int64_t a, int64_t b) { return equal.Equal(a, b); }, opts);
    benchmark::DoNotOptimize(st.ok());
    benchmark::DoNotOptimize(index.num_keys());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_JoinBuildFlatRadix)->Args({1000000, 4});

void BM_JoinBuildNodeMap(benchmark::State& state) {
  auto t = KeyTable(state.range(0), 65536);
  auto key = t->GetColumn("k").ValueOrDie();
  auto hashes = kern::HashRows(t, {"k"}).ValueOrDie();
  for (auto _ : state) {
    std::unordered_map<uint64_t, std::vector<int64_t>> index;
    index.reserve(static_cast<size_t>(t->num_rows()));
    for (int64_t j = 0; j < t->num_rows(); ++j) {
      if (key->IsNull(j)) continue;
      index[hashes[static_cast<size_t>(j)]].push_back(j);
    }
    benchmark::DoNotOptimize(index.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_JoinBuildNodeMap)->Arg(1000000);

void BM_GroupByBuildFlat(benchmark::State& state) {
  auto t = KeyTable(state.range(0), state.range(1));
  auto equal = kern::RowEquality::Make(t, {"k"}, t, {"k"}).ValueOrDie();
  auto hashes = kern::HashRows(t, {"k"}).ValueOrDie();
  for (auto _ : state) {
    kern::FlatGrouper grouper(t->num_rows() / 8 + 16);
    for (int64_t i = 0; i < t->num_rows(); ++i) {
      grouper.FindOrInsert(
          hashes[static_cast<size_t>(i)], i,
          [&](int64_t a, int64_t b) { return equal.Equal(a, b); });
    }
    benchmark::DoNotOptimize(grouper.num_groups());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GroupByBuildFlat)->Args({1000000, 1000})->Args({1000000, 100000});

void BM_GroupByBuildNodeMap(benchmark::State& state) {
  auto t = KeyTable(state.range(0), state.range(1));
  auto equal = kern::RowEquality::Make(t, {"k"}, t, {"k"}).ValueOrDie();
  auto hashes = kern::HashRows(t, {"k"}).ValueOrDie();
  for (auto _ : state) {
    std::unordered_map<uint64_t, std::vector<int64_t>> index;
    index.reserve(static_cast<size_t>(t->num_rows()) / 2 + 16);
    std::vector<int64_t> representatives;
    for (int64_t i = 0; i < t->num_rows(); ++i) {
      auto& candidates = index[hashes[static_cast<size_t>(i)]];
      int64_t group = -1;
      for (int64_t g : candidates) {
        if (equal.Equal(representatives[static_cast<size_t>(g)], i)) {
          group = g;
          break;
        }
      }
      if (group < 0) {
        candidates.push_back(static_cast<int64_t>(representatives.size()));
        representatives.push_back(i);
      }
    }
    benchmark::DoNotOptimize(representatives.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GroupByBuildNodeMap)
    ->Args({1000000, 1000})
    ->Args({1000000, 100000});

// --- morsel-kernel ablations (1 vs 4 real workers) ------------------------
//
// The pairs below isolate the three morsel-driven parallel kernels this
// repo's real execution mode runs: thread-local group-by states, the
// prefix-sum join probe, and the splitter-based run merge. The /1 variant
// is the serial fallback of the same entry point, so each pair is a direct
// parallel-vs-serial A/B on identical data.

void BM_GroupByMorsel(benchmark::State& state) {
  // High cardinality (~100k groups at 1M rows): per-partition groupers stay
  // hot in cache while the merge handles a non-trivial group count.
  Rng rng(7);
  col::Int64Builder keys;
  col::Float64Builder values;
  for (int64_t i = 0; i < state.range(0); ++i) {
    keys.Append(rng.UniformInt(0, 100000));
    values.Append(rng.UniformDouble(0, 100));
  }
  std::vector<col::Field> fields = {{"k", col::TypeId::kInt64},
                                    {"v", col::TypeId::kFloat64}};
  auto t = col::Table::Make(
               std::make_shared<col::Schema>(std::move(fields)),
               {keys.Finish().ValueOrDie(), values.Finish().ValueOrDie()})
               .ValueOrDie();
  std::vector<kern::AggSpec> aggs = {{"v", kern::AggKind::kSum, "s"},
                                     {"v", kern::AggKind::kCount, "n"}};
  auto opts = RealOptions(static_cast<int>(state.range(1)));
  for (auto _ : state) {
    auto grouped = kern::GroupByPartitioned(t, {"k"}, aggs, opts);
    benchmark::DoNotOptimize(grouped);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GroupByMorsel)->Args({1000000, 1})->Args({1000000, 4});

void BM_JoinProbeParallel(benchmark::State& state) {
  // ~1:1 join: 1M probe rows against 100k build keys, so probe + pair
  // emission + output gather dominate over the build.
  auto left = KeyTable(state.range(0), 100000);
  Rng rng(11);
  col::Int64Builder keys;
  col::Float64Builder payload;
  for (int64_t k = 0; k < 100000; ++k) {
    keys.Append(k);
    payload.Append(rng.UniformDouble());
  }
  std::vector<col::Field> fields = {{"k", col::TypeId::kInt64},
                                    {"p", col::TypeId::kFloat64}};
  auto right = col::Table::Make(
                   std::make_shared<col::Schema>(std::move(fields)),
                   {keys.Finish().ValueOrDie(), payload.Finish().ValueOrDie()})
                   .ValueOrDie();
  auto opts = RealOptions(static_cast<int>(state.range(1)));
  for (auto _ : state) {
    auto joined = kern::HashJoinParallel(left, right, "k", "k", {}, opts);
    benchmark::DoNotOptimize(joined);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_JoinProbeParallel)->Args({1000000, 1})->Args({1000000, 4});

void BM_SortMerge(benchmark::State& state) {
  // Pre-sorted runs built outside the timing loop: measures only
  // MergeSortedRuns (the phase the seed ran as a serial heap).
  auto t = BenchTable(state.range(0));
  std::vector<kern::SortKey> sort_keys = {{"k", true}};
  const int64_t n = t->num_rows();
  const int nruns = 4;
  std::vector<std::vector<int64_t>> runs;
  for (int r = 0; r < nruns; ++r) {
    const int64_t b = n * r / nruns;
    const int64_t e = n * (r + 1) / nruns;
    std::vector<int64_t> run(static_cast<size_t>(e - b));
    for (int64_t i = b; i < e; ++i) run[static_cast<size_t>(i - b)] = i;
    auto key = t->GetColumn("k").ValueOrDie();
    std::stable_sort(run.begin(), run.end(), [&](int64_t i, int64_t j) {
      return key->int64_data()[i] < key->int64_data()[j];
    });
    runs.push_back(std::move(run));
  }
  auto opts = RealOptions(static_cast<int>(state.range(1)));
  for (auto _ : state) {
    auto merged = kern::MergeSortedRuns(t, sort_keys, runs, opts);
    benchmark::DoNotOptimize(merged);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SortMerge)->Args({1000000, 1})->Args({1000000, 4});

// --- SIMD kernel ablations ------------------------------------------------
//
// The benchmarks below sit directly on the kernels the portable SIMD layer
// rewired: null-bitmap popcount, vectorized compare, and filter
// mask->index materialization. A/B against the scalar fallback by running
// the same binary twice, the second time with BENTO_SIMD=off (the level is
// fixed at process start, so the toggle must be an environment variable,
// not a benchmark arg). BM_GroupByDictString pairs measure the
// dictionary-encoded string path against plain strings on identical data.

void BM_NullCountSimd(benchmark::State& state) {
  auto t = BenchTable(state.range(0));
  auto v = t->GetColumn("v").ValueOrDie();
  const uint8_t* bits = v->validity_bits();
  const int64_t n = v->length();
  for (auto _ : state) {
    int64_t set = bento::simd::PopcountBits(bits, n);
    benchmark::DoNotOptimize(set);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_NullCountSimd)->Arg(1000000);

void BM_CompareSimd(benchmark::State& state) {
  auto t = BenchTable(state.range(0));
  auto v = t->GetColumn("v").ValueOrDie();
  for (auto _ : state) {
    auto mask =
        kern::CompareScalar(v, kern::CompareOp::kGt, col::Scalar::Double(50.0));
    benchmark::DoNotOptimize(mask);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CompareSimd)->Arg(1000000);

void BM_FilterSimd(benchmark::State& state) {
  // Mask built outside the loop; fixed-width columns only, so the measured
  // work is MaskToIndices + the typed gathers on one worker.
  auto t = BenchTable(state.range(0))->DropColumns({"s"}).ValueOrDie();
  auto v = t->GetColumn("v").ValueOrDie();
  auto mask =
      kern::CompareScalar(v, kern::CompareOp::kGt, col::Scalar::Double(50.0))
          .ValueOrDie();
  for (auto _ : state) {
    auto filtered = kern::FilterTable(t, mask, sim::OneWorker());
    benchmark::DoNotOptimize(filtered);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FilterSimd)->Arg(1000000);

col::TablePtr StringKeyTable(int64_t rows, int distinct, bool dict_encode) {
  Rng rng(4321);
  col::StringBuilder keys;
  col::Float64Builder values;
  for (int64_t i = 0; i < rows; ++i) {
    keys.Append("team" + std::to_string(rng.UniformInt(0, distinct - 1)));
    values.Append(rng.UniformDouble(0, 100));
  }
  auto k = keys.Finish().ValueOrDie();
  if (dict_encode) k = kern::DictEncode(k).ValueOrDie();
  std::vector<col::Field> fields = {{"k", k->type()},
                                    {"v", col::TypeId::kFloat64}};
  return col::Table::Make(std::make_shared<col::Schema>(std::move(fields)),
                          {k, values.Finish().ValueOrDie()})
      .ValueOrDie();
}

void BM_GroupByStringKey(benchmark::State& state) {
  auto t = StringKeyTable(state.range(0), 1000, /*dict_encode=*/false);
  std::vector<kern::AggSpec> aggs = {{"v", kern::AggKind::kSum, "s"}};
  for (auto _ : state) {
    auto grouped = kern::GroupBy(t, {"k"}, aggs);
    benchmark::DoNotOptimize(grouped);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GroupByStringKey)->Arg(1000000);

void BM_GroupByDictString(benchmark::State& state) {
  auto t = StringKeyTable(state.range(0), 1000, /*dict_encode=*/true);
  std::vector<kern::AggSpec> aggs = {{"v", kern::AggKind::kSum, "s"}};
  for (auto _ : state) {
    auto grouped = kern::GroupBy(t, {"k"}, aggs);
    benchmark::DoNotOptimize(grouped);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GroupByDictString)->Arg(1000000);

void BM_DedupStringKey(benchmark::State& state) {
  auto t = StringKeyTable(state.range(0), 5000, /*dict_encode=*/false);
  for (auto _ : state) {
    auto deduped = kern::DropDuplicates(t, {"k"});
    benchmark::DoNotOptimize(deduped);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DedupStringKey)->Arg(1000000);

void BM_DedupDictString(benchmark::State& state) {
  auto t = StringKeyTable(state.range(0), 5000, /*dict_encode=*/true);
  for (auto _ : state) {
    auto deduped = kern::DropDuplicates(t, {"k"});
    benchmark::DoNotOptimize(deduped);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DedupDictString)->Arg(1000000);

void BM_JoinReal(benchmark::State& state) {
  auto left = BenchTable(state.range(0));
  // Build side: one payload row per key value.
  col::Int64Builder keys;
  col::Float64Builder payload;
  for (int64_t k = 0; k <= 1000; ++k) {
    keys.Append(k);
    payload.Append(static_cast<double>(k) * 0.5);
  }
  std::vector<col::Field> fields = {{"k", col::TypeId::kInt64},
                                    {"p", col::TypeId::kFloat64}};
  auto right = col::Table::Make(
                   std::make_shared<col::Schema>(std::move(fields)),
                   {keys.Finish().ValueOrDie(), payload.Finish().ValueOrDie()})
                   .ValueOrDie();
  auto opts = RealOptions(static_cast<int>(state.range(1)));
  for (auto _ : state) {
    auto joined = kern::HashJoinParallel(left, right, "k", "k", {}, opts);
    benchmark::DoNotOptimize(joined);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_JoinReal)->Args({1000000, 1})->Args({1000000, 4});

// Loan-shaped frame for the CSV writer: mostly float64 columns of
// two-decimal values with ~30% nulls (as datagen's loan filler columns),
// plus a few int64 and short string columns. `random_bits` fills the float
// columns with finite random bit patterns instead, which no short decimal
// matches: the formatter's precision-ladder case.
col::TablePtr LoanShapedTable(int64_t rows, bool random_bits,
                              int64_t* float_cells) {
  constexpr int kFloat = 32, kInt = 4, kString = 4;
  Rng rng(4242);
  std::vector<col::Field> fields;
  std::vector<col::ArrayPtr> columns;
  *float_cells = 0;
  for (int c = 0; c < kFloat; ++c) {
    col::Float64Builder b;
    for (int64_t i = 0; i < rows; ++i) {
      const bool valid = !rng.Bernoulli(0.3);
      *float_cells += valid ? 1 : 0;
      double v = std::round(rng.Normal(15000.0, 8500.0) * 100.0) / 100.0;
      if (random_bits) {
        do {
          v = std::bit_cast<double>(rng.Next());
        } while (!std::isfinite(v));
      }
      b.AppendMaybe(v, valid);
    }
    fields.push_back(
        {std::string("f").append(std::to_string(c)), col::TypeId::kFloat64});
    columns.push_back(b.Finish().ValueOrDie());
  }
  for (int c = 0; c < kInt; ++c) {
    col::Int64Builder b;
    for (int64_t i = 0; i < rows; ++i) b.Append(rng.UniformInt(0, 1000000));
    fields.push_back(
        {std::string("i").append(std::to_string(c)), col::TypeId::kInt64});
    columns.push_back(b.Finish().ValueOrDie());
  }
  for (int c = 0; c < kString; ++c) {
    col::StringBuilder b;
    for (int64_t i = 0; i < rows; ++i) {
      b.AppendMaybe(rng.AsciiString(2, 12), !rng.Bernoulli(0.1));
    }
    fields.push_back(
        {std::string("s").append(std::to_string(c)), col::TypeId::kString});
    columns.push_back(b.Finish().ValueOrDie());
  }
  return col::Table::Make(std::make_shared<col::Schema>(std::move(fields)),
                          std::move(columns))
      .ValueOrDie();
}

// Pandas-style describe() over loan-shaped float64 columns: two-decimal
// values around 15 000 (as datagen's loan filler columns) with `null_pct`
// percent nulls. The exact quartiles dominate. Items are the cells.
void BM_Describe(benchmark::State& state) {
  constexpr int kColumns = 16;
  const int64_t rows = state.range(0);
  const double null_frac = static_cast<double>(state.range(1)) / 100.0;
  Rng rng(2020);
  std::vector<col::Field> fields;
  std::vector<col::ArrayPtr> columns;
  for (int c = 0; c < kColumns; ++c) {
    col::Float64Builder b;
    for (int64_t i = 0; i < rows; ++i) {
      b.AppendMaybe(std::round(rng.Normal(15000.0, 8500.0) * 100.0) / 100.0,
                    !rng.Bernoulli(null_frac));
    }
    fields.push_back(
        {std::string("f").append(std::to_string(c)), col::TypeId::kFloat64});
    columns.push_back(b.Finish().ValueOrDie());
  }
  auto t = col::Table::Make(std::make_shared<col::Schema>(std::move(fields)),
                            std::move(columns))
               .ValueOrDie();
  for (auto _ : state) {
    auto d = kern::Describe(t);
    benchmark::DoNotOptimize(d);
  }
  state.SetItemsProcessed(state.iterations() * rows * kColumns);
}
BENCHMARK(BM_Describe)->Args({20000, 20})->Args({20000, 70});

// Pandas-style single-threaded to_csv of a loan-shaped frame to /dev/null.
// Items are the non-null float64 cells, whose formatting dominates.
void WriteLoanShapedCsv(benchmark::State& state, bool random_bits) {
  int64_t float_cells = 0;
  auto t = LoanShapedTable(state.range(0), random_bits, &float_cells);
  for (auto _ : state) {
    Status st = io::WriteCsv(t, "/dev/null");
    benchmark::DoNotOptimize(st);
    if (!st.ok()) {
      state.SkipWithError(st.ToString().c_str());
      break;
    }
  }
  state.SetItemsProcessed(state.iterations() * float_cells);
}
void BM_WriteCsv(benchmark::State& state) { WriteLoanShapedCsv(state, false); }
BENCHMARK(BM_WriteCsv)->Arg(10000);
void BM_WriteCsvRandomBits(benchmark::State& state) {
  WriteLoanShapedCsv(state, true);
}
BENCHMARK(BM_WriteCsvRandomBits)->Arg(10000);

/// Datagen's `dataset` table at `scale`, written once as CSV to a temp
/// file that is removed at exit.
class TempDatasetCsv {
 public:
  TempDatasetCsv(const std::string& dataset, double scale)
      : path_((std::filesystem::temp_directory_path() /
               ("bento_bench_" + dataset + "_" +
                std::to_string(::getpid()) + ".csv"))
                  .string()) {
    auto table = gen::GenerateDataset(dataset, scale, 1).ValueOrDie();
    Status st = io::WriteCsv(table, path_);
    if (!st.ok()) std::fprintf(stderr, "%s\n", st.ToString().c_str());
  }
  ~TempDatasetCsv() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Datagen's patrol table at scale 0.005 (~135K rows of 34 columns).
const std::string& PatrolCsvPath() {
  static const TempDatasetCsv csv("patrol", 0.005);
  return csv.path();
}

/// Datagen's loan table at scale 0.01 (20K rows of 151 columns, mostly
/// two-decimal floats): the input of perfbench's loan_eager.
const std::string& LoanCsvPath() {
  static const TempDatasetCsv csv("loan", 0.01);
  return csv.path();
}

// Pandas-style read_csv: a whole-file serial ReadCsv of the loan CSV with
// type inference. Items are fields (rows x columns).
void BM_ReadCsv(benchmark::State& state) {
  const std::string& path = LoanCsvPath();
  int64_t fields = 0;
  for (auto _ : state) {
    auto table = io::ReadCsv(path);
    if (!table.ok()) {
      state.SkipWithError(table.status().ToString().c_str());
      break;
    }
    fields += table.ValueOrDie()->num_rows() *
              table.ValueOrDie()->num_columns();
  }
  state.SetItemsProcessed(fields);
}
BENCHMARK(BM_ReadCsv)->Unit(benchmark::kMillisecond);

// Streaming read of the patrol CSV in 64 Ki-row chunks (the streaming
// engines' full-scale batch) and in 2 Ki-row chunks (about the batch of a
// run at scale 0.01): cut and decode, serially. Items are rows.
void BM_CsvChunkRead(benchmark::State& state) {
  const std::string& path = PatrolCsvPath();
  io::CsvReadOptions options;
  options.chunk_rows = state.range(0);
  int64_t rows = 0;
  for (auto _ : state) {
    auto reader = io::CsvChunkReader::Open(path, options);
    if (!reader.ok()) {
      state.SkipWithError(reader.status().ToString().c_str());
      break;
    }
    while (true) {
      auto chunk = reader.ValueOrDie()->Next();
      if (!chunk.ok() || chunk.ValueOrDie() == nullptr) break;
      rows += chunk.ValueOrDie()->num_rows();
    }
  }
  state.SetItemsProcessed(rows);
}
BENCHMARK(BM_CsvChunkRead)
    ->Arg(65536)
    ->Arg(2048)
    ->Unit(benchmark::kMillisecond);

/// Six string columns and three numeric ones (int64, float64, bool), all
/// with about 10% nulls: the column mix of the patrol table.
col::TablePtr PatrolShapedTable(int64_t rows) {
  Rng rng(2048);
  std::vector<col::Field> fields;
  std::vector<col::ArrayPtr> arrays;
  auto add = [&](std::string name, col::ArrayPtr array) {
    fields.push_back({std::move(name), array->type()});
    arrays.push_back(std::move(array));
  };
  for (int c = 0; c < 6; ++c) {
    col::StringBuilder b;
    for (int64_t i = 0; i < rows; ++i) {
      b.AppendMaybe(rng.AsciiString(2, 24), !rng.Bernoulli(0.1));
    }
    add(std::string("s").append(std::to_string(c)), b.Finish().ValueOrDie());
  }
  col::Int64Builder ints;
  col::Float64Builder floats;
  col::BoolBuilder bools;
  for (int64_t i = 0; i < rows; ++i) {
    ints.AppendMaybe(rng.UniformInt(0, 1000000), !rng.Bernoulli(0.1));
    floats.AppendMaybe(rng.UniformDouble(), !rng.Bernoulli(0.1));
    bools.AppendMaybe(rng.Bernoulli(0.5), !rng.Bernoulli(0.1));
  }
  add("i", ints.Finish().ValueOrDie());
  add("f", floats.Finish().ValueOrDie());
  add("b", bools.Finish().ValueOrDie());
  return col::Table::Make(std::make_shared<col::Schema>(fields), arrays)
      .ValueOrDie();
}

// A drained stream of 2048-row slices of the patrol-shaped table
// concatenated back whole. Items are rows.
void BM_ConcatTables(benchmark::State& state) {
  const int64_t rows = state.range(0);
  const col::TablePtr table = PatrolShapedTable(rows);
  std::vector<col::TablePtr> slices;
  for (int64_t offset = 0; offset < rows; offset += 2048) {
    slices.push_back(
        table->Slice(offset, std::min<int64_t>(2048, rows - offset))
            .ValueOrDie());
  }
  for (auto _ : state) {
    auto cat = col::ConcatTables(slices);
    benchmark::DoNotOptimize(cat);
  }
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(BM_ConcatTables)->Arg(262144);

// A whole-table query filter over the patrol-shaped table (about 45% of
// the rows kept) on 1 vs 4 real workers: the mask turns into row indices
// once, then every column goes through the sized morsel gather. Items are
// input rows.
void BM_FilterReal(benchmark::State& state) {
  const col::TablePtr table = PatrolShapedTable(state.range(0));
  auto mask = kern::CompareScalar(table->GetColumn("i").ValueOrDie(),
                                  kern::CompareOp::kGt,
                                  col::Scalar::Double(500000.0))
                  .ValueOrDie();
  auto opts = RealOptions(static_cast<int>(state.range(1)));
  for (auto _ : state) {
    auto filtered = kern::FilterTable(table, mask, opts);
    benchmark::DoNotOptimize(filtered);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FilterReal)
    ->Args({1000000, 1})
    ->Args({1000000, 4})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bento

namespace {

// Captures per-iteration runs so the binary can emit BENCH_kernels.json-style
// output via `--json <path>`, and forwards every report to the display
// reporter the `--benchmark_format` and `--benchmark_color` flags select.
class JsonCapturingReporter : public benchmark::BenchmarkReporter {
 public:
  JsonCapturingReporter()
      : display_(benchmark::CreateDefaultDisplayReporter()) {}

  bool ReportContext(const Context& context) override {
    return display_->ReportContext(context);
  }

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      if (run.run_type != Run::RT_Iteration) continue;
      const double ns_per_op =
          run.iterations > 0
              ? run.real_accumulated_time / static_cast<double>(run.iterations) *
                    1e9
              : 0.0;
      double rows_per_second = 0.0;
      auto it = run.counters.find("items_per_second");
      if (it != run.counters.end()) rows_per_second = it->second;
      writer_.Add(run.benchmark_name(), run.iterations, ns_per_op,
                  rows_per_second);
      wall_ns_[run.benchmark_name()] = ns_per_op;
      rows_per_s_[run.benchmark_name()] = rows_per_second;
    }
    display_->ReportRuns(runs);
  }

  void Finalize() override { display_->Finalize(); }

  const bento::bench::BenchJsonWriter& writer() const { return writer_; }

  /// Wall-clock ns/op by benchmark name, for post-run scaling assertions.
  const std::map<std::string, double>& wall_ns() const { return wall_ns_; }

  /// Throughput by benchmark name, for the absolute floor assertions.
  const std::map<std::string, double>& rows_per_s() const {
    return rows_per_s_;
  }

 private:
  bento::bench::BenchJsonWriter writer_;
  std::map<std::string, double> wall_ns_;
  std::map<std::string, double> rows_per_s_;
  // The library keeps the display reporter for the process lifetime.
  benchmark::BenchmarkReporter* display_;
};

/// Strips a bare `--check-scaling` flag from argv; returns whether present.
bool ParseCheckScalingArg(int* argc, char** argv) {
  for (int i = 1; i < *argc; ++i) {
    if (std::string(argv[i]) == "--check-scaling") {
      for (int j = i; j + 1 < *argc; ++j) argv[j] = argv[j + 1];
      --*argc;
      return true;
    }
  }
  return false;
}

/// The multi-worker regression gate: the 4-worker morsel kernels must not
/// run slower (wall clock) than their serial 1-worker twins on identical
/// data — the seed's partitioned group-by was 4.5x *slower*, which this
/// check would have caught. A small tolerance absorbs timer noise on
/// single-core hosts, where the best possible wall ratio is ~1.0.
int CheckScaling(const std::map<std::string, double>& wall_ns,
                 const std::map<std::string, double>& rows_per_s) {
  constexpr double kTolerance = 1.10;
  const std::pair<const char*, const char*> pairs[] = {
      {"BM_GroupByReal/1000000/4", "BM_GroupByReal/1000000/1"},
      {"BM_JoinReal/1000000/4", "BM_JoinReal/1000000/1"},
      {"BM_FilterReal/1000000/4", "BM_FilterReal/1000000/1"},
  };
  int failures = 0;
  for (const auto& [parallel, serial] : pairs) {
    auto p = wall_ns.find(parallel);
    auto s = wall_ns.find(serial);
    if (p == wall_ns.end() || s == wall_ns.end()) {
      std::fprintf(stderr, "check-scaling: missing %s or %s in this run\n",
                   parallel, serial);
      ++failures;
      continue;
    }
    const double ratio = p->second / s->second;
    std::fprintf(stderr, "check-scaling: %s / %s = %.3f\n", parallel, serial,
                 ratio);
    if (ratio > kTolerance) {
      std::fprintf(stderr,
                   "check-scaling: FAIL — %s is %.2fx slower than %s\n",
                   parallel, ratio, serial);
      ++failures;
    }
  }
  // Absolute single-thread throughput floors (rows/s). Set roughly 10x
  // below the rates a 2020s x86 dev box reaches with SIMD active, so they
  // tolerate slow CI hosts yet still catch order-of-magnitude regressions —
  // an accidentally-scalarized hot loop, a quadratic slip, or a kernel
  // silently falling back to a row-at-a-time path.
  const std::pair<const char*, double> floors[] = {
      {"BM_NullCountSimd/1000000", 5e9},    // bitmap popcount
      {"BM_CompareSimd/1000000", 1e8},      // vectorized compare + alloc
      {"BM_FilterSimd/1000000", 2e7},       // mask->indices + typed gathers
      {"BM_IsNullScan/100000", 5e7},        // per-column validity scans
      {"BM_SortSerial/50000", 5e5},         // serial multi-column sort
      {"BM_GroupBySerial/50000", 2e6},      // serial hash group-by
      {"BM_GroupByDictString/1000000", 5e6},  // code-hashed string group-by
      {"BM_DedupDictString/1000000", 5e6},    // code-hashed dedup
      // Float cells/s: a shared 4-vCPU VM writes ~3.5e6 with FormatDoubleTo
      // and ~3e5 with a per-precision snprintf retry ladder.
      {"BM_WriteCsv/10000", 8e5},
      // Rows/s: the same VM cuts and decodes 2.5e5-3.7e5 patrol rows in
      // one pass, and 3.1e4-3.5e4 re-scanning the buffer after every read.
      {"BM_CsvChunkRead/65536", 1e5},
  };
  for (const auto& [name, floor] : floors) {
    auto it = rows_per_s.find(name);
    if (it == rows_per_s.end()) {
      std::fprintf(stderr, "check-scaling: missing %s in this run\n", name);
      ++failures;
      continue;
    }
    std::fprintf(stderr, "check-scaling: %s = %.3g rows/s (floor %.3g)\n",
                 name, it->second, floor);
    if (it->second < floor) {
      std::fprintf(stderr,
                   "check-scaling: FAIL — %s below the %.3g rows/s floor\n",
                   name, floor);
      ++failures;
    }
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = bento::bench::ParseJsonPathArg(&argc, argv);
  const bool check_scaling = ParseCheckScalingArg(&argc, argv);
  bento::obs::TraceEnvScope trace_scope(
      bento::bench::ParseTraceArg(&argc, argv));
  bento::obs::ResourceReportScope report_scope(
      bento::bench::ParseReportArg(&argc, argv));
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  JsonCapturingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (!json_path.empty()) {
    bento::Status st = reporter.writer().WriteTo(json_path);
    if (!st.ok()) {
      std::fprintf(stderr, "--json: %s\n", st.ToString().c_str());
      return 1;
    }
  }
  if (check_scaling) {
    return CheckScaling(reporter.wall_ns(), reporter.rows_per_s());
  }
  return 0;
}
