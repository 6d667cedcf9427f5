// bento::obs unit + integration suite: metrics aggregation under
// contention, golden Chrome-trace export on a fake clock, virtual-time
// spans, zero-allocation disabled paths, span collection across real pool
// workers, the memory-timeline counter track, a full function-core runner
// trace validated against the schema in tests/trace_schema.h, histogram
// quantile properties, the fake-RAPL energy fixture, and the per-span
// resource sampler with its perf-unavailable fallback.
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "bento/pipeline.h"
#include "bento/runner.h"
#include "obs/energy.h"
#include "obs/histogram.h"
#include "obs/metrics.h"
#include "obs/resource.h"
#include "obs/trace.h"
#include "sim/machine.h"
#include "sim/parallel.h"
#include "sim/thread_pool.h"
#include "tests/test_util.h"
#include "tests/trace_schema.h"

// Process-wide allocation counter backing the disabled-path test: obs
// instrumentation must not allocate while tracing is off.
static std::atomic<uint64_t> g_allocations{0};

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

// Not inlined: GCC would then see the allocator's operator-new pointer
// reach free() and warn of a mismatched pair (-Wmismatched-new-delete).
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace bento::obs {
namespace {

double g_fake_now = 0.0;
double FakeClock() { return g_fake_now; }

/// Tracing state is process-global; every test leaves it stopped.
class TraceTest : public ::testing::Test {
 protected:
  ~TraceTest() override {
    StopTracing();
    testing::SetClockForTest(nullptr);
  }
};

int CountEvents(const JsonValue& doc, const std::string& ph,
                const std::string& name = "") {
  int n = 0;
  const JsonValue& events = doc.Get("traceEvents");
  for (size_t i = 0; i < events.size(); ++i) {
    const JsonValue& e = events.at(i);
    if (e.GetString("ph") != ph) continue;
    if (!name.empty() && e.GetString("name") != name) continue;
    ++n;
  }
  return n;
}

const JsonValue* FindSpan(const JsonValue& doc, const std::string& name) {
  const JsonValue& events = doc.Get("traceEvents");
  for (size_t i = 0; i < events.size(); ++i) {
    const JsonValue& e = events.at(i);
    if (e.GetString("ph") == "X" && e.GetString("name") == name) {
      return &events.at(i);
    }
  }
  return nullptr;
}

TEST(MetricsTest, CounterGaugeAndRegistry) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  Counter* c = reg.counter("obs_test.basic");
  // Find-or-create: the address is stable, so hot sites may cache it.
  ASSERT_EQ(c, reg.counter("obs_test.basic"));
  c->Reset();
  c->Add(41);
  c->Increment();
  EXPECT_EQ(c->value(), 42u);
  EXPECT_EQ(reg.CounterValue("obs_test.basic"), 42u);

  Gauge* g = reg.gauge("obs_test.hwm");
  g->Reset();
  g->UpdateMax(10);
  g->UpdateMax(7);  // lower: no change
  EXPECT_EQ(g->value(), 10);
  g->Set(3);
  EXPECT_EQ(g->value(), 3);

  c->Add(0);
  JsonValue snapshot = reg.ToJson();
  EXPECT_EQ(snapshot.Get("counters").GetInt("obs_test.basic"), 42);
  EXPECT_EQ(snapshot.Get("gauges").GetInt("obs_test.hwm"), 3);
}

TEST(MetricsTest, ConcurrentCounterAggregation) {
  Counter* c = MetricsRegistry::Global().counter("obs_test.concurrent");
  c->Reset();
  constexpr int kThreads = 8;
  constexpr int kAdds = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      // Each thread resolves the counter itself: lookup must be
      // thread-safe and return the same instrument.
      Counter* mine = MetricsRegistry::Global().counter("obs_test.concurrent");
      for (int i = 0; i < kAdds; ++i) mine->Increment();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c->value(), static_cast<uint64_t>(kThreads) * kAdds);
}

TEST_F(TraceTest, GoldenNestedSpansOnFakeClock) {
  g_fake_now = 100.0;
  testing::SetClockForTest(&FakeClock);
  StartTracing();
  {
    TraceSpan outer(Category::kStage, "stage.EDA");
    g_fake_now = 100.001;  // 1000us in
    {
      TraceSpan inner(Category::kKernel, "groupby");
      g_fake_now = 100.0015;  // inner: 500us
    }
    g_fake_now = 100.002;  // outer: 2000us
  }
  StopTracing();
  JsonValue doc = TraceToJson();

  const JsonValue* outer = FindSpan(doc, "stage.EDA");
  ASSERT_NE(outer, nullptr);
  EXPECT_EQ(outer->GetString("cat"), "stage");
  EXPECT_DOUBLE_EQ(outer->GetNumber("ts"), 0.0);
  EXPECT_NEAR(outer->GetNumber("dur"), 2000.0, 1e-6);
  EXPECT_NEAR(outer->Get("args").GetNumber("vdur_us"), 2000.0, 1e-6);

  const JsonValue* inner = FindSpan(doc, "groupby");
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(inner->GetString("cat"), "kernel");
  EXPECT_NEAR(inner->GetNumber("ts"), 1000.0, 1e-6);
  EXPECT_NEAR(inner->GetNumber("dur"), 500.0, 1e-6);

  // The golden document is schema-valid and the nesting is visible to the
  // same validator CI runs on real traces.
  EXPECT_OK(test::ValidateTraceDocument(doc, nullptr));
}

TEST_F(TraceTest, VirtualDurationSubtractsSessionCredits) {
  sim::Session session(sim::MachineSpec::Laptop());
  g_fake_now = 10.0;
  testing::SetClockForTest(&FakeClock);
  StartTracing();
  {
    TraceSpan span(Category::kKernel, "credited");
    g_fake_now = 10.004;                 // 4000us of wall time
    session.AddTimeCredit(0.003);        // 3000us overlapped away
  }
  {
    TraceSpan span(Category::kKernel, "over_credited");
    g_fake_now = 10.005;                 // 1000us of wall time
    session.AddTimeCredit(0.002);        // more credit than wall: clamp to 0
  }
  StopTracing();
  JsonValue doc = TraceToJson();

  const JsonValue* credited = FindSpan(doc, "credited");
  ASSERT_NE(credited, nullptr);
  EXPECT_NEAR(credited->GetNumber("dur"), 4000.0, 1e-6);
  EXPECT_NEAR(credited->Get("args").GetNumber("vdur_us"), 1000.0, 1e-6);

  const JsonValue* clamped = FindSpan(doc, "over_credited");
  ASSERT_NE(clamped, nullptr);
  EXPECT_DOUBLE_EQ(clamped->Get("args").GetNumber("vdur_us"), 0.0);
}

TEST_F(TraceTest, CounterTrackGolden) {
  g_fake_now = 5.0;
  testing::SetClockForTest(&FakeClock);
  StartTracing();
  EmitCounter("mem:test", 128.0);
  g_fake_now = 5.001;
  EmitCounter("mem:test", 64.0);
  StopTracing();
  JsonValue doc = TraceToJson();

  ASSERT_EQ(CountEvents(doc, "C", "mem:test"), 2);
  const JsonValue& events = doc.Get("traceEvents");
  std::vector<std::pair<double, double>> samples;  // (ts, value)
  for (size_t i = 0; i < events.size(); ++i) {
    const JsonValue& e = events.at(i);
    if (e.GetString("ph") == "C" && e.GetString("name") == "mem:test") {
      samples.emplace_back(e.GetNumber("ts"), e.Get("args").GetNumber("value"));
    }
  }
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_DOUBLE_EQ(samples[0].first, 0.0);
  EXPECT_DOUBLE_EQ(samples[0].second, 128.0);
  EXPECT_NEAR(samples[1].first, 1000.0, 1e-6);
  EXPECT_DOUBLE_EQ(samples[1].second, 64.0);
}

TEST_F(TraceTest, SpansCollectedAcrossPoolWorkers) {
  StartTracing();
  sim::ThreadPool pool(4);
  std::atomic<int> ran{0};
  Status st = pool.ParallelFor(
      64,
      [&](int64_t) {
        BENTO_TRACE_SPAN(kKernel, "worker_body");
        ran.fetch_add(1, std::memory_order_relaxed);
        return Status::OK();
      },
      4, nullptr);
  ASSERT_OK(st);
  EXPECT_EQ(ran.load(), 64);
  StopTracing();
  JsonValue doc = TraceToJson();

  // Every body span arrived in the collector regardless of which worker
  // (or the caller, who participates) ran it.
  EXPECT_EQ(CountEvents(doc, "X", "worker_body"), 64);
  // Workers named their tracks; the names survive into the export.
  bool saw_worker_name = false;
  const JsonValue& events = doc.Get("traceEvents");
  for (size_t i = 0; i < events.size(); ++i) {
    const JsonValue& e = events.at(i);
    if (e.GetString("ph") == "M" &&
        e.Get("args").GetString("name").rfind("pool-worker-", 0) == 0) {
      saw_worker_name = true;
    }
  }
  EXPECT_TRUE(saw_worker_name);
  EXPECT_OK(test::ValidateTraceDocument(doc, nullptr));
}

TEST_F(TraceTest, DisabledPathAllocatesNothingAndRecordsNothing) {
  StopTracing();
  ASSERT_FALSE(TracingEnabled());
  Counter* counter = MetricsRegistry::Global().counter("obs_test.disabled");
  const int before_events = CountEvents(TraceToJson(), "X");

  const uint64_t allocs_before = g_allocations.load();
  for (int i = 0; i < 1000; ++i) {
    BENTO_TRACE_SPAN(kKernel, "never_recorded");
    BENTO_TRACE_SPAN_DYN(kEngine, std::string("expensive_") + "name");
    EmitCounter("mem:never", 1.0);
    counter->Increment();  // metrics stay live when tracing is off
  }
  const uint64_t allocs_after = g_allocations.load();

  EXPECT_EQ(allocs_after, allocs_before);
  EXPECT_EQ(CountEvents(TraceToJson(), "X"), before_events);
  EXPECT_GE(counter->value(), 1000u);
}

TEST_F(TraceTest, TraceEnvScopeOwnershipAndNesting) {
  const std::string path =
      "/tmp/bento_obs_scope_" + std::to_string(::getpid()) + ".json";
  {
    TraceEnvScope outer(path);
    ASSERT_TRUE(outer.owns());
    EXPECT_TRUE(TracingEnabled());
    {
      // A nested scope must not steal the trace or truncate the file.
      TraceEnvScope inner("/tmp/should_not_be_written.json");
      EXPECT_FALSE(inner.owns());
      BENTO_TRACE_SPAN(kKernel, "inside_nested_scope");
    }
    EXPECT_TRUE(TracingEnabled());
  }
  EXPECT_FALSE(TracingEnabled());

  auto doc = ReadJsonFile(path);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(CountEvents(doc.ValueOrDie(), "X", "inside_nested_scope"), 1);
  EXPECT_OK(test::ValidateTraceDocument(doc.ValueOrDie(), nullptr));
  std::remove(path.c_str());

  // Empty path and no BENTO_TRACE: completely inert.
  ::unsetenv("BENTO_TRACE");
  TraceEnvScope inert;
  EXPECT_FALSE(inert.owns());
  EXPECT_FALSE(TracingEnabled());
}

TEST_F(TraceTest, MemoryPoolEmitsTimelineAndMetrics) {
  sim::Session session(sim::MachineSpec::Laptop());
  StartTracing();
  ASSERT_OK(session.host_pool()->Reserve(1 << 20));
  session.host_pool()->Release(1 << 20);
  StopTracing();
  JsonValue doc = TraceToJson();

  // One sample at 1 MiB, one back at the starting level, on a "mem:" track.
  double max_seen = -1.0;
  const JsonValue& events = doc.Get("traceEvents");
  for (size_t i = 0; i < events.size(); ++i) {
    const JsonValue& e = events.at(i);
    if (e.GetString("ph") == "C" && e.GetString("name").rfind("mem:", 0) == 0) {
      max_seen = std::max(max_seen, e.Get("args").GetNumber("value"));
    }
  }
  EXPECT_GE(max_seen, static_cast<double>(1 << 20));

  // The registry tracked the traffic and the high-water mark too.
  const std::string pool_name = "host:" + session.spec().name;
  EXPECT_GE(MetricsRegistry::Global().CounterValue("mem." + pool_name +
                                                   ".reserved_bytes"),
            static_cast<uint64_t>(1 << 20));
  EXPECT_GE(MetricsRegistry::Global().GaugeValue("mem." + pool_name +
                                                 ".peak_bytes"),
            static_cast<int64_t>(1 << 20));
}

/// The acceptance-shaped integration test: a function-core Loan run with a
/// trace path produces a Chrome trace with ≥1 span per executed
/// preparator, stage ⊃ preparator ⊃ engine/kernel nesting, and a memory
/// counter track — checked by the same validator the CI trace job uses.
TEST_F(TraceTest, FunctionCoreLoanRunEmitsValidPipelineTrace) {
  const std::string dir =
      "/tmp/bento_obs_runner_" + std::to_string(::getpid());
  const std::string trace_path = dir + "/loan_trace.json";
  {
    run::Runner runner(dir, 0.001);
    auto pipeline = run::PipelineFor("loan").ValueOrDie();
    run::RunConfig config;
    config.engine_id = "pandas";
    config.mode = run::RunMode::kFunctionCore;
    config.trace_path = trace_path;
    auto report = runner.Run(config, pipeline, "loan");
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    ASSERT_TRUE(report.ValueOrDie().status.ok())
        << report.ValueOrDie().status.ToString();
    EXPECT_FALSE(TracingEnabled());  // scope closed with the run

    auto doc = ReadJsonFile(trace_path);
    ASSERT_TRUE(doc.ok()) << doc.status().ToString();
    EXPECT_OK(test::ValidatePipelineShape(
        doc.ValueOrDie(),
        static_cast<int>(report.ValueOrDie().ops.size())));

    // Function-core mode also filled the per-op peak column.
    bool any_peak = false;
    for (const auto& op : report.ValueOrDie().ops) {
      if (op.peak_bytes > 0) any_peak = true;
    }
    EXPECT_TRUE(any_peak);
    EXPECT_GT(report.ValueOrDie().peak_host_bytes, 0u);
  }
  std::string cmd = "rm -rf " + dir;
  (void)!system(cmd.c_str());
}

// --- histogram ---

TEST(HistogramTest, QuantilePropertyAgainstSortedReference) {
  // Deterministic long-tailed samples: an LCG driving an exponential-ish
  // spread across six decades, the span-duration regime.
  Histogram hist;
  std::vector<double> values;
  uint64_t state = 0x9e3779b97f4a7c15ull;
  for (int i = 0; i < 5000; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const double u = static_cast<double>(state >> 11) / 9007199254740992.0;
    const double v = std::pow(10.0, u * 6.0 - 1.0);  // [0.1, 1e5)
    values.push_back(v);
    hist.Record(v);
  }
  ASSERT_EQ(hist.count(), values.size());
  std::sort(values.begin(), values.end());

  const double relative_bound = std::pow(2.0, 1.0 / 8.0);
  for (double q : {0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999}) {
    const size_t target = static_cast<size_t>(
        std::ceil(q * static_cast<double>(values.size())));
    const double truth = values[std::max<size_t>(target, 1) - 1];
    const double estimate = hist.Quantile(q);
    // The documented guarantee: t <= e <= t * 2^(1/8).
    EXPECT_GE(estimate, truth) << "q=" << q;
    EXPECT_LE(estimate, truth * relative_bound) << "q=" << q;
  }
  EXPECT_DOUBLE_EQ(hist.min(), values.front());
  EXPECT_DOUBLE_EQ(hist.max(), values.back());
}

TEST(HistogramTest, EdgesUnderflowOverflowAndReset) {
  Histogram hist;
  hist.Record(0.0);     // underflow bucket (not positive)
  hist.Record(-5.0);    // underflow
  hist.Record(1e300);   // overflow bucket
  hist.Record(42.0);
  EXPECT_EQ(hist.count(), 4u);
  EXPECT_EQ(Histogram::BucketIndex(0.0), 0);
  EXPECT_EQ(Histogram::BucketIndex(-1.0), 0);
  EXPECT_EQ(Histogram::BucketIndex(1e300), Histogram::kBuckets - 1);
  // A mid-range value maps to a bucket whose edge bounds it from above
  // within one sub-bucket ratio.
  const int idx = Histogram::BucketIndex(42.0);
  EXPECT_GE(Histogram::BucketUpperEdge(idx), 42.0);
  EXPECT_LE(Histogram::BucketUpperEdge(idx), 42.0 * std::pow(2.0, 0.125));
  hist.Reset();
  EXPECT_EQ(hist.count(), 0u);
  EXPECT_DOUBLE_EQ(hist.Quantile(0.5), 0.0);
}

TEST(HistogramTest, MergeMatchesCombinedRecording) {
  Histogram a, b, combined;
  for (int i = 1; i <= 100; ++i) {
    a.Record(i);
    combined.Record(i);
  }
  for (int i = 101; i <= 200; ++i) {
    b.Record(i);
    combined.Record(i);
  }
  a.MergeFrom(b);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_DOUBLE_EQ(a.sum(), combined.sum());
  EXPECT_DOUBLE_EQ(a.min(), combined.min());
  EXPECT_DOUBLE_EQ(a.max(), combined.max());
  for (double q : {0.1, 0.5, 0.9, 0.99}) {
    EXPECT_DOUBLE_EQ(a.Quantile(q), combined.Quantile(q));
  }
}

TEST(HistogramTest, ConcurrentRecordingLosesNothing) {
  Histogram hist;
  constexpr int kThreads = 8;
  constexpr int kRecords = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hist, t] {
      for (int i = 0; i < kRecords; ++i) {
        hist.Record(static_cast<double>(t * kRecords + i + 1));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(hist.count(), static_cast<uint64_t>(kThreads) * kRecords);
  const double n = static_cast<double>(kThreads) * kRecords;
  EXPECT_DOUBLE_EQ(hist.sum(), n * (n + 1) / 2);
}

TEST(MetricsTest, PrometheusDumpShapes) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.counter("prom.test_counter")->Reset();
  reg.counter("prom.test_counter")->Add(7);
  reg.gauge("prom.test_gauge")->Set(-3);
  Histogram* h = reg.histogram("prom.test_hist");
  h->Reset();
  for (int i = 1; i <= 100; ++i) h->Record(i);

  const std::string text = reg.DumpPrometheusText();
  EXPECT_NE(text.find("# TYPE bento_prom_test_counter counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("bento_prom_test_counter 7\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE bento_prom_test_gauge gauge\n"),
            std::string::npos);
  EXPECT_NE(text.find("bento_prom_test_gauge -3\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE bento_prom_test_hist histogram\n"),
            std::string::npos);
  EXPECT_NE(text.find("bento_prom_test_hist_count 100\n"),
            std::string::npos);
  EXPECT_NE(text.find("_bucket{le=\"+Inf\"} 100\n"), std::string::npos);
  // Dots sanitize to underscores; nothing leaks the raw name.
  EXPECT_EQ(text.find("prom.test"), std::string::npos);
}

TEST(MetricsTest, SnapshotKeepsLargeCountersPositive) {
  Counter* c = MetricsRegistry::Global().counter("obs_test.huge");
  c->Reset();
  c->Add(1ull << 63);  // past int64 range
  JsonValue snapshot = MetricsRegistry::Global().ToJson();
  EXPECT_GT(snapshot.Get("counters").GetNumber("obs_test.huge"), 0.0);
  c->Reset();
}

// --- energy meter ---

/// Writes a fake RAPL tree under a temp dir and points an EnergyMeter at
/// it: package domains with controllable energy_uj counters, exercising
/// wrap-around and multi-package summation without hardware access.
class FakeRaplFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = "/tmp/bento_fake_rapl_" + std::to_string(::getpid());
    std::string cmd = "rm -rf " + root_;
    (void)!system(cmd.c_str());
    ::mkdir(root_.c_str(), 0755);
  }
  void TearDown() override {
    std::string cmd = "rm -rf " + root_;
    (void)!system(cmd.c_str());
  }

  void AddPackage(int n, uint64_t energy_uj, uint64_t max_range_uj) {
    const std::string dir = root_ + "/intel-rapl:" + std::to_string(n);
    ::mkdir(dir.c_str(), 0755);
    WriteValue(dir + "/energy_uj", energy_uj);
    if (max_range_uj > 0) {
      WriteValue(dir + "/max_energy_range_uj", max_range_uj);
    }
  }

  /// Subdomains (core/uncore) must be skipped — counting them would
  /// double-bill the package.
  void AddSubdomain(int pkg, int sub, uint64_t energy_uj) {
    const std::string dir = root_ + "/intel-rapl:" + std::to_string(pkg) +
                            ":" + std::to_string(sub);
    ::mkdir(dir.c_str(), 0755);
    WriteValue(dir + "/energy_uj", energy_uj);
  }

  void SetEnergy(int n, uint64_t energy_uj) {
    WriteValue(root_ + "/intel-rapl:" + std::to_string(n) + "/energy_uj",
               energy_uj);
  }

  std::string root_;

 private:
  static void WriteValue(const std::string& path, uint64_t v) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr) << path;
    std::fprintf(f, "%llu\n", static_cast<unsigned long long>(v));
    std::fclose(f);
  }
};

TEST_F(FakeRaplFixture, MultiPackageSumAndDeltas) {
  AddPackage(0, 1'000'000, 262'143'328'850);
  AddPackage(1, 5'000'000, 262'143'328'850);
  AddSubdomain(0, 0, 999'999'999);  // must not be scanned
  EnergyMeter meter(root_);
  ASSERT_TRUE(meter.has_rapl());
  EXPECT_EQ(meter.package_count(), 2);
  EXPECT_STREQ(meter.source(), "rapl");

  ASSERT_OK(meter.Begin());
  EXPECT_DOUBLE_EQ(meter.JoulesSince(), 0.0);
  SetEnergy(0, 1'500'000);  // +0.5 J
  SetEnergy(1, 5'250'000);  // +0.25 J
  EXPECT_NEAR(meter.JoulesSince(), 0.75, 1e-9);
  // Deltas accumulate across reads, not reset by reading.
  SetEnergy(0, 1'600'000);  // +0.1 J more
  EXPECT_NEAR(meter.JoulesSince(), 0.85, 1e-9);
}

TEST_F(FakeRaplFixture, CounterWrapAroundIsCorrected) {
  constexpr uint64_t kRange = 10'000'000;  // 10 J wrap range
  AddPackage(0, 9'900'000, kRange);
  EnergyMeter meter(root_);
  ASSERT_TRUE(meter.has_rapl());
  ASSERT_OK(meter.Begin());
  // Counter wraps: 9.9 J -> 0.3 J. True consumption = (10 - 9.9) + 0.3.
  SetEnergy(0, 300'000);
  EXPECT_NEAR(meter.JoulesSince(), 0.4, 1e-9);
}

TEST_F(FakeRaplFixture, WrapWithoutRangeFileTreatsRestartFromZero) {
  AddPackage(0, 7'000'000, 0);  // no max_energy_range_uj
  EnergyMeter meter(root_);
  ASSERT_OK(meter.Begin());
  SetEnergy(0, 2'000'000);  // went backwards with no wrap info
  EXPECT_NEAR(meter.JoulesSince(), 2.0, 1e-9);
}

TEST(EnergyMeterTest, EmptyRootFallsBackToModel) {
  EnergyMeter meter("/nonexistent/powercap/path");
  EXPECT_FALSE(meter.has_rapl());
  EXPECT_STREQ(meter.source(), "model");
  EXPECT_EQ(meter.package_count(), 0);
  // Begin/JoulesSince are clean no-ops in model mode.
  ASSERT_OK(meter.Begin());
  EXPECT_DOUBLE_EQ(meter.JoulesSince(), 0.0);
  // The cycles×watts model: joules = cycles / hz * watts.
  EXPECT_NEAR(meter.ModelJoules(meter.model_hz()), meter.model_watts(),
              1e-12);
  EXPECT_GT(meter.model_watts(), 0.0);
  EXPECT_GT(meter.model_hz(), 0.0);
}

// --- resource sampler ---

TEST(ResourceSamplerTest, InstallIsCleanNoOpWhenPerfUnavailable) {
  // BENTO_PERF=off forces the perf-unavailable path deterministically; the
  // sampler must fall back to the thread CPU clock and report OK. Install
  // state is thread-local, so a fresh thread sees the env.
  ::setenv("BENTO_PERF", "off", 1);
  Status install_status = Status::OK();
  SamplerBackend backend = SamplerBackend::kNone;
  ResourceUsage usage;
  std::thread probe([&] {
    install_status = InstallThreadSampler();
    backend = ThreadSamplerBackend();
    // Burn some CPU so the fallback clock registers nonzero time.
    volatile double sink = 0;
    for (int i = 0; i < 2'000'000; ++i) sink = sink + i * 0.5;
    usage = ReadThreadUsage();
  });
  probe.join();
  ::unsetenv("BENTO_PERF");

  EXPECT_OK(install_status);
  EXPECT_EQ(backend, SamplerBackend::kTaskClock);
  EXPECT_FALSE(usage.perf);
  EXPECT_GT(usage.task_clock_ns, 0u);
  // The fallback synthesizes cycles from CPU time so energy attribution
  // always has a denominator.
  EXPECT_GT(usage.cycles, 0u);
}

TEST(ResourceSamplerTest, InstallSucceedsWithSomeBackend) {
  // Without the env override the sampler picks whatever the host offers —
  // perf where permitted, the clock fallback otherwise — but never fails.
  std::thread probe([] {
    EXPECT_OK(InstallThreadSampler());
    EXPECT_NE(ThreadSamplerBackend(), SamplerBackend::kNone);
    ResourceUsage a = ReadThreadUsage();
    volatile double sink = 0;
    for (int i = 0; i < 2'000'000; ++i) sink = sink + i * 0.5;
    ResourceUsage b = ReadThreadUsage();
    // Counters are cumulative: monotone within a thread.
    EXPECT_GE(b.task_clock_ns, a.task_clock_ns);
    EXPECT_GE(b.cycles, a.cycles);
  });
  probe.join();
}

/// Sampling rides on tracing; every test leaves both off.
class ResourceReportTest : public ::testing::Test {
 protected:
  ~ResourceReportTest() override {
    DisableResourceSampling();
    StopTracing();
    testing::SetClockForTest(nullptr);
  }
};

TEST_F(ResourceReportTest, SpansFeedRollupsAndHistograms) {
  StartTracing();
  ResetResourceAggregation();
  EnableResourceSampling();
  {
    ResourceContextScope context("test/ctx");
    for (int i = 0; i < 10; ++i) {
      TraceSpan span(Category::kKernel, "rollup_target");
      volatile double sink = 0;
      for (int j = 0; j < 100'000; ++j) sink = sink + j;
    }
  }
  DisableResourceSampling();
  ResourceReport report = SnapshotResourceReport();
  StopTracing();

  const ResourceReport::Row* row =
      report.Find("test/ctx", "kernel", "rollup_target");
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->spans, 10u);
  EXPECT_GT(row->wall_us, 0.0);
  EXPECT_GT(row->cycles, 0u);
  EXPECT_GE(row->p99_us, row->p50_us);
  EXPECT_GE(row->joules, 0.0);
  EXPECT_FALSE(report.energy_source.empty());
  // Per-category duration histogram was fed as well.
  const Histogram* hist =
      MetricsRegistry::Global().FindHistogram("span.kernel.dur_us");
  ASSERT_NE(hist, nullptr);
  EXPECT_GE(hist->count(), 10u);
  // Table and JSON render without issue.
  EXPECT_NE(report.FormatTable().find("rollup_target"), std::string::npos);
  EXPECT_TRUE(report.ToJson().Get("rows").is_array());
}

TEST_F(ResourceReportTest, SimulatedSessionChargesDeterministicCycles) {
  // Under a kSimulated session with a fake clock the charged cycles are a
  // pure function of virtual duration × model hz — identical across runs.
  sim::Session session(sim::MachineSpec::Laptop());
  session.set_execution_mode(sim::ExecutionMode::kSimulated);
  auto run_once = [&]() -> uint64_t {
    g_fake_now = 50.0;
    testing::SetClockForTest(&FakeClock);
    StartTracing();
    ResetResourceAggregation();
    EnableResourceSampling();
    {
      TraceSpan span(Category::kKernel, "sim_cycles");
      g_fake_now = 50.002;  // 2000 us of virtual work
    }
    DisableResourceSampling();
    ResourceReport report = SnapshotResourceReport();
    StopTracing();
    testing::SetClockForTest(nullptr);
    const ResourceReport::Row* row = report.Find("-", "kernel", "sim_cycles");
    return row != nullptr ? row->cycles : 0;
  };
  const uint64_t first = run_once();
  const uint64_t second = run_once();
  EXPECT_EQ(first, second);
  const uint64_t expected = static_cast<uint64_t>(
      2000.0 * EnergyMeter::Global().model_hz() * 1e-6);
  EXPECT_EQ(first, expected);
  // Model-mode energy is equally deterministic.
  EXPECT_DOUBLE_EQ(EnergyMeter::Global().ModelJoules(
                       static_cast<double>(first)),
                   static_cast<double>(first) /
                       EnergyMeter::Global().model_hz() *
                       EnergyMeter::Global().model_watts());
}

TEST_F(ResourceReportTest, DisabledSamplingKeepsZeroAllocPath) {
  // The PR 3 invariant extended: with tracing off AND sampling off, span
  // sites still allocate nothing and read no counters.
  StopTracing();
  DisableResourceSampling();
  const uint64_t allocs_before = g_allocations.load();
  for (int i = 0; i < 1000; ++i) {
    BENTO_TRACE_SPAN(kKernel, "never_sampled");
  }
  EXPECT_EQ(g_allocations.load(), allocs_before);
}

TEST_F(ResourceReportTest, ReportScopeHonorsEnvAndNesting) {
  ::unsetenv("BENTO_REPORT");
  {
    ResourceReportScope inert(false);
    EXPECT_FALSE(inert.owns());
    EXPECT_FALSE(ResourceSamplingEnabled());
  }
  {
    ResourceReportScope outer(true);
    EXPECT_TRUE(outer.owns());
    EXPECT_TRUE(ResourceSamplingEnabled());
    EXPECT_TRUE(TracingEnabled());
    {
      ResourceReportScope inner(true);  // nested: inert
      EXPECT_FALSE(inner.owns());
    }
    EXPECT_TRUE(ResourceSamplingEnabled());
  }
  EXPECT_FALSE(ResourceSamplingEnabled());
  EXPECT_FALSE(TracingEnabled());
}

TEST_F(ResourceReportTest, SampledRunnerTraceValidatesEnergySchema) {
  const std::string dir =
      "/tmp/bento_obs_energy_" + std::to_string(::getpid());
  const std::string trace_path = dir + "/loan_energy_trace.json";
  {
    run::Runner runner(dir, 0.001);
    auto pipeline = run::PipelineFor("loan").ValueOrDie();
    run::RunConfig config;
    config.engine_id = "pandas";
    config.mode = run::RunMode::kFunctionCore;
    config.trace_path = trace_path;
    config.collect_resources = true;
    auto report = runner.Run(config, pipeline, "loan");
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    ASSERT_TRUE(report.ValueOrDie().status.ok())
        << report.ValueOrDie().status.ToString();

    auto doc = ReadJsonFile(trace_path);
    ASSERT_TRUE(doc.ok()) << doc.status().ToString();
    EXPECT_OK(test::ValidateTraceDocument(doc.ValueOrDie(), nullptr));
    EXPECT_OK(test::ValidateEnergyTrack(doc.ValueOrDie()));
  }
  std::string cmd = "rm -rf " + dir;
  (void)!system(cmd.c_str());
}

}  // namespace
}  // namespace bento::obs
