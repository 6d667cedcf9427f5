// Self-tests of the benchmark itself: the benchmark's replay of a run
// matches run::Runner::Run, a corrupted output fails the check, and self times add
// up. Build and run with `python3 perfbench/run.py --selftest`.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>

#include "bento/runner.h"
#include "obs/metrics.h"
#include "src/harness.h"
#include "src/replay.h"
#include "src/selftime.h"
#include "src/workloads.h"

namespace perfbench {
namespace {

constexpr const char* kWorkDir = "selftest_work";

/// Each workload at a quarter of its benchmark scale.
double TinyScale(const Workload& w) { return w.scale / 4.0; }

struct Counters {
  uint64_t chunks = 0;
  uint64_t spill_written = 0;
  uint64_t mapped = 0;
};

Counters ReadCounters() {
  const auto& registry = bento::obs::MetricsRegistry::Global();
  return Counters{registry.CounterValue("pipeline.chunks"),
                  registry.CounterValue("spill.bytes_written"),
                  registry.CounterValue("lazy.mapped_materializations")};
}

/// Runs `config` once through run::Runner::Run and once through Replay on
/// the same input and compares what both report.
void ExpectReplayMatchesRunner(const Workload& w,
                               const bento::run::RunConfig& config,
                               bool compare_peak) {
  std::filesystem::create_directories(kWorkDir);
  bento::run::Runner runner(std::string(kWorkDir) + "/" + w.name,
                            TinyScale(w), 7);
  auto pipeline = bento::run::PipelineFor(w.dataset);
  ASSERT_TRUE(pipeline.ok());
  auto path = config.use_bcf_source ? runner.EnsureBcf(w.dataset)
                                    : runner.EnsureCsv(w.dataset);
  ASSERT_TRUE(path.ok()) << path.status().ToString();

  bento::obs::MetricsRegistry::Global().ResetAll();
  auto report = runner.Run(config, *pipeline, w.dataset);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const Counters from_runner = ReadCounters();

  bento::obs::MetricsRegistry::Global().ResetAll();
  const Execution ex = Replay(config, runner.EffectiveMachine(config),
                              *pipeline, *path, "");
  const Counters from_replay = ReadCounters();

  EXPECT_EQ(report->status.ToString(), ex.status.ToString());
  EXPECT_TRUE(ex.status.ok()) << ex.status.ToString();
  if (compare_peak) {
    EXPECT_EQ(report->peak_host_bytes, ex.peak_host_bytes);
  }
  EXPECT_EQ(from_runner.chunks, from_replay.chunks);
  EXPECT_EQ(from_runner.spill_written, from_replay.spill_written);
  EXPECT_EQ(from_runner.mapped, from_replay.mapped);
}

// Simulated execution runs the same calls serially, so every figure,
// peak_host_bytes included, must agree exactly.
TEST(ReplayTest, AgreesWithRunnerExactlyUnderSimulatedExecution) {
  ClearBehaviourKnobs();
  for (const Workload& w : Workloads()) {
    SCOPED_TRACE(w.name);
    bento::run::RunConfig config = w.config;
    config.execution_mode = bento::sim::ExecutionMode::kSimulated;
    ExpectReplayMatchesRunner(w, config, /*compare_peak=*/true);
  }
}

// Under real execution with several pipeline workers the pool's high-water
// mark depends on thread timing (taxi_ooc's is bimodal), so only status and
// counters are compared.
TEST(ReplayTest, AgreesWithRunnerUnderRealExecution) {
  ClearBehaviourKnobs();
  for (const Workload& w : Workloads()) {
    SCOPED_TRACE(w.name);
    ExpectReplayMatchesRunner(w, w.config, /*compare_peak=*/false);
  }
}

Options TinyOptions(const char* workload) {
  Options options;
  options.workload = workload;
  options.seed = 3;
  options.seconds = 0.0;
  options.min_executions = 1;
  options.setup_reps = 1;
  options.work_dir = kWorkDir;
  options.scale = TinyScale(*FindWorkload(workload));
  return options;
}

double MetricValue(const RunResult& result, const std::string& name) {
  for (const Metric& m : result.metrics) {
    if (m.name == name) return m.value;
  }
  ADD_FAILURE() << "no metric " << name;
  return std::nan("");
}

TEST(OutputCheckTest, CleanRunPasses) {
  ClearBehaviourKnobs();
  auto run = RunBenchmark(TinyOptions("loan_eager"));
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_TRUE(run->correct);
  EXPECT_EQ(run->failed, 0);
  EXPECT_EQ(MetricValue(*run, "ok_frac"), 1.0);
}

TEST(OutputCheckTest, OneCorruptedCellFailsTheCheck) {
  ClearBehaviourKnobs();
  Options options = TinyOptions("loan_eager");
  options.corrupt_output = true;
  auto run = RunBenchmark(options);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_FALSE(run->correct);
  EXPECT_GT(run->failed, 0);
  // fail_frac = 1 - ok_frac
  EXPECT_GT(1.0 - MetricValue(*run, "ok_frac"), 0.0);
  ASSERT_FALSE(run->failures.empty());
  EXPECT_NE(run->failures.front().find("output check"), std::string::npos)
      << run->failures.front();
}

SpanEvent Span(const char* name, int64_t tid, double ts, double dur,
               const char* category = "engine") {
  SpanEvent s;
  s.name = name;
  s.category = category;
  s.tid = tid;
  s.ts_us = ts;
  s.dur_us = dur;
  return s;
}

TEST(SelfTimeTest, SelfPlusUncoveredEqualsStageWall) {
  const std::vector<SpanEvent> spans = {
      // Benchmark spans: two stages and a call span inside the first.
      Span("bench.stage.eda", 1, 0, 100, "stage"),
      Span("bench.apply.sort", 1, 5, 90, "preparator"),
      Span("bench.stage.dt", 1, 120, 30, "stage"),
      // Program spans on the consumer thread.
      Span("polars.execute", 1, 10, 40),
      Span("sort.argsort", 1, 10, 15, "kernel"),  // same start as parent
      Span("materialize.mapped", 1, 30, 15, "io"),
      Span("spill.write", 1, 31, 2, "io"),
      Span("csv.read", 1, 60, 30, "io"),
      Span("plan.rule.fusion", 1, 125, 5),
      // Outside every stage span: ignored for the consumer split.
      Span("csv.write", 1, 200, 10, "io"),
      // A worker thread.
      Span("pipeline.chunk", 2, 12, 20),
      Span("groupby", 2, 14, 6, "kernel"),
  };
  const SelfTimes self = ComputeSelfTimes(spans);

  EXPECT_DOUBLE_EQ(self.stage_wall_s, 130e-6);
  // Covered: execute [10,50], csv.read [60,90], plan rule [125,130].
  EXPECT_DOUBLE_EQ(self.uncovered_s, (130.0 - 40 - 30 - 5) * 1e-6);
  EXPECT_NEAR(self.ConsumerSelfTotal() + self.uncovered_s, self.stage_wall_s,
              1e-12);

  EXPECT_DOUBLE_EQ(self.self_s_by_name.at("polars.execute"), 10e-6);
  EXPECT_DOUBLE_EQ(self.self_s_by_name.at("materialize.mapped"), 13e-6);
  EXPECT_DOUBLE_EQ(self.self_s_by_name.at("pipeline.chunk"), 14e-6);
  EXPECT_DOUBLE_EQ(self.consumer_self_s_by_module.at("engines"), 23e-6);
  EXPECT_DOUBLE_EQ(self.consumer_self_s_by_module.at("sim"), 2e-6);
  EXPECT_DOUBLE_EQ(self.consumer_self_s_by_module.at("kernels"), 15e-6);
  EXPECT_DOUBLE_EQ(self.consumer_self_s_by_module.at("io"), 30e-6);
  EXPECT_DOUBLE_EQ(self.consumer_self_s_by_module.at("plan"), 5e-6);
  EXPECT_EQ(self.consumer_self_s_by_module.count("csv.write"), 0u);
}

}  // namespace
}  // namespace perfbench
