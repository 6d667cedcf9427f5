#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>

#include "bento/pipeline.h"
#include "bento/report.h"
#include "bento/runner.h"
#include "tests/test_util.h"

namespace bento::run {
namespace {

using frame::Stage;

TEST(PipelineTest, AllFourPipelinesBuild) {
  for (const char* name : {"athlete", "loan", "patrol", "taxi"}) {
    auto p = PipelineFor(name);
    ASSERT_TRUE(p.ok()) << name;
    EXPECT_GT(p.ValueOrDie().steps.size(), 10u);
    // Every pipeline exercises all three post-ingest stages.
    EXPECT_FALSE(p.ValueOrDie().StageSteps(Stage::kEDA).empty());
    EXPECT_FALSE(p.ValueOrDie().StageSteps(Stage::kDT).empty());
    EXPECT_FALSE(p.ValueOrDie().StageSteps(Stage::kDC).empty());
  }
  EXPECT_FALSE(PipelineFor("nope").ok());
}

TEST(PipelineTest, JsonRoundTrip) {
  auto p = PipelineFor("athlete").ValueOrDie();
  JsonValue spec = PipelineToJson(p);
  auto round = PipelineFromJson(spec).ValueOrDie();
  ASSERT_EQ(round.steps.size(), p.steps.size());
  for (size_t i = 0; i < p.steps.size(); ++i) {
    EXPECT_EQ(round.steps[i].op.kind, p.steps[i].op.kind) << i;
    EXPECT_EQ(round.steps[i].stage, p.steps[i].stage) << i;
    EXPECT_EQ(round.steps[i].carry, p.steps[i].carry) << i;
    EXPECT_EQ(round.steps[i].op.column, p.steps[i].op.column) << i;
  }
  // The JSON text itself parses back identically.
  auto reparsed = ParseJson(spec.Dump(2)).ValueOrDie();
  EXPECT_EQ(PipelineFromJson(reparsed).ValueOrDie().steps.size(),
            p.steps.size());
}

TEST(PipelineTest, OutOfRangeIntegersAreInvalid) {
  // "value" of an int scalar and "decimals" of a round go through the
  // range-checked int64 accessor: 1e300 is Invalid, not an overflowing cast.
  const char* specs[] = {
      R"({"steps": [{"op": "fillna", "stage": "DC", "column": "a",
                     "value": {"kind": "int", "value": 1e300}}]})",
      R"({"steps": [{"op": "round", "stage": "DT", "column": "a",
                     "decimals": 1e300}]})",
  };
  for (const char* text : specs) {
    SCOPED_TRACE(text);
    auto parsed = PipelineFromJson(ParseJson(text).ValueOrDie());
    ASSERT_FALSE(parsed.ok());
    EXPECT_TRUE(parsed.status().IsInvalid()) << parsed.status().ToString();
    EXPECT_NE(parsed.status().message().find("not an int64"),
              std::string::npos)
        << parsed.status().ToString();
  }
}

TEST(PipelineTest, RowFnRegistry) {
  EXPECT_TRUE(LookupRowFn("bmi").ok());
  EXPECT_TRUE(LookupRowFn("total_check").ok());
  EXPECT_FALSE(LookupRowFn("nope").ok());
}

TEST(ReportTest, TextTableAligns) {
  TextTable table({"engine", "time"});
  table.AddRow({"pandas", "1.5s"});
  table.AddRow({"spark_sql", "0.5s"});
  std::string s = table.ToString();
  EXPECT_NE(s.find("engine     time"), std::string::npos);
  EXPECT_NE(s.find("spark_sql  0.5s"), std::string::npos);
}

TEST(ReportTest, Formatters) {
  EXPECT_EQ(FormatSeconds(0.0000005), "0us");
  EXPECT_EQ(FormatSeconds(0.0123), "12.3ms");
  EXPECT_EQ(FormatSeconds(2.5), "2.50s");
  EXPECT_EQ(FormatSeconds(-1.0), "n/a");
  EXPECT_EQ(FormatSpeedup(12.54), "12.5x");
  EXPECT_EQ(FormatSpeedup(0.25), "0.250x");
  EXPECT_EQ(FormatSpeedup(150.0), "150x");
}

class RunnerTest : public ::testing::Test {
 protected:
  RunnerTest()
      : dir_("/tmp/bento_runner_test_" + std::to_string(::getpid())),
        // Tiny scale: athlete shrinks to ~200 rows.
        runner_(dir_, 0.001) {}

  ~RunnerTest() override {
    std::string cmd = "rm -rf " + dir_;
    (void)!system(cmd.c_str());
  }

  std::string dir_;
  Runner runner_;
};

TEST_F(RunnerTest, EnsureCsvGeneratesAndCaches) {
  auto path = runner_.EnsureCsv("athlete").ValueOrDie();
  FILE* f = fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  fclose(f);
  // Second call reuses the cache (same path).
  EXPECT_EQ(runner_.EnsureCsv("athlete").ValueOrDie(), path);
  // Samples get distinct files.
  EXPECT_NE(runner_.EnsureCsv("athlete", 0.5).ValueOrDie(), path);
}

TEST_F(RunnerTest, FullPipelinePerEngine) {
  auto pipeline = PipelineFor("athlete").ValueOrDie();
  for (const char* id : {"pandas", "polars", "spark_sql", "cudf", "vaex",
                         "datatable", "modin_ray"}) {
    SCOPED_TRACE(id);
    RunConfig config;
    config.engine_id = id;
    config.mode = RunMode::kPipelineStage;
    auto report = runner_.Run(config, pipeline, "athlete").ValueOrDie();
    EXPECT_TRUE(report.status.ok()) << id << ": " << report.status.ToString();
    EXPECT_GT(report.total_seconds, 0.0);
    EXPECT_GT(report.stage_seconds[Stage::kEDA], 0.0);
    EXPECT_GT(report.peak_host_bytes, 0u);
  }
}

TEST_F(RunnerTest, FunctionCoreModeTimesEveryOp) {
  auto pipeline = PipelineFor("athlete").ValueOrDie();
  RunConfig config;
  config.engine_id = "pandas2";
  config.mode = RunMode::kFunctionCore;
  auto report = runner_.Run(config, pipeline, "athlete").ValueOrDie();
  ASSERT_TRUE(report.status.ok()) << report.status.ToString();
  EXPECT_EQ(report.ops.size(), pipeline.steps.size());
  for (const OpTiming& op : report.ops) {
    EXPECT_GE(op.seconds, 0.0) << op.op;
  }
}

TEST_F(RunnerTest, BcfSourceMode) {
  auto pipeline = PipelineFor("athlete").ValueOrDie();
  RunConfig config;
  config.engine_id = "polars";
  config.use_bcf_source = true;
  auto report = runner_.Run(config, pipeline, "athlete").ValueOrDie();
  EXPECT_TRUE(report.status.ok()) << report.status.ToString();
}

TEST_F(RunnerTest, UndersizedMachineReportsOoM) {
  auto pipeline = PipelineFor("athlete").ValueOrDie();
  RunConfig config;
  config.engine_id = "pandas";
  // A machine whose scaled budget cannot hold even the scaled athlete CSV.
  config.machine = sim::MachineSpec{"micro", 2, 64ULL << 10, std::nullopt};
  auto report = runner_.Run(config, pipeline, "athlete").ValueOrDie();
  EXPECT_TRUE(report.status.IsOutOfMemory()) << report.status.ToString();
}

TEST_F(RunnerTest, EffectiveMachineScalesAndAttachesGpu) {
  RunConfig config;
  config.engine_id = "cudf";
  config.machine = sim::MachineSpec::Laptop();
  auto machine = runner_.EffectiveMachine(config);
  EXPECT_TRUE(machine.gpu.has_value());
  EXPECT_LT(machine.ram_bytes, sim::MachineSpec::Laptop().ram_bytes);
  config.engine_id = "pandas";
  EXPECT_FALSE(runner_.EffectiveMachine(config).gpu.has_value());
}

}  // namespace
}  // namespace bento::run
