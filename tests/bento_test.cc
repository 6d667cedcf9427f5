#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>

#include "bento/pipeline.h"
#include "bento/report.h"
#include "bento/runner.h"
#include "tests/test_util.h"
#include "util/random.h"

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

TEST(PipelineTest, EveryOpNameRoundTripsThroughTheTable) {
  for (size_t k = 0; k < frame::kNumOpKinds; ++k) {
    const auto kind = static_cast<frame::OpKind>(k);
    const std::string name = frame::OpKindName(kind);
    ASSERT_OK_AND_ASSIGN(frame::OpKind back, frame::OpKindFromName(name));
    EXPECT_EQ(back, kind) << name;
    // A bare step of the kind is that kind, or fails on a missing field.
    auto parsed = PipelineFromJson(ParseJson(R"({"steps": [{"op": ")" + name +
                                             R"(", "stage": "DT"}]})")
                                       .ValueOrDie());
    if (parsed.ok()) {
      EXPECT_EQ(parsed.ValueOrDie().steps.at(0).op.kind, kind) << name;
    } else {
      EXPECT_EQ(parsed.status().message().find("unknown op"),
                std::string::npos)
          << parsed.status().ToString();
    }
  }
  for (const char* name : {"", "ISNA", "isna ", "nope"}) {
    EXPECT_TRUE(frame::OpKindFromName(name).status().IsInvalid()) << name;
  }
}

TEST(PipelineTest, MutatedJsonSpecsParseOrFailCleanly) {
  // Byte flips, inserts, deletes and truncations of each dataset's spec:
  // every mutant gives a pipeline or a Status from ParseJson and
  // PipelineFromJson, never a crash.
  constexpr int kMutantsPerDataset = 2500;
  constexpr char kAlphabet[] = "{}[]:,\"\\ -+.eE019aflnrstu\x01\xff";
  Rng rng(20261019);
  int specs = 0;
  int pipelines = 0;
  for (const char* dataset : {"athlete", "loan", "patrol", "taxi"}) {
    SCOPED_TRACE(dataset);
    const std::string text =
        PipelineToJson(PipelineFor(dataset).ValueOrDie()).Dump();
    for (int m = 0; m < kMutantsPerDataset; ++m) {
      std::string mutant = text;
      const uint64_t edits = 1 + rng.Uniform(4);
      for (uint64_t e = 0; e < edits && !mutant.empty(); ++e) {
        const size_t at = rng.Uniform(mutant.size());
        const char byte = kAlphabet[rng.Uniform(sizeof(kAlphabet) - 1)];
        switch (rng.Uniform(4)) {
          case 0:
            mutant[at] = byte;
            break;
          case 1:
            mutant.insert(at, 1, byte);
            break;
          case 2:
            mutant.erase(at, 1 + rng.Uniform(16));
            break;
          default:
            mutant.resize(at);
            break;
        }
      }
      auto json = ParseJson(mutant);
      if (!json.ok()) continue;
      ++specs;
      if (PipelineFromJson(json.ValueOrDie()).ok()) ++pipelines;
    }
  }
  // Both layers saw mutants: some parse as JSON, and some of those still
  // decode into a pipeline while others fail in the op decoder.
  EXPECT_GT(specs, pipelines);
  EXPECT_GT(pipelines, 0);
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
