// Produce a Chrome/Perfetto trace of one pipeline run: the observability
// tour. Runs a dataset pipeline in function-core mode (every preparator
// forced and timed, as in the paper's per-operation measurements) with
// tracing on, then prints where to load the result.
//
//   $ ./build/examples/trace_pipeline [--trace out.json] [--report]
//         [--streaming] [dataset] [engine]
//
// Defaults: loan pipeline, polars engine, trace written to
// bento_trace.json (or $BENTO_TRACE when set). Open the file at
// https://ui.perfetto.dev or chrome://tracing; see README.md for the
// recipe and DESIGN.md for the span taxonomy. `--report` (or BENTO_REPORT=1)
// additionally samples per-span hardware counters and prints the
// resource/energy rollup table after the run. `--streaming` switches to the
// out-of-core shape (laptop RAM model, per-stage collect): with
// BENTO_EXECUTION=real and BENTO_PIPELINE_WORKERS=4 the trace shows the
// morsel pipeline's overlapping `pipeline.chunk` spans across worker
// threads, with the `bcf.read_group` reads of the BCF source on the same
// workers.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bento/pipeline.h"
#include "bento/report.h"
#include "bento/runner.h"
#include "sim/machine.h"

using namespace bento;

int main(int argc, char** argv) {
  std::string trace_path;
  std::string dataset = "loan";
  std::string engine = "polars";
  bool report_requested = false;
  bool streaming = false;
  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--report") == 0) {
      report_requested = true;
    } else if (std::strcmp(argv[i], "--streaming") == 0) {
      streaming = true;
    } else if (positional == 0) {
      dataset = argv[i];
      ++positional;
    } else {
      engine = argv[i];
    }
  }
  // Precedence: --trace flag, then $BENTO_TRACE, then the default file.
  if (trace_path.empty()) {
    const char* env = std::getenv("BENTO_TRACE");
    trace_path = env != nullptr ? env : "bento_trace.json";
  }

  run::Runner runner("./example_data", 0.002);
  auto pipeline = run::PipelineFor(dataset);
  if (!pipeline.ok()) {
    std::fprintf(stderr, "unknown dataset '%s': %s\n", dataset.c_str(),
                 pipeline.status().ToString().c_str());
    return 1;
  }

  run::RunConfig config;
  config.engine_id = engine;
  config.mode = run::RunMode::kFunctionCore;
  if (streaming) {
    config.mode = run::RunMode::kPipelineStage;
    config.machine = sim::MachineSpec::Laptop();
    config.use_bcf_source = engine != "vaex";
  }
  config.trace_path = trace_path;
  config.collect_resources = report_requested;
  auto report = runner.Run(config, pipeline.ValueOrDie(), dataset);
  if (!report.ok()) {
    std::fprintf(stderr, "run failed: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }

  std::printf("%s pipeline on %s (%s mode)\n\n%s\n", dataset.c_str(),
              engine.c_str(),
              streaming ? "streaming out-of-core" : "function-core",
              run::RunReportText(report.ValueOrDie()).c_str());
  std::printf("trace written to %s — load it at https://ui.perfetto.dev\n",
              trace_path.c_str());
  return report.ValueOrDie().status.ok() ? 0 : 1;
}
