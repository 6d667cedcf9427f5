// Wall-clock pipeline benchmark binary. Usually started through run.py,
// which builds it first:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--work-dir <dir>] [--git-sha <sha>]
//
// Prints a provenance line, then as its last stdout line one JSON object
// {"correct", "attempted", "failed", "metrics"}. Also writes the full result
// (provenance, metrics, every execution) to
// <work-dir>/results/<workload>-seed<n>-trace<0|1>.json. Exit codes: 0 when
// every execution succeeded and passed the output check, 1 when one did
// not, 2 when the run could not be measured at all.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#include "src/harness.h"

namespace {

int Usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--work-dir <dir>] "
               "[--git-sha <sha>]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // Before any library code can read and cache a knob.
  perfbench::ClearBehaviourKnobs();

  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--git-sha") {
      options.git_sha = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (options.workload.empty()) return Usage("--workload is required");

  auto run = perfbench::RunBenchmark(options);
  if (!run.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", run.status().ToString().c_str());
    return 2;
  }
  const perfbench::RunResult& result = *run;
  const bento::JsonValue line = perfbench::ResultLine(result);

  bento::JsonValue full = bento::JsonValue::Object();
  full.Set("provenance", result.provenance);
  full.Set("result", line);
  bento::JsonValue failures = bento::JsonValue::Array();
  for (const std::string& f : result.failures) {
    failures.Append(bento::JsonValue::Str(f));
  }
  full.Set("failures", std::move(failures));
  full.Set("executions", result.executions);
  namespace fs = std::filesystem;
  const fs::path results_dir = fs::path(options.work_dir) / "results";
  std::error_code ec;
  fs::create_directories(results_dir, ec);
  const fs::path file =
      results_dir / (options.workload + "-seed" + std::to_string(options.seed) +
                     "-trace" + (options.trace ? "1" : "0") + ".json");
  std::ofstream(file) << full.Dump(2) << "\n";

  for (const std::string& f : result.failures) {
    std::fprintf(stderr, "perfbench: failed execution: %s\n", f.c_str());
  }
  bento::JsonValue prov = bento::JsonValue::Object();
  prov.Set("provenance", result.provenance);
  prov.Set("result_file", bento::JsonValue::Str(file.string()));
  std::printf("%s\n%s\n", prov.Dump(0).c_str(), line.Dump(0).c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
