#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "util/json.h"
#include "util/result.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  /// Length of the measured loop. At least `min_executions` executions (or
  /// untraced/traced pairs with `trace`) run even when they take longer.
  double seconds = 10.0;
  /// false: untraced executions, end-to-end metrics. true: alternating
  /// untraced and traced executions, per-layer metrics.
  bool trace = false;
  /// Everything the run writes goes below this directory.
  std::string work_dir = ".bench_work";
  /// Dataset scale; 0 keeps the workload's own.
  double scale = 0.0;
  int setup_reps = 3;
  int min_executions = 3;
  /// Self-test hook: change one cell of every output before it is checked.
  bool corrupt_output = false;
  std::string git_sha = "unknown";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
  /// Failure descriptions (status or output-check mismatch), one per
  /// failed execution.
  std::vector<std::string> failures;
  bento::JsonValue provenance;
  /// Per-execution figures, for the result file.
  bento::JsonValue executions;
};

/// \brief Removes the environment knobs that change the program's
/// behaviour (BENTO_PIPELINE*, BENTO_CHUNK_ROWS, BENTO_SIMD, ...) from this
/// process, so parent and change run the same defaults. Call before any
/// library code reads them. The first call records every BENTO_* variable
/// and which ones were removed; later calls do nothing.
void ClearBehaviourKnobs();

/// Sets up the workload's inputs, computes its reference output, and runs
/// the measured loop. An error means the run could not be measured at all
/// (unknown workload, input or reference failure).
bento::Result<RunResult> RunBenchmark(const Options& options);

/// The final stdout line: {"correct", "attempted", "failed", "metrics"}.
bento::JsonValue ResultLine(const RunResult& result);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
