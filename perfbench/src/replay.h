#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bento/pipeline.h"
#include "bento/runner.h"

namespace perfbench {

/// Prefix of every span the benchmark itself records. Spans without it are
/// the program's own.
inline constexpr const char* kBenchSpanPrefix = "bench.";
/// Top-level benchmark spans on the calling thread: one per stage, plus
/// one around the final collect and one around the output write.
inline constexpr const char* kBenchStagePrefix = "bench.stage.";

/// \brief What one pipeline execution did, timed from outside the program.
struct Execution {
  bento::Status status;
  bento::col::TablePtr output;  ///< the final collected table (when ok)
  double wall_s = 0.0;          ///< read, all stages, final collect, write
  double cpu_s = 0.0;           ///< process CPU (user+sys, all threads)
  double read_s = 0.0;          ///< read + I/O-stage collect
  double write_s = 0.0;         ///< Engine::WriteCsv (0 without a write)
  /// Wall seconds per stage, keyed "eda", "dt", "dc"; the final collect is
  /// charged to the last stage, as run::Runner::Run charges it.
  std::map<std::string, double> stage_s;
  /// Function-core mode: Apply/RunAction + forced collect per preparator,
  /// summed by frame::OpKindName.
  std::map<std::string, double> op_s;
  /// run::RunReport::peak_host_bytes, computed the same way.
  uint64_t peak_host_bytes = 0;
};

/// \brief Runs `pipeline` on the input at `source_path` the way
/// run::Runner::Run does — same session set-up, same calls in the same
/// order, same per-stage and final collects, same peak bookkeeping — but
/// timing each public call (Engine::ReadCsv/ReadBcf/WriteCsv,
/// DataFrame::Apply/RunAction/Collect) from the benchmark side. When an
/// obs trace is being collected, every timed call is also a `bench.*` span.
///
/// Replays the per-stage and function-core settings; full-pipeline mode and
/// named merge right-hand sides, which no workload uses, return
/// NotImplemented. `machine` is the already-scaled machine
/// (Runner::EffectiveMachine). When `write_path` is non-empty the prepared
/// frame is written there as CSV after the final collect.
Execution Replay(const bento::run::RunConfig& config,
                 const bento::sim::MachineSpec& machine,
                 const bento::run::Pipeline& pipeline,
                 const std::string& source_path,
                 const std::string& write_path);

/// Process CPU seconds (user+sys, all threads) since process start.
double ProcessCpuSeconds();

/// Monotonic wall clock in seconds.
double WallSeconds();

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
