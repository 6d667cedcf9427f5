#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <string>
#include <vector>

#include "bento/runner.h"

namespace perfbench {

/// \brief One fixed benchmark workload: a paper pipeline, the engine that
/// runs it, and the machine model and measurement setting it runs under.
/// See README.md for why each was chosen.
struct Workload {
  std::string name;
  std::string dataset;
  /// Engine, machine and run mode of the timed executions. The session is
  /// always switched to real execution (sim::ExecutionMode::kReal).
  bento::run::RunConfig config;
  /// Engine of the untimed reference execution the outputs are checked
  /// against (evaluation-host model, simulated, serial).
  std::string reference_engine_id;
  /// Dataset scale factor relative to the paper's sizes.
  double scale = 0.01;
  /// The execution ends by writing the prepared frame with Engine::WriteCsv.
  bool write_output = false;
};

const std::vector<Workload>& Workloads();

/// The named workload, or nullptr.
const Workload* FindWorkload(const std::string& name);

/// The untimed reference configuration for `workload`.
bento::run::RunConfig ReferenceConfig(const Workload& workload);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
