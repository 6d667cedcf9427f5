#include "src/workloads.h"

namespace perfbench {

using bento::run::RunConfig;
using bento::run::RunMode;
using bento::sim::ExecutionMode;
using bento::sim::MachineSpec;

namespace {

RunConfig TimedConfig(const char* engine_id, MachineSpec machine, RunMode mode,
                      bool bcf_source) {
  RunConfig config;
  config.engine_id = engine_id;
  config.machine = std::move(machine);
  config.mode = mode;
  config.use_bcf_source = bcf_source;
  config.execution_mode = ExecutionMode::kReal;
  return config;
}

std::vector<Workload> MakeWorkloads() {
  std::vector<Workload> out;
  {
    // The paper's pick once data outgrows RAM: SparkSQL on the laptop model.
    // Scaled with the data, the laptop's 16 GiB becomes a 32.8 MiB budget,
    // so the per-stage collects spill and materialize file-backed frames.
    Workload w;
    w.name = "taxi_ooc";
    w.dataset = "taxi";
    w.config = TimedConfig("spark_sql", MachineSpec::Laptop(),
                           RunMode::kPipelineStage, /*bcf_source=*/true);
    w.reference_engine_id = "spark_sql";
    w.scale = 0.002;
    out.push_back(std::move(w));
  }
  {
    // The paper's in-RAM pick: Polars, lazy, streaming a string-heavy CSV
    // with no memory pressure; stages are forced as in the paper's Fig. 1.
    Workload w;
    w.name = "patrol_inmem";
    w.dataset = "patrol";
    w.config = TimedConfig("polars", MachineSpec::EvaluationHost(),
                           RunMode::kPipelineStage, /*bcf_source=*/false);
    w.reference_engine_id = "polars";
    w.scale = 0.01;
    out.push_back(std::move(w));
  }
  {
    // The paper's small-data pick: Pandas, every preparator forced and
    // timed (function-core, Fig. 2), ending with to_csv of the result. The
    // reference is Pandas 2 so the check is not Pandas checking itself.
    Workload w;
    w.name = "loan_eager";
    w.dataset = "loan";
    w.config = TimedConfig("pandas", MachineSpec::EvaluationHost(),
                           RunMode::kFunctionCore, /*bcf_source=*/false);
    w.reference_engine_id = "pandas2";
    w.scale = 0.01;
    w.write_output = true;
    out.push_back(std::move(w));
  }
  return out;
}

}  // namespace

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> workloads = MakeWorkloads();
  return workloads;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

RunConfig ReferenceConfig(const Workload& workload) {
  RunConfig config = workload.config;
  config.engine_id = workload.reference_engine_id;
  config.machine = MachineSpec::EvaluationHost();
  config.execution_mode = ExecutionMode::kSimulated;
  return config;
}

}  // namespace perfbench
