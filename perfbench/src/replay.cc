#include "src/replay.h"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <optional>

#include "obs/trace.h"
#include "sim/parallel.h"

namespace perfbench {

using bento::Result;
using bento::Status;
using bento::frame::DataFrame;
using bento::frame::Op;
using bento::frame::OpKind;
using bento::frame::Stage;
using bento::obs::Category;
using bento::run::PipelineStep;
using bento::run::RunMode;

namespace {

/// Times one region from the benchmark side. While an obs trace is being
/// collected, the region is also a `bench.<name>[.<detail>]` span on the
/// calling thread; otherwise it costs two clock reads.
class Timed {
 public:
  Timed(Category category, const char* name, const char* detail = nullptr)
      : start_(WallSeconds()) {
    if (!bento::obs::TracingEnabled()) return;
    std::string full = std::string(kBenchSpanPrefix) + name;
    if (detail != nullptr) full = full + "." + detail;
    span_.emplace(category, std::move(full));
  }

  /// Seconds since construction; ends the span. Later calls return the
  /// same value.
  double Stop() {
    if (!stopped_) {
      elapsed_ = WallSeconds() - start_;
      stopped_ = true;
      span_.reset();
    }
    return elapsed_;
  }

 private:
  double start_;
  double elapsed_ = 0.0;
  bool stopped_ = false;
  std::optional<bento::obs::TraceSpan> span_;
};

const char* StageKey(Stage stage) {
  switch (stage) {
    case Stage::kIO:
      return "io";
    case Stage::kEDA:
      return "eda";
    case Stage::kDT:
      return "dt";
    case Stage::kDC:
      return "dc";
  }
  return "unknown";
}

}  // namespace

double WallSeconds() {
  using Clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

double ProcessCpuSeconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

Execution Replay(const bento::run::RunConfig& config,
                 const bento::sim::MachineSpec& machine,
                 const bento::run::Pipeline& pipeline,
                 const std::string& source_path,
                 const std::string& write_path) {
  Execution ex;
  const double wall_start = WallSeconds();
  const double cpu_start = ProcessCpuSeconds();
  auto finish = [&](Status status) {
    ex.status = std::move(status);
    ex.wall_s = WallSeconds() - wall_start;
    ex.cpu_s = ProcessCpuSeconds() - cpu_start;
    return std::move(ex);
  };

  if (config.mode == RunMode::kPipelineFull) {
    return finish(Status::NotImplemented(
        "full-pipeline mode is not replayed: no workload runs it"));
  }
  auto created = bento::frame::CreateEngine(config.engine_id);
  if (!created.ok()) return finish(created.status());
  bento::frame::EnginePtr engine = created.MoveValueUnsafe();

  bento::sim::Session session(machine);
  session.set_isolated_measurement(config.mode == RunMode::kFunctionCore);
  if (config.execution_mode.has_value()) {
    session.set_execution_mode(*config.execution_mode);
  }
  const bool per_op_peaks = config.mode == RunMode::kFunctionCore;
  uint64_t host_peak_hwm = 0;

  // --- I/O stage: read, then collect ---
  DataFrame::Ptr frame;
  {
    Timed stage(Category::kStage, "stage.io");
    if (per_op_peaks) session.host_pool()->ResetPeak();
    Timed read_call(Category::kPreparator, "read");
    Result<DataFrame::Ptr> read = config.use_bcf_source
                                      ? engine->ReadBcf(source_path)
                                      : engine->ReadCsv(source_path, {});
    read_call.Stop();
    if (!read.ok()) {
      ex.read_s = stage.Stop();
      return finish(read.status());
    }
    frame = read.MoveValueUnsafe();
    Timed collect_call(Category::kPreparator, "collect");
    Status st = frame->Collect().status();
    collect_call.Stop();
    ex.read_s = stage.Stop();
    if (!st.ok()) return finish(st);
  }
  if (per_op_peaks) {
    host_peak_hwm = std::max(host_peak_hwm, session.host_pool()->peak_bytes());
  }

  // --- pipeline stages ---
  Stage current_stage = Stage::kEDA;
  std::optional<Timed> stage_timer;

  auto close_stage = [&](Stage stage) -> Status {
    if (!stage_timer.has_value()) return Status::OK();
    Status st;
    if (config.mode == RunMode::kPipelineStage) {
      Timed collect_call(Category::kPreparator, "collect");
      st = frame->Collect().status();
    }
    ex.stage_s[StageKey(stage)] += stage_timer->Stop();
    stage_timer.reset();
    return st;
  };

  Status failure;
  for (const PipelineStep& step : pipeline.steps) {
    if (stage_timer.has_value() && step.stage != current_stage) {
      failure = close_stage(current_stage);
      if (!failure.ok()) break;
    }
    if (!stage_timer.has_value()) {
      current_stage = step.stage;
      stage_timer.emplace(Category::kStage, "stage", StageKey(step.stage));
    }

    const Op& op = step.op;
    if (op.kind == OpKind::kMerge && op.other == nullptr) {
      // Named right-hand sides (Runner::MaterializeAux) belong to pipelines
      // no workload runs.
      failure = Status::NotImplemented("named merge sides are not replayed");
      break;
    }

    const char* kind_name = bento::frame::OpKindName(op.kind);
    if (per_op_peaks) session.host_pool()->ResetPeak();
    Timed op_timer(Category::kPreparator, "op", kind_name);
    Status op_status;
    if (bento::frame::IsAction(op.kind)) {
      Timed call(Category::kPreparator, "action", kind_name);
      op_status = frame->RunAction(op).status();
    } else {
      Timed apply_call(Category::kPreparator, "apply", kind_name);
      auto applied = frame->Apply(op);
      apply_call.Stop();
      if (applied.ok()) {
        DataFrame::Ptr result = applied.MoveValueUnsafe();
        if (config.mode == RunMode::kFunctionCore || !step.carry) {
          Timed collect_call(Category::kPreparator, "collect");
          op_status = result->Collect().status();
        }
        if (op_status.ok() && step.carry) frame = std::move(result);
      } else {
        op_status = applied.status();
      }
    }
    const double op_seconds = op_timer.Stop();
    if (config.mode == RunMode::kFunctionCore) {
      host_peak_hwm =
          std::max(host_peak_hwm, session.host_pool()->peak_bytes());
      ex.op_s[kind_name] += op_seconds;
    }
    if (!op_status.ok()) {
      failure = op_status;
      break;
    }
  }

  if (failure.ok() && stage_timer.has_value()) {
    failure = close_stage(current_stage);
  }
  if (failure.ok()) {
    Timed final_collect(Category::kStage, "stage.final");
    auto collected = frame->Collect();
    ex.stage_s[StageKey(current_stage)] += final_collect.Stop();
    if (collected.ok()) {
      ex.output = collected.MoveValueUnsafe();
    } else {
      failure = collected.status();
    }
  }
  // Abandoned stage (a failed preparator): close its span without a collect.
  if (stage_timer.has_value()) stage_timer->Stop();

  ex.peak_host_bytes =
      per_op_peaks ? std::max(host_peak_hwm, session.host_pool()->peak_bytes())
                   : session.host_pool()->peak_bytes();

  if (failure.ok() && !write_path.empty()) {
    Timed write(Category::kStage, "stage.write");
    failure = engine->WriteCsv(frame, write_path);
    ex.write_s = write.Stop();
  }
  return finish(std::move(failure));
}

}  // namespace perfbench
