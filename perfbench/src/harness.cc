#include "src/harness.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>

#include "bento/runner.h"
#include "columnar/builder.h"
#include "datagen/datasets.h"
#include "engines/pipeline_driver.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/thread_pool.h"
#include "src/fingerprint.h"
#include "src/replay.h"
#include "src/selftime.h"
#include "src/workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

extern char** environ;

namespace perfbench {

namespace fs = std::filesystem;
using bento::JsonValue;
using bento::Result;
using bento::Status;
using bento::col::TypeId;

namespace {

constexpr double kMiB = 1024.0 * 1024.0;
/// No new execution starts once the measured loop has run this much longer
/// than requested, whatever `min_executions` asks, so a run always ends
/// well inside its time limit.
constexpr double kLoopOverrunCapS = 60.0;

struct EnvRecord {
  bool done = false;
  std::map<std::string, std::string> seen;     ///< every BENTO_* variable
  std::map<std::string, std::string> cleared;  ///< the knobs removed
};

EnvRecord& Env() {
  static EnvRecord record;
  return record;
}

bool IsBehaviourKnob(const std::string& name) {
  static const char* const kKnobs[] = {
      "BENTO_CHUNK_ROWS", "BENTO_SIMD",       "BENTO_MEM_BUDGET",
      "BENTO_BCF_MMAP",   "BENTO_TRACE",      "BENTO_REPORT",
      "BENTO_EXECUTION",  "BENTO_POOL_THREADS", "BENTO_SCALE",
      "BENTO_EXPLAIN",    "BENTO_PERF",       "BENTO_OOM_TRACE"};
  if (name.rfind("BENTO_PIPELINE", 0) == 0) return true;
  for (const char* knob : kKnobs) {
    if (name == knob) return true;
  }
  return false;
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

double Lookup(const std::map<std::string, double>& m, const std::string& key) {
  auto it = m.find(key);
  return it == m.end() ? 0.0 : it->second;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Copy of `table` with the first valid cell of its first int64/float64
/// column increased by one.
Result<bento::col::TablePtr> CorruptOneCell(const bento::col::TablePtr& table) {
  for (int c = 0; c < table->num_columns(); ++c) {
    const bento::col::Array& a = *table->column(c);
    const std::string& name = table->schema()->field(c).name;
    bool changed = false;
    if (a.type() == TypeId::kFloat64) {
      bento::col::Float64Builder b;
      for (int64_t i = 0; i < a.length(); ++i) {
        double v = a.float64_data()[i];
        const bool valid = a.IsValid(i) && !std::isnan(v);
        if (valid && !changed) {
          v += 1.0;
          changed = true;
        }
        b.AppendMaybe(v, a.IsValid(i));
      }
      if (changed) {
        BENTO_ASSIGN_OR_RETURN(auto arr, b.Finish());
        return table->SetColumn(name, arr);
      }
    } else if (a.type() == TypeId::kInt64) {
      bento::col::Int64Builder b;
      for (int64_t i = 0; i < a.length(); ++i) {
        int64_t v = a.int64_data()[i];
        if (a.IsValid(i) && !changed) {
          v += 1;
          changed = true;
        }
        b.AppendMaybe(v, a.IsValid(i));
      }
      if (changed) {
        BENTO_ASSIGN_OR_RETURN(auto arr, b.Finish());
        return table->SetColumn(name, arr);
      }
    }
  }
  return Status::Invalid("output has no numeric cell to corrupt");
}

/// Program counters read after each execution (the registry is reset
/// before it), plus the exact sum of every plan.rewrite.* counter.
const char* const kCounters[] = {
    "io.bcf.bytes_read",          "io.bcf.bytes_mapped",
    "io.csv.bytes_read",          "io.bcf.bytes_written",
    "io.bcf.groups_skipped",      "pipeline.chunks",
    "pipeline.prefetch.stalls",   "lazy.mapped_materializations",
    "spill.bytes_written",        "spill.bytes_read",
    "sim.parallel_for.real_tasks", "pool.steals",
    "flat_grouper.probes",        "flat_grouper.collisions"};

std::map<std::string, double> ReadCounters() {
  const auto& registry = bento::obs::MetricsRegistry::Global();
  std::map<std::string, double> out;
  for (const char* name : kCounters) {
    out[name] = static_cast<double>(registry.CounterValue(name));
  }
  double rewrites = 0.0;
  const JsonValue snapshot = registry.ToJson();
  for (const auto& [name, value] : snapshot.Get("counters").members()) {
    if (name.rfind("plan.rewrite.", 0) == 0) rewrites += value.number_value();
  }
  out["plan.rewrites"] = rewrites;
  return out;
}

/// One measured execution, with its output already checked and released.
struct Sample {
  bool traced = false;
  bool ok = false;
  std::string failure;
  Execution ex;
  std::map<std::string, double> counters;
  SelfTimes self;
};

int ResolvedPipelineWorkers(const Workload& w,
                            const bento::sim::MachineSpec& machine) {
  auto engine = bento::frame::CreateEngine(w.config.engine_id);
  if (!engine.ok() || !(*engine)->info().multithreading) return 1;
  bento::sim::Session session(machine);
  session.set_execution_mode(bento::sim::ExecutionMode::kReal);
  bento::frame::ExecPolicy policy;
  policy.parallel = true;
  policy.parallel_options.mode = bento::sim::ExecutionMode::kReal;
  return bento::eng::ResolvePipelineOptions(policy).workers;
}

JsonValue StringMap(const std::map<std::string, std::string>& m) {
  JsonValue out = JsonValue::Object();
  for (const auto& [k, v] : m) out.Set(k, JsonValue::Str(v));
  return out;
}

JsonValue Provenance(const Options& options, const Workload& w, double scale,
                     const bento::sim::MachineSpec& machine) {
  char host[256] = {0};
  if (::gethostname(host, sizeof(host) - 1) != 0) host[0] = '\0';
  JsonValue p = JsonValue::Object();
  p.Set("git_sha", JsonValue::Str(options.git_sha));
  p.Set("host", JsonValue::Str(host));
  p.Set("nproc", JsonValue::Int(::sysconf(_SC_NPROCESSORS_ONLN)));
  p.Set("build_type", JsonValue::Str(PERFBENCH_BUILD_TYPE));
  p.Set("workload", JsonValue::Str(w.name));
  p.Set("dataset", JsonValue::Str(w.dataset));
  p.Set("engine", JsonValue::Str(w.config.engine_id));
  p.Set("reference_engine", JsonValue::Str(w.reference_engine_id));
  p.Set("machine", JsonValue::Str(machine.name));
  p.Set("ram_budget_mib",
        JsonValue::Number(static_cast<double>(machine.ram_bytes) / kMiB));
  p.Set("execution_mode", JsonValue::Str("real"));
  p.Set("pipeline_workers",
        JsonValue::Int(ResolvedPipelineWorkers(w, machine)));
  p.Set("thread_pool_size",
        JsonValue::Int(bento::sim::ThreadPool::Shared()->size()));
  p.Set("scale", JsonValue::Number(scale));
  p.Set("seed", JsonValue::Int(static_cast<int64_t>(options.seed)));
  p.Set("seconds", JsonValue::Number(options.seconds));
  p.Set("trace", JsonValue::Bool(options.trace));
  p.Set("bento_env", StringMap(Env().seen));
  p.Set("overridden_knobs", StringMap(Env().cleared));
  return p;
}

JsonValue ExecutionJson(const Sample& s) {
  JsonValue j = JsonValue::Object();
  j.Set("traced", JsonValue::Bool(s.traced));
  j.Set("ok", JsonValue::Bool(s.ok));
  if (!s.ok) j.Set("failure", JsonValue::Str(s.failure));
  j.Set("wall_s", JsonValue::Number(s.ex.wall_s));
  j.Set("cpu_s", JsonValue::Number(s.ex.cpu_s));
  j.Set("read_s", JsonValue::Number(s.ex.read_s));
  j.Set("write_s", JsonValue::Number(s.ex.write_s));
  for (const auto& [stage, seconds] : s.ex.stage_s) {
    j.Set("stage_" + stage + "_s", JsonValue::Number(seconds));
  }
  j.Set("peak_host_mib",
        JsonValue::Number(static_cast<double>(s.ex.peak_host_bytes) / kMiB));
  for (const auto& [name, value] : s.counters) {
    j.Set(name, JsonValue::Number(value));
  }
  if (s.traced) {
    j.Set("uncovered_s", JsonValue::Number(s.self.uncovered_s));
    j.Set("stage_span_wall_s", JsonValue::Number(s.self.stage_wall_s));
  }
  return j;
}

}  // namespace

void ClearBehaviourKnobs() {
  EnvRecord& env = Env();
  if (env.done) return;
  env.done = true;
  for (char** e = environ; e != nullptr && *e != nullptr; ++e) {
    const std::string entry = *e;
    const size_t eq = entry.find('=');
    if (eq == std::string::npos) continue;
    const std::string name = entry.substr(0, eq);
    if (name.rfind("BENTO_", 0) != 0) continue;
    env.seen[name] = entry.substr(eq + 1);
    if (IsBehaviourKnob(name)) env.cleared[name] = entry.substr(eq + 1);
  }
  for (const auto& [name, value] : env.cleared) ::unsetenv(name.c_str());
}

Result<RunResult> RunBenchmark(const Options& options) {
  ClearBehaviourKnobs();
  const Workload* found = FindWorkload(options.workload);
  if (found == nullptr) {
    return Status::KeyError("unknown workload '", options.workload, "'");
  }
  const Workload& w = *found;
  const double scale = options.scale > 0 ? options.scale : w.scale;

  // Inputs are keyed by (scale, seed): every pair gets its own directory.
  std::error_code ec;
  const fs::path work = fs::absolute(options.work_dir);
  const fs::path tmp = work / "tmp";
  char data_name[128];
  std::snprintf(data_name, sizeof(data_name), "%s-scale%g-seed%llu",
                w.dataset.c_str(), scale,
                static_cast<unsigned long long>(options.seed));
  const fs::path data_dir = work / "data" / data_name;
  const fs::path out_dir = work / "out";
  fs::remove_all(tmp, ec);
  for (const fs::path& dir : {tmp, data_dir.parent_path(), out_dir}) {
    fs::create_directories(dir, ec);
    if (ec) return Status::IOError("cannot create ", dir.string());
  }
  // Spill and materialized frames go to TMPDIR: keep them under work_dir.
  ::setenv("TMPDIR", tmp.c_str(), 1);

  BENTO_ASSIGN_OR_RETURN(bento::run::Pipeline pipeline,
                         bento::run::PipelineFor(w.dataset));

  // --- set-up: generate and write the input, several times (setup_s is
  // an end-to-end metric: a traced run sets up once) ---
  std::vector<double> setup_samples;
  std::string source_path;
  const int setup_reps = options.trace ? 1 : std::max(1, options.setup_reps);
  for (int rep = 0; rep < setup_reps; ++rep) {
    fs::remove_all(data_dir, ec);
    const double t0 = WallSeconds();
    bento::run::Runner runner(data_dir.string(), scale, options.seed);
    auto path = w.config.use_bcf_source ? runner.EnsureBcf(w.dataset)
                                        : runner.EnsureCsv(w.dataset);
    if (!path.ok()) return path.status();
    setup_samples.push_back(WallSeconds() - t0);
    source_path = *path;
  }
  const double input_bytes =
      static_cast<double>(fs::file_size(source_path, ec));
  if (ec || input_bytes <= 0) {
    return Status::IOError("cannot size input ", source_path);
  }
  bento::run::Runner runner(data_dir.string(), scale, options.seed);
  const bento::sim::MachineSpec machine = runner.EffectiveMachine(w.config);
  const std::string write_path =
      w.write_output ? (out_dir / (w.name + ".csv")).string() : "";

  // --- reference output, untimed ---
  const bento::run::RunConfig ref_config = ReferenceConfig(w);
  Execution ref = Replay(ref_config, runner.EffectiveMachine(ref_config),
                         pipeline, source_path, "");
  if (!ref.status.ok()) {
    return Status::Invalid("reference execution failed: ",
                           ref.status.ToString());
  }
  const Fingerprint expected = TakeFingerprint(*ref.output);
  ref.output.reset();

  auto execute = [&](bool traced) {
    Sample s;
    s.traced = traced;
    bento::obs::MetricsRegistry::Global().ResetAll();
    if (traced) bento::obs::StartTracing();
    s.ex = Replay(w.config, machine, pipeline, source_path, write_path);
    if (traced) {
      bento::obs::StopTracing();
      s.self = ComputeSelfTimes(SpansFromTrace(bento::obs::TraceToJson()));
    }
    s.counters = ReadCounters();
    if (!s.ex.status.ok()) {
      s.failure = s.ex.status.ToString();
    } else {
      bento::col::TablePtr output = s.ex.output;
      if (options.corrupt_output) {
        auto corrupted = CorruptOneCell(output);
        if (corrupted.ok()) output = corrupted.MoveValueUnsafe();
      }
      s.failure = CompareFingerprints(expected, TakeFingerprint(*output));
      if (!s.failure.empty()) s.failure = "output check: " + s.failure;
    }
    s.ok = s.failure.empty();
    s.ex.output.reset();
    return s;
  };

  // --- warm-up: one untimed execution, charged to set-up ---
  const double warmup_s = execute(false).ex.wall_s;

  // --- measured loop ---
  std::vector<Sample> samples;
  const double loop_start = WallSeconds();
  const int min_rounds = std::max(1, options.min_executions);
  for (int round = 0;; ++round) {
    const double elapsed = WallSeconds() - loop_start;
    if (elapsed >= options.seconds && round >= min_rounds) break;
    if (elapsed >= options.seconds + kLoopOverrunCapS && round > 0) break;
    if (!options.trace) {
      samples.push_back(execute(false));
    } else {
      // Alternate which side of the pair runs first.
      samples.push_back(execute(round % 2 == 1));
      samples.push_back(execute(round % 2 == 0));
    }
  }
  // Inputs are regenerated by every run: drop them, and the output CSV.
  for (const fs::path& dir : {tmp, data_dir, out_dir}) fs::remove_all(dir, ec);

  RunResult result;
  result.executions = JsonValue::Array();
  for (const Sample& s : samples) {
    ++result.attempted;
    if (!s.ok) {
      ++result.failed;
      result.failures.push_back(s.failure);
    }
    result.executions.Append(ExecutionJson(s));
  }
  result.correct = result.failed == 0;
  result.provenance = Provenance(options, w, scale, machine);

  // Figures come from successful executions; a run where none succeeded
  // reports over all of them (its ok_frac is 0 either way).
  auto select = [&](bool traced) {
    std::vector<const Sample*> out;
    for (const Sample& s : samples) {
      if (s.traced == traced && s.ok) out.push_back(&s);
    }
    if (out.empty()) {
      for (const Sample& s : samples) {
        if (s.traced == traced) out.push_back(&s);
      }
    }
    return out;
  };
  const std::vector<const Sample*> untraced = select(false);
  const std::vector<const Sample*> traced = select(true);
  auto median_of = [](const std::vector<const Sample*>& set, auto fn) {
    std::vector<double> v;
    for (const Sample* s : set) v.push_back(fn(*s));
    return Median(std::move(v));
  };
  auto field = [&](double Execution::*member) {
    return median_of(untraced, [&](const Sample& s) { return s.ex.*member; });
  };
  auto add = [&](std::string name, double value, std::string unit) {
    result.metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  };
  const double wall_s = field(&Execution::wall_s);

  if (!options.trace) {
    double peak = 0.0;
    for (const Sample* s : untraced) {
      peak = std::max(peak, static_cast<double>(s->ex.peak_host_bytes));
    }
    add("wall_s", wall_s, "s");
    add("cpu_s", field(&Execution::cpu_s), "s");
    add("peak_host_mib", peak / kMiB, "MiB");
    add("setup_s", Median(setup_samples) + warmup_s, "s");
    add("ok_frac",
        static_cast<double>(result.attempted - result.failed) /
            static_cast<double>(std::max<int64_t>(1, result.attempted)),
        "frac");
    return result;
  }

  // --- per-layer metrics (traced run) ---
  // Counters and benchmark-side timings: untraced executions. Self times:
  // traced executions.
  auto counter = [&](const char* name, double divisor = 1.0) {
    return median_of(untraced, [&](const Sample& s) {
      return s.counters.at(name) / divisor;
    });
  };
  auto stage = [&](const char* key) {
    return median_of(untraced,
                     [&](const Sample& s) { return Lookup(s.ex.stage_s, key); });
  };
  auto self_by_name = [&](const char* span) {
    return median_of(traced, [&](const Sample& s) {
      return Lookup(s.self.self_s_by_name, span);
    });
  };
  auto consumer_self = [&](const char* module) {
    return median_of(traced, [&](const Sample& s) {
      return Lookup(s.self.consumer_self_s_by_module, module);
    });
  };
  const bool csv_source = !w.config.use_bcf_source;

  // io
  add("io.read_s", field(&Execution::read_s), "s");
  add("io.write_s", field(&Execution::write_s), "s");
  add("io.read_amp", median_of(untraced, [&](const Sample& s) {
        // The streaming CSV reader does not count its bytes; a CSV source
        // is then taken as read once.
        double csv = s.counters.at("io.csv.bytes_read");
        if (csv_source && csv == 0.0) csv = input_bytes;
        return (s.counters.at("io.bcf.bytes_read") +
                s.counters.at("io.bcf.bytes_mapped") + csv) /
               input_bytes;
      }),
      "ratio");
  add("io.write_amp", counter("io.bcf.bytes_written", input_bytes), "ratio");
  add("io.bcf.groups_skipped", counter("io.bcf.groups_skipped"), "count");
  add("io.self_s", consumer_self("io"), "s");
  // engines
  add("engines.stage.eda_s", stage("eda"), "s");
  add("engines.stage.dt_s", stage("dt"), "s");
  add("engines.stage.dc_s", stage("dc"), "s");
  add("engines.pipeline.chunks", counter("pipeline.chunks"), "count");
  add("engines.prefetch.stalls", counter("pipeline.prefetch.stalls"), "count");
  add("engines.mapped_materializations",
      counter("lazy.mapped_materializations"), "count");
  add("engines.self.pipeline_chunk_s", self_by_name("pipeline.chunk"), "s");
  add("engines.self.prefetch_s", self_by_name("pipeline.prefetch"), "s");
  add("engines.self.materialize_mapped_s", self_by_name("materialize.mapped"),
      "s");
  add("engines.self.materialize_compact_s",
      self_by_name("materialize.compact"), "s");
  // The lazy engines' plan execution spans: their self time is where the
  // breaker fold and the waits on pipeline workers sit today.
  add("engines.self.execute_s", median_of(traced, [](const Sample& s) {
        double total = 0.0;
        for (const auto& [name, seconds] : s.self.self_s_by_name) {
          if (EndsWith(name, ".execute") || EndsWith(name, ".execute_action")) {
            total += seconds;
          }
        }
        return total;
      }),
      "s");
  add("engines.uncovered_s",
      median_of(traced, [](const Sample& s) { return s.self.uncovered_s; }),
      "s");
  add("engines.self_s", consumer_self("engines"), "s");
  // sim
  add("sim.spill.written_mib", counter("spill.bytes_written", kMiB), "MiB");
  add("sim.spill.read_mib", counter("spill.bytes_read", kMiB), "MiB");
  add("sim.cpu_per_wall", median_of(untraced, [](const Sample& s) {
        return s.ex.wall_s > 0 ? s.ex.cpu_s / s.ex.wall_s : 0.0;
      }),
      "ratio");
  add("sim.real_tasks", counter("sim.parallel_for.real_tasks"), "count");
  add("sim.pool.steals", counter("pool.steals"), "count");
  add("sim.self.spill_write_s", self_by_name("spill.write"), "s");
  add("sim.self.spill_read_s", self_by_name("spill.read"), "s");
  add("sim.self_s", consumer_self("sim"), "s");
  // kernels: one figure per preparator of the loan pipeline
  BENTO_ASSIGN_OR_RETURN(bento::run::Pipeline loan,
                         bento::run::PipelineFor("loan"));
  std::vector<std::string> op_names;
  for (const auto& step : loan.steps) {
    const std::string name = bento::frame::OpKindName(step.op.kind);
    if (std::find(op_names.begin(), op_names.end(), name) == op_names.end()) {
      op_names.push_back(name);
    }
  }
  for (const std::string& op : op_names) {
    add("kernels.op." + op + "_s",
        median_of(untraced,
                  [&](const Sample& s) { return Lookup(s.ex.op_s, op); }),
        "s");
  }
  add("kernels.grouper_collision_frac",
      median_of(untraced, [](const Sample& s) {
        const double probes = s.counters.at("flat_grouper.probes");
        return probes > 0 ? s.counters.at("flat_grouper.collisions") / probes
                          : 0.0;
      }),
      "frac");
  add("kernels.self_s", consumer_self("kernels"), "s");
  // plan
  add("plan.rewrites", counter("plan.rewrites"), "count");
  add("plan.self_s", consumer_self("plan"), "s");
  // obs
  const double traced_wall =
      median_of(traced, [](const Sample& s) { return s.ex.wall_s; });
  add("obs.trace_overhead_frac", wall_s > 0 ? traced_wall / wall_s - 1.0 : 0.0,
      "frac");
  double residual = 0.0;
  for (const Sample* s : traced) {
    const double wall = s->self.stage_wall_s;
    if (wall <= 0) continue;
    residual = std::max(
        residual,
        std::fabs(s->self.ConsumerSelfTotal() + s->self.uncovered_s - wall) /
            wall);
  }
  add("obs.selftime_residual_frac", residual, "frac");
  // datagen
  const double gen_start = WallSeconds();
  auto generated = bento::gen::GenerateDataset(w.dataset, scale, options.seed);
  if (!generated.ok()) return generated.status();
  add("datagen.gen_s", WallSeconds() - gen_start, "s");
  return result;
}

JsonValue ResultLine(const RunResult& result) {
  JsonValue metrics = JsonValue::Object();
  for (const Metric& m : result.metrics) {
    JsonValue entry = JsonValue::Object();
    entry.Set("value", JsonValue::Number(m.value));
    entry.Set("unit", JsonValue::Str(m.unit));
    metrics.Set(m.name, std::move(entry));
  }
  JsonValue line = JsonValue::Object();
  line.Set("correct", JsonValue::Bool(result.correct));
  line.Set("attempted", JsonValue::Int(result.attempted));
  line.Set("failed", JsonValue::Int(result.failed));
  line.Set("metrics", std::move(metrics));
  return line;
}

}  // namespace perfbench
