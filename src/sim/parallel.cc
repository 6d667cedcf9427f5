#include "sim/parallel.h"

#include <algorithm>
#include <queue>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/thread_pool.h"

namespace bento::sim {

namespace {

/// Real dispatch requires the caller to ask for it (options.mode), the
/// session — when one is installed — to allow it, and the calling thread to
/// not already be a pool worker (nested fan-out runs inline).
bool UseRealExecution(const ParallelOptions& options, const Session* session) {
  if (options.mode != ExecutionMode::kReal) return false;
  if (session != nullptr &&
      session->execution_mode() != ExecutionMode::kReal) {
    return false;
  }
  return !ThreadPool::OnWorkerThread();
}

}  // namespace

double SimulateMakespan(const std::vector<double>& durations, int workers,
                        SchedulePolicy policy, double per_task_dispatch_s) {
  if (durations.empty()) return 0.0;
  if (workers < 1) workers = 1;
  const size_t n = durations.size();

  if (policy == SchedulePolicy::kStaticBlocks) {
    // Contiguous block pre-assignment: worker w gets tasks
    // [w*n/workers, (w+1)*n/workers). The centralized dispatcher also
    // serializes one dispatch per task before any work starts.
    double dispatch = per_task_dispatch_s * static_cast<double>(n);
    double makespan = 0.0;
    for (int w = 0; w < workers; ++w) {
      size_t b = n * static_cast<size_t>(w) / static_cast<size_t>(workers);
      size_t e = n * static_cast<size_t>(w + 1) / static_cast<size_t>(workers);
      double sum = 0.0;
      for (size_t i = b; i < e; ++i) sum += durations[i];
      makespan = std::max(makespan, sum);
    }
    return makespan + dispatch;
  }

  // Greedy list scheduling in submission order: each task starts on the
  // worker that becomes free first, not earlier than its dispatch time.
  std::priority_queue<double, std::vector<double>, std::greater<>> free_at;
  for (int w = 0; w < workers; ++w) free_at.push(0.0);
  double makespan = 0.0;
  double dispatch_clock = 0.0;
  for (size_t i = 0; i < n; ++i) {
    dispatch_clock += per_task_dispatch_s;
    double start = std::max(free_at.top(), dispatch_clock);
    free_at.pop();
    double end = start + durations[i];
    free_at.push(end);
    makespan = std::max(makespan, end);
  }
  return makespan;
}

Status ParallelFor(int64_t n, const std::function<Status(int64_t)>& fn,
                   const ParallelOptions& options) {
  Session* session = Session::Current();
  int workers = options.max_workers;
  if (workers <= 0) workers = session != nullptr ? session->cores() : 1;
  // Real threads never exceed the simulated machine's core count.
  if (session != nullptr) workers = std::min(workers, session->cores());

  if (n > 1 && workers > 1 && UseRealExecution(options, session)) {
    BENTO_TRACE_SPAN(kSim, "parallel_for.real");
    static obs::Counter* real_tasks =
        obs::MetricsRegistry::Global().counter("sim.parallel_for.real_tasks");
    real_tasks->Add(static_cast<uint64_t>(n));
    return ThreadPool::Shared()->ParallelFor(n, fn, workers,
                                             MemoryPool::Current());
  }

  // One worker or one task overlaps nothing: without a dispatch cost the
  // simulated credit would be exactly zero, so the tasks run as a plain
  // loop, untimed and outside any span of this module.
  if ((n <= 1 || workers <= 1) && options.per_task_dispatch_s == 0.0) {
    for (int64_t i = 0; i < n; ++i) BENTO_RETURN_NOT_OK(fn(i));
    return Status::OK();
  }

  BENTO_TRACE_SPAN(kSim, "parallel_for.sim");
  static obs::Counter* sim_tasks =
      obs::MetricsRegistry::Global().counter("sim.parallel_for.sim_tasks");
  sim_tasks->Add(static_cast<uint64_t>(n > 0 ? n : 0));
  std::vector<double> durations;
  durations.reserve(static_cast<size_t>(n));
  Status first_error;
  for (int64_t i = 0; i < n; ++i) {
    double t0 = NowSeconds();
    Status st = fn(i);
    durations.push_back(NowSeconds() - t0);
    if (!st.ok()) {
      first_error = st;
      break;
    }
  }

  if (session != nullptr && !durations.empty()) {
    double serial = 0.0;
    for (double d : durations) serial += d;
    double makespan = SimulateMakespan(durations, workers, options.policy,
                                       options.per_task_dispatch_s);
    // Credit the overlap; if dispatch overhead makes the simulated schedule
    // slower than serial execution, this charges a penalty instead.
    session->AddTimeCredit(serial - makespan);
  }
  return first_error;
}

void ChargePenalty(double seconds) {
  Session* session = Session::Current();
  if (session != nullptr) session->AddTimeCredit(-seconds);
}

std::vector<std::pair<int64_t, int64_t>> MorselRanges(int64_t n, int workers) {
  std::vector<std::pair<int64_t, int64_t>> out;
  if (n <= 0) return out;
  if (workers < 1) workers = 1;
  int64_t chunks = (n + kMorselRows - 1) / kMorselRows;
  const int64_t cap = static_cast<int64_t>(workers) * 32;
  if (chunks > cap) chunks = cap;
  if (chunks < 1) chunks = 1;
  out.reserve(static_cast<size_t>(chunks));
  for (int64_t c = 0; c < chunks; ++c) {
    // Round boundaries down to 64-row multiples: 64 rows = 8 validity-bitmap
    // bytes, so concurrent writers of bit-packed outputs stay byte-disjoint.
    int64_t b = (n * c / chunks) & ~int64_t{63};
    int64_t e = c + 1 == chunks ? n : (n * (c + 1) / chunks) & ~int64_t{63};
    if (e > b) out.emplace_back(b, e);
  }
  static obs::Counter* ranges =
      obs::MetricsRegistry::Global().counter("pool.morsel.ranges");
  static obs::Counter* rows =
      obs::MetricsRegistry::Global().counter("pool.morsel.rows");
  ranges->Add(static_cast<uint64_t>(out.size()));
  rows->Add(static_cast<uint64_t>(n));
  return out;
}

int ResolveWorkers(const ParallelOptions& options) {
  if (options.max_workers > 0) return options.max_workers;
  Session* session = Session::Current();
  return session != nullptr ? session->cores() : 1;
}

bool WouldUseRealExecution(const ParallelOptions& options) {
  return UseRealExecution(options, Session::Current());
}

std::vector<std::pair<int64_t, int64_t>> SplitRange(int64_t n, int max_chunks,
                                                    int64_t min_rows_per_chunk) {
  std::vector<std::pair<int64_t, int64_t>> out;
  if (n <= 0) return out;
  if (max_chunks < 1) max_chunks = 1;
  if (min_rows_per_chunk < 1) min_rows_per_chunk = 1;
  // Floor division keeps the documented guarantee: whenever n >= min_rows,
  // every chunk carries at least min_rows_per_chunk rows (smaller inputs
  // collapse to a single undersized chunk).
  int64_t chunks = std::min<int64_t>(max_chunks, n / min_rows_per_chunk);
  if (chunks < 1) chunks = 1;
  for (int64_t c = 0; c < chunks; ++c) {
    int64_t b = n * c / chunks;
    int64_t e = n * (c + 1) / chunks;
    if (e > b) out.emplace_back(b, e);
  }
  return out;
}

}  // namespace bento::sim
