#ifndef BENTO_SIM_PARALLEL_H_
#define BENTO_SIM_PARALLEL_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/machine.h"
#include "util/status.h"

namespace bento::sim {

/// \brief How tasks are mapped onto the virtual workers.
///
/// kGreedy models a work-stealing / bottom-up scheduler (the paper's Ray):
/// each task goes to the worker that frees up first. kStaticBlocks models a
/// centralized scheduler that pre-assigns contiguous task blocks (the
/// paper's Dask engine in Modin): skewed task durations inflate the makespan.
enum class SchedulePolicy { kGreedy, kStaticBlocks };

/// \brief Whether ParallelFor models concurrency or uses it.
///
/// kSimulated runs tasks serially and grants the active Session a
/// virtual-time credit for the overlap the simulated machine would achieve —
/// the paper-faithful mode every engine defaults to. kReal dispatches tasks
/// onto the process-wide work-stealing ThreadPool, clamped to the simulated
/// machine's core count, so kernels genuinely run "as fast as the hardware
/// allows". Both modes produce bit-identical results (tasks write disjoint
/// output slots and merges are order-deterministic); the differential test
/// suite asserts this for every engine.
enum class ExecutionMode { kSimulated, kReal };

struct ParallelOptions {
  SchedulePolicy policy = SchedulePolicy::kGreedy;
  /// Dispatch latency charged per task on the (serial) scheduler; models
  /// centralized-scheduler overhead. Seconds.
  double per_task_dispatch_s = 0.0;
  /// Cap on workers; 0 means the active session's core count (or 1 when no
  /// session is active).
  int max_workers = 0;
  /// The engine's requested execution backend. kReal only takes effect when
  /// the active Session is also in kReal mode (or when no session is
  /// installed — standalone kernel use); otherwise the schedule is
  /// simulated, so a multi-threaded engine model stays paper-faithful by
  /// default and opts into real threads per session.
  ExecutionMode mode = ExecutionMode::kSimulated;
};

/// \brief Options that keep a kernel on one worker: its tasks run serially
/// on the caller and earn no makespan credit.
inline ParallelOptions OneWorker() {
  ParallelOptions options;
  options.max_workers = 1;
  return options;
}

/// \brief Executes `n` independent tasks, either simulating their parallel
/// schedule or actually running them on the work-stealing thread pool.
///
/// Simulated mode: tasks run serially on the calling thread. Each task's
/// wall time is measured; the makespan that `max_workers` virtual workers
/// would achieve is computed, and the active Session is granted a time
/// credit equal to the overlap (total_serial_time - makespan), so
/// VirtualTimer reports the simulated parallel runtime. The first task error
/// aborts the loop and is returned; the makespan credit for completed tasks
/// is still recorded.
///
/// Real mode (see ExecutionMode): tasks are claimed dynamically by up to
/// `workers` runners on the shared ThreadPool; the caller's MemoryPool is
/// installed on the workers so allocations still charge the session budget.
/// No time credit is granted — wall time genuinely shrinks instead. Nested
/// ParallelFor calls issued from inside a task run serially inline.
Status ParallelFor(int64_t n, const std::function<Status(int64_t)>& fn,
                   const ParallelOptions& options = {});

/// \brief Pure makespan computation (exposed for tests): schedules
/// `durations` in order onto `workers` workers under `policy`.
double SimulateMakespan(const std::vector<double>& durations, int workers,
                        SchedulePolicy policy,
                        double per_task_dispatch_s = 0.0);

/// \brief Charges a pure virtual-time penalty (e.g. modeled overheads with
/// no host work) to the active session. No-op without a session.
void ChargePenalty(double seconds);

/// \brief Splits `n` rows into roughly even [begin, end) chunks of at most
/// `max_chunks` pieces with at least `min_rows_per_chunk` rows each.
std::vector<std::pair<int64_t, int64_t>> SplitRange(int64_t n, int max_chunks,
                                                    int64_t min_rows_per_chunk);

/// Target rows per morsel for data-parallel kernel fan-outs. Sized so a
/// morsel's working set stays cache-friendly while the per-task dispatch
/// cost (~µs) is amortized over tens of thousands of rows; small inputs
/// produce few (or one) morsels instead of paying an n/workers fan-out.
inline constexpr int64_t kMorselRows = 65536;

/// \brief Splits `n` rows into ~kMorselRows-sized morsels (not n/workers):
/// chunk count scales with the data, capped at 32 tasks per worker so huge
/// inputs cannot flood the pool. Chunk boundaries are multiples of 64 rows
/// (except the final end), so tasks that write validity bitmaps touch
/// disjoint bytes. Emits pool.morsel.{ranges,rows} counters.
std::vector<std::pair<int64_t, int64_t>> MorselRanges(int64_t n, int workers);

/// \brief Worker count `options` resolves to: max_workers when positive,
/// else the active session's core count, else 1.
int ResolveWorkers(const ParallelOptions& options);

/// \brief True when a ParallelFor issued right now with `options` would
/// dispatch onto the real thread pool (kReal requested, session permitting,
/// not already on a worker thread). Kernels use this to size fan-outs for
/// the physical machine in real mode while keeping the virtual-core fan-out
/// in simulated mode.
bool WouldUseRealExecution(const ParallelOptions& options);

}  // namespace bento::sim

#endif  // BENTO_SIM_PARALLEL_H_
