#ifndef BENTO_ENGINES_PIPELINE_DRIVER_H_
#define BENTO_ENGINES_PIPELINE_DRIVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "engines/chunk_stream.h"
#include "frame/exec.h"
#include "sim/memory.h"
#include "sim/parallel.h"

namespace bento::eng {

/// \brief Shape of the morsel-driven parallel streaming executor.
///
/// Every transform stage is a ParallelPipelineDriver whatever the shape.
/// `workers <= 1` is the serial mode: the driver runs claim, decode and map
/// inline on the calling thread with no extra threads, no queues and no
/// reordering, and it is the executor's only serial streaming loop. With
/// `workers > 1` the driver runs (or models) concurrent workers.
struct PipelineOptions {
  /// Compute workers concurrently claiming chunks. <= 1 means inline serial.
  int workers = 1;
  /// Model the schedule instead of running it: chunks execute serially
  /// inline while each map's wall time is measured, and on completion the
  /// active Session is credited the overlap `workers` would achieve
  /// (ParallelFor's simulated-mode accounting, lifted to pipeline stages).
  /// Virtual time then reflects the simulated machine's pipeline speedup on
  /// any host — including single-core CI runners where real threads cannot
  /// overlap at all.
  bool simulate = false;
  /// Schedule model used for the simulated makespan.
  sim::SchedulePolicy schedule = sim::SchedulePolicy::kGreedy;
  double per_task_dispatch_s = 0.0;

  bool parallel() const { return workers > 1; }
  /// Real worker threads (as opposed to serial or modeled execution).
  bool threaded() const { return workers > 1 && !simulate; }
};

/// \brief Resolves the pipeline shape for one plan execution.
///
/// Engages only when the engine asked for chunk-parallel kernels
/// (`policy.parallel`). With real execution (`sim::WouldUseRealExecution`)
/// the stage runs on actual worker threads clamped to the physical core
/// count. Inside a *simulated* session the same pipeline runs in modeled
/// form (`simulate`): serial execution, measured chunk maps, and a
/// virtual-time credit for the overlap the session machine's cores would
/// achieve — so pipeline scaling shows in virtual time host-independently.
/// Without any session the pipeline stays off in simulated mode (there is
/// no clock to credit).
/// `BENTO_PIPELINE_WORKERS=N` pins the worker count exactly, in real and
/// simulated sessions alike; N=1 forces the serial loop. It is read per
/// call, so benches and tests can sweep it without rebuilding engines.
PipelineOptions ResolvePipelineOptions(const frame::ExecPolicy& policy);

/// \brief Order-preserving parallel transform stage: N dedicated workers
/// concurrently claim sequence-numbered chunks from `inner`, decode them and
/// run `map` on each; `Next()` reassembles results in claim order.
///
/// Claims are serialized (one worker at a time calls
/// `inner->ClaimDeferred()`, which for a CSV source only cuts the text and
/// for a BCF source only takes the next row-group index, and takes the next
/// sequence number). Decodes and maps run concurrently without locks, and
/// finished chunks park in a bounded reorder buffer until the consumer
/// reaches their sequence number. At most `workers + kReadahead` chunks are
/// in flight (the readahead absorbs completion skew so a slow chunk does not
/// idle every worker); a worker that gets ahead blocks until the consumer
/// drains — which is always possible, because the chunk the consumer waits
/// for is itself held by some worker (deadlock-free by construction).
/// Errors are delivered at their position in the sequence, exactly where
/// the serial loop would have surfaced them.
///
/// Output is bit-identical to running `map` serially per chunk in stream
/// order for ANY worker count: the map itself is pure per-chunk work, and
/// delivery order is the claim order. Workers install the constructing
/// thread's MemoryPool so every allocation still charges the session
/// budget.
///
/// With `options.workers <= 1` no threads are created and `Next()` runs
/// claim + decode + map inline — the degenerate case IS the serial
/// streaming loop.
class ParallelPipelineDriver : public ChunkStream {
 public:
  /// `map` is the pure per-chunk transform.
  ParallelPipelineDriver(ChunkStream* inner, ChunkMapFn map,
                         const PipelineOptions& options);
  ~ParallelPipelineDriver() override;

  /// Next mapped chunk in claim order, or nullptr at end of stream.
  Result<col::TablePtr> Next() override;

  /// Chunks claimed from the inner stream so far (stable once the stream is
  /// drained; drives per-chunk virtual-time overheads charged by the
  /// driver thread).
  int64_t chunks_claimed() const {
    return claimed_count_.load(std::memory_order_relaxed);
  }

 private:
  void WorkerLoop(int index);
  /// Serial claim of the next chunk (decode deferred) + sequence number.
  /// Returns an empty function at end of stream.
  Result<Deferred> Claim(int64_t* seq);
  /// Modeled mode: grants the session the overlap credit for the measured
  /// chunk maps, once (end of stream or destruction, whichever is first).
  void SettleModeledCredit();

  /// In-flight chunks beyond `workers` the reorder buffer may hold.
  static constexpr int kReadahead = 2;

  ChunkStream* inner_;
  ChunkMapFn map_;
  PipelineOptions options_;
  sim::MemoryPool* pool_;  // consumer-thread pool, installed on workers
  int capacity_ = 0;       // max chunks in flight (claimed, not consumed)

  // Claim serialization (kept apart from mu_ so a claim never blocks the
  // consumer from popping ready chunks).
  std::mutex claim_mu_;
  int64_t next_claim_seq_ = 0;  // guarded by claim_mu_
  bool claim_stopped_ = false;  // end-of-stream or claim error; claim_mu_

  // Reorder buffer + lifecycle.
  std::mutex mu_;
  std::condition_variable cv_ready_;  // consumer waits for next_out_seq_
  std::condition_variable cv_room_;   // workers wait for in-flight room
  std::map<int64_t, Result<col::TablePtr>> ready_;  // guarded by mu_
  int64_t next_out_seq_ = 0;                        // guarded by mu_
  int inflight_ = 0;                                // guarded by mu_
  int active_workers_ = 0;                          // guarded by mu_
  bool done_claiming_ = false;                      // guarded by mu_
  bool cancelled_ = false;                          // guarded by mu_
  Status terminal_error_;                           // guarded by mu_
  bool terminal_ = false;                           // guarded by mu_

  std::atomic<int64_t> claimed_count_{0};
  std::vector<std::thread> threads_;

  // Modeled (simulate) mode: measured wall seconds of each chunk map and of
  // each source pull (claim plus decode).
  std::vector<double> sim_map_seconds_;
  std::vector<double> sim_io_seconds_;
  bool sim_credited_ = false;
};

}  // namespace bento::eng

#endif  // BENTO_ENGINES_PIPELINE_DRIVER_H_
