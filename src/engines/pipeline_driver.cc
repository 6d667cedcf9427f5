#include "engines/pipeline_driver.h"

#include <algorithm>
#include <cstdlib>
#include <string>

#include "obs/metrics.h"
#include "obs/resource.h"
#include "obs/trace.h"
#include "sim/parallel.h"
#include "sim/thread_pool.h"

namespace bento::eng {

PipelineOptions ResolvePipelineOptions(const frame::ExecPolicy& policy) {
  PipelineOptions out;  // serial defaults
  if (!policy.parallel) return out;
  // Real execution runs worker threads clamped to the physical cores. A
  // simulated session models the same chunk-parallel schedule in virtual
  // time: the driver runs serially, measures each chunk map, and credits the
  // overlap the session machine's cores would achieve — ParallelFor's
  // simulated-mode accounting lifted to pipeline stages, so the pipeline
  // speedup shows on any host, including single-core runners. Never from a
  // pool worker (nested stages would double-credit), and never without a
  // session (no virtual clock to credit).
  const bool real = sim::WouldUseRealExecution(policy.parallel_options);
  sim::Session* session = sim::Session::Current();
  if (!real && (session == nullptr || sim::ThreadPool::OnWorkerThread())) {
    return out;
  }
  int workers = std::min(sim::ResolveWorkers(policy.parallel_options),
                         real ? sim::ThreadPool::HardwareParallelism()
                              : session->cores());
  if (const char* env = std::getenv("BENTO_PIPELINE_WORKERS")) {
    const long long v = std::atoll(env);
    // The override is exact (not clamped to physical cores): the
    // bit-identity tests run 8 workers on any host, and the A/B benches pin
    // 1 vs 4 modeled workers.
    if (v > 0) workers = static_cast<int>(std::min<long long>(v, 64));
  }
  out.workers = std::max(1, workers);
  if (real) return out;
  out.simulate = out.workers > 1;
  out.schedule = policy.parallel_options.policy;
  out.per_task_dispatch_s = policy.parallel_options.per_task_dispatch_s;
  return out;
}

// ---------------------------------------------------------------------------
// ParallelPipelineDriver
// ---------------------------------------------------------------------------

ParallelPipelineDriver::ParallelPipelineDriver(ChunkStream* inner,
                                               ChunkMapFn map,
                                               const PipelineOptions& options)
    : inner_(inner),
      map_(std::move(map)),
      options_(options),
      pool_(sim::MemoryPool::Current()) {
  if (!options_.threaded()) return;
  capacity_ = options_.workers + kReadahead;
  active_workers_ = options_.workers;
  threads_.reserve(static_cast<size_t>(options_.workers));
  for (int i = 0; i < options_.workers; ++i) {
    threads_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ParallelPipelineDriver::~ParallelPipelineDriver() {
  SettleModeledCredit();  // no-op unless simulate; safety for partial drains
  {
    std::lock_guard<std::mutex> lk(mu_);
    cancelled_ = true;
  }
  cv_room_.notify_all();
  cv_ready_.notify_all();
  for (std::thread& t : threads_) t.join();
}

Result<ChunkStream::Deferred> ParallelPipelineDriver::Claim(int64_t* seq) {
  std::lock_guard<std::mutex> claim(claim_mu_);
  if (claim_stopped_) return Deferred();
  auto claimed = inner_->ClaimDeferred();
  if (claimed.ok() && !claimed.ValueOrDie()) {
    claim_stopped_ = true;  // end of stream
    return claimed;
  }
  if (!claimed.ok()) claim_stopped_ = true;
  *seq = next_claim_seq_++;
  claimed_count_.fetch_add(1, std::memory_order_relaxed);
  return claimed;
}

void ParallelPipelineDriver::WorkerLoop(int index) {
  obs::SetCurrentThreadName("pipeline-worker-" + std::to_string(index));
  (void)obs::InstallThreadSampler();
  sim::MemoryScope scope(pool_);
  static obs::Gauge* inflight_gauge =
      obs::MetricsRegistry::Global().gauge("pipeline.chunks.inflight");
  static obs::Counter* chunk_counter =
      obs::MetricsRegistry::Global().counter("pipeline.chunks");

  for (;;) {
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_room_.wait(lk, [&] {
        return cancelled_ || done_claiming_ || inflight_ < capacity_;
      });
      if (cancelled_ || done_claiming_) break;
      ++inflight_;
      inflight_gauge->UpdateMax(static_cast<int64_t>(inflight_));
    }

    int64_t seq = -1;
    auto claimed = Claim(&seq);
    if (claimed.ok() && !claimed.ValueOrDie()) {
      std::lock_guard<std::mutex> lk(mu_);
      --inflight_;  // reservation unused: nothing was claimed
      done_claiming_ = true;
      cv_ready_.notify_all();
      cv_room_.notify_all();
      break;
    }

    // The decode (a CSV parse, a BCF row-group read) runs here, outside
    // the claim lock.
    Result<col::TablePtr> out =
        claimed.ok() ? claimed.ValueOrDie()() : claimed.status();
    if (out.ok()) {
      chunk_counter->Increment();
      BENTO_TRACE_SPAN(kEngine, "pipeline.chunk");
      out = map_(out.MoveValueUnsafe());
    }
    {
      std::lock_guard<std::mutex> lk(mu_);
      ready_.emplace(seq, std::move(out));
      cv_ready_.notify_all();
    }
  }

  std::lock_guard<std::mutex> lk(mu_);
  if (--active_workers_ == 0) cv_ready_.notify_all();
}

void ParallelPipelineDriver::SettleModeledCredit() {
  if (!options_.simulate || sim_credited_ || sim_map_seconds_.empty()) return;
  sim_credited_ = true;
  sim::Session* session = sim::Session::Current();
  if (session == nullptr) return;
  double sum_map = 0.0;
  for (double d : sim_map_seconds_) sum_map += d;
  double sum_io = 0.0;
  for (double d : sim_io_seconds_) sum_io += d;
  // Two-stage pipeline model: source pulls (claim plus decode) run
  // sequentially while `workers` map the chunks. Completion is bounded below
  // by either stage being saturated — all I/O plus the last map's tail, or
  // the map makespan plus the first chunk's fill — and the credit is the
  // overlap relative to the fully serial claim+map loop the driver actually
  // ran.
  const double map_makespan =
      sim::SimulateMakespan(sim_map_seconds_, options_.workers,
                            options_.schedule, options_.per_task_dispatch_s);
  const double io_fill = sim_io_seconds_.empty() ? 0.0 : sim_io_seconds_.front();
  const double map_tail = sim_map_seconds_.back();
  const double modeled =
      std::max(sum_io + map_tail, map_makespan + io_fill);
  const double serial = sum_io + sum_map;
  if (serial > modeled) session->AddTimeCredit(serial - modeled);
}

Result<col::TablePtr> ParallelPipelineDriver::Next() {
  if (!options_.threaded()) {
    // Inline serial mode: this IS the plain streaming loop — same claim,
    // decode and map, same delivery order, zero threads. Errors latch the
    // stream terminal, matching the parallel mode's contract. In modeled
    // mode the only additions are stopwatches around the source pull (claim
    // and decode) and around the map; the overlap credit for the whole
    // stage settles once at end of stream.
    if (terminal_) return terminal_error_;
    int64_t seq = -1;
    const double t0 = options_.simulate ? sim::NowSeconds() : 0.0;
    auto claimed = Claim(&seq);
    const bool end = claimed.ok() && !claimed.ValueOrDie();
    Result<col::TablePtr> out = end            ? col::TablePtr(nullptr)
                                : claimed.ok() ? claimed.ValueOrDie()()
                                               : claimed.status();
    if (options_.simulate) sim_io_seconds_.push_back(sim::NowSeconds() - t0);
    if (end) {
      SettleModeledCredit();  // end of stream: grant the stage's overlap
      return out;
    }
    if (out.ok() && options_.simulate) {
      static obs::Counter* chunk_counter =
          obs::MetricsRegistry::Global().counter("pipeline.chunks");
      chunk_counter->Increment();
      BENTO_TRACE_SPAN(kEngine, "pipeline.chunk");
      const double t1 = sim::NowSeconds();
      out = map_(out.MoveValueUnsafe());
      sim_map_seconds_.push_back(sim::NowSeconds() - t1);
    } else if (out.ok()) {
      out = map_(out.MoveValueUnsafe());
    }
    if (!out.ok()) {
      terminal_ = true;
      terminal_error_ = out.status();
    }
    return out;
  }

  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    if (terminal_) return terminal_error_;
    auto it = ready_.find(next_out_seq_);
    if (it != ready_.end()) {
      Result<col::TablePtr> r = std::move(it->second);
      ready_.erase(it);
      --inflight_;
      ++next_out_seq_;
      cv_room_.notify_all();
      if (!r.ok()) {
        // Deliver the failure at its stream position (exactly where the
        // serial loop would have) and stop the stage.
        terminal_ = true;
        terminal_error_ = r.status();
        cancelled_ = true;
        cv_room_.notify_all();
      }
      return r;
    }
    if (done_claiming_ && active_workers_ == 0) return col::TablePtr(nullptr);
    cv_ready_.wait(lk);
  }
}

}  // namespace bento::eng
