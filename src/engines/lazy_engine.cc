#include "engines/lazy_engine.h"

#include <cstdio>
#include <cstdlib>
#include <set>
#include <utility>

#include "engines/streaming_ops.h"
#include "kernels/encode.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "kernels/join.h"
#include "kernels/null_ops.h"
#include "plan/logical_plan.h"

namespace bento::eng {

using frame::ActionResult;
using frame::ExecPolicy;
using frame::Op;
using frame::OpKind;

int64_t ScaledBatchRows(int64_t full_scale_rows, int64_t min_rows) {
  // BENTO_CHUNK_ROWS pins the batch size outright (read per call, so tests
  // can sweep chunk sizes — including degenerate ones below the usual
  // minimum — without rebuilding engines).
  if (const char* env = std::getenv("BENTO_CHUNK_ROWS")) {
    const long long v = std::atoll(env);
    if (v > 0) return static_cast<int64_t>(v);
  }
  const double scaled = static_cast<double>(full_scale_rows) * sim::CostScale();
  const int64_t rows = static_cast<int64_t>(scaled);
  return rows < min_rows ? min_rows : rows;
}

bool IsStreamable(const Op& op) {
  const frame::StreamClass stream = frame::StreamClassOf(op);
  return stream == frame::StreamClass::kRowMap ||
         stream == frame::StreamClass::kRowFilter;
}

plan::OptimizerPolicy LazyEngineBase::PlanPolicy() const {
  plan::OptimizerPolicy policy;
  policy.predicate_pushdown = EnablePredicatePushdown();
  policy.projection_pushdown = EnableProjectionPushdown();
  return policy;
}

std::vector<Op> LazyEngineBase::Optimize(std::vector<Op> ops) const {
  if (!optimizer_enabled_) return ops;
  const bool explain = std::getenv("BENTO_EXPLAIN") != nullptr;
  std::string before;
  if (explain) before = plan::Explain(ops);
  ops = plan::Optimize(std::move(ops), PlanPolicy());
  if (explain) {
    std::fprintf(stderr,
                 "== %s: plan before ==\n%s== %s: plan after ==\n%s",
                 info().id.c_str(), before.c_str(), info().id.c_str(),
                 plan::Explain(ops).c_str());
  }
  return ops;
}

Result<std::unique_ptr<ChunkStream>> LazyEngineBase::OpenStream(
    const LazySource& source,
    const std::vector<std::string>& drop_columns) const {
  switch (source.kind) {
    case LazySource::Kind::kTable: {
      col::TablePtr table = source.table;
      if (!drop_columns.empty()) {
        // Same semantics as the drop op this replaces, KeyError included.
        BENTO_ASSIGN_OR_RETURN(table, table->DropColumns(drop_columns));
      }
      return std::unique_ptr<ChunkStream>(
          std::make_unique<TableChunkStream>(table, ChunkRows()));
    }
    case LazySource::Kind::kCsv: {
      io::CsvReadOptions options = source.csv_options;
      options.chunk_rows = ChunkRows();
      options.drop_columns.insert(options.drop_columns.end(),
                                  drop_columns.begin(), drop_columns.end());
      BENTO_ASSIGN_OR_RETURN(auto stream,
                             CsvChunkStream::Open(source.path, options));
      return std::unique_ptr<ChunkStream>(std::move(stream));
    }
    case LazySource::Kind::kBcf: {
      std::vector<std::string> keep;
      if (!drop_columns.empty()) {
        BENTO_ASSIGN_OR_RETURN(auto reader, io::BcfReader::Open(source.path));
        std::set<std::string> dropped(drop_columns.begin(), drop_columns.end());
        for (const std::string& name : drop_columns) {
          if (reader->schema()->IndexOf(name) < 0) {
            return Status::KeyError("no column named '", name, "'");
          }
        }
        for (const col::Field& f : reader->schema()->fields()) {
          if (dropped.count(f.name) == 0) keep.push_back(f.name);
        }
        if (keep.empty()) {
          // Every column dropped: an empty keep-list means "all" to the
          // reader, so emit the degenerate zero-width frame directly.
          BENTO_ASSIGN_OR_RETURN(
              auto empty, col::Table::MakeEmpty(std::make_shared<col::Schema>(
                              std::vector<col::Field>{})));
          return std::unique_ptr<ChunkStream>(
              std::make_unique<TableChunkStream>(std::move(empty),
                                                 ChunkRows()));
        }
      }
      io::BcfReadOptions ropts;
      ropts.use_mmap = MapsBcfSource();
      BENTO_ASSIGN_OR_RETURN(
          auto stream,
          BcfChunkStream::Open(source.path, std::move(keep), ropts));
      return std::unique_ptr<ChunkStream>(std::move(stream));
    }
  }
  return Status::Invalid("bad source");
}

namespace {

/// The per-chunk work of one streaming stage, shared by Execute and
/// ExecuteAction: count the chunk, apply the residual map a two-pass or
/// probe breaker carried over from the previous stage, then run the stage's
/// streamable ops. Pure per chunk, so pipeline workers run it concurrently.
ChunkMapFn StageMap(const Op* ops, size_t n_ops, const ExecPolicy& policy,
                    ChunkMapFn carried) {
  return [ops, n_ops, policy, carried = std::move(carried)](
             col::TablePtr chunk) -> Result<col::TablePtr> {
    static obs::Counter* chunks =
        obs::MetricsRegistry::Global().counter("lazy.stream_chunks");
    chunks->Increment();
    static obs::Counter* rows =
        obs::MetricsRegistry::Global().counter("lazy.stream_rows");
    rows->Add(static_cast<uint64_t>(chunk->num_rows()));
    if (carried) {
      BENTO_ASSIGN_OR_RETURN(chunk, carried(std::move(chunk)));
    }
    for (size_t k = 0; k < n_ops; ++k) {
      BENTO_ASSIGN_OR_RETURN(chunk,
                             frame::ExecTransform(chunk, ops[k], policy));
    }
    return chunk;
  };
}

/// Charges a finished stage's modeled per-chunk overhead on the calling
/// thread, which owns the session clock (pipeline workers do not).
void ChargeChunks(double per_chunk_seconds, int64_t chunks) {
  if (per_chunk_seconds > 0 && chunks > 0) {
    sim::ChargePenalty(per_chunk_seconds * static_cast<double>(chunks));
  }
}

}  // namespace

namespace {

/// Rough byte size of a source (file size for file-backed sources).
uint64_t EstimateSourceBytes(const LazySource& source) {
  switch (source.kind) {
    case LazySource::Kind::kTable:
      return source.table != nullptr ? source.table->ByteSize() : 0;
    case LazySource::Kind::kCsv:
    case LazySource::Kind::kBcf: {
      std::FILE* f = std::fopen(source.path.c_str(), "rb");
      if (f == nullptr) return 0;
      std::fseek(f, 0, SEEK_END);
      long size = std::ftell(f);
      std::fclose(f);
      return size > 0 ? static_cast<uint64_t>(size) : 0;
    }
  }
  return 0;
}

/// Spark-like spill policy: go out-of-core only under memory pressure
/// (several working copies would not fit the machine budget); otherwise the
/// in-memory operators are faster.
bool MemoryTight(const LazySource& source) {
  sim::Session* session = sim::Session::Current();
  if (session == nullptr || session->host_pool()->budget() == 0) return false;
  const uint64_t budget = session->host_pool()->budget();
  // Conservative: transforms can widen frames well past the source size.
  return EstimateSourceBytes(source) * 5 > budget;
}

}  // namespace

namespace {

/// Owns a spill file produced mid-plan and removes it when done.
struct TempSpill {
  std::string path;
  ~TempSpill() {
    if (!path.empty()) std::remove(path.c_str());
  }
};

}  // namespace

Result<col::TablePtr> LazyEngineBase::Execute(
    const LazySource& source, const std::vector<Op>& plan) const {
  BENTO_TRACE_SPAN_DYN(kEngine, info().id + ".execute");
  if (PlanOverheadSeconds() > 0) sim::ChargePenalty(PlanOverheadSeconds());
  std::vector<Op> ops = Optimize(plan);
  const ExecPolicy policy = ExecutionPolicy();

  // Morsel-driven pipeline shape for this execution (serial unless the
  // engine runs chunk-parallel kernels; see ResolvePipelineOptions). In
  // parallel mode every pipeline worker owns a whole chunk, so the
  // per-kernel morsel fan-out is switched off for work running ON workers —
  // chunk-level parallelism replaces it; nesting both would oversubscribe
  // the machine. Kernels invoked from the consumer thread (breaker merges,
  // whole-table tail ops) keep the full policy.
  const PipelineOptions pipe = ResolvePipelineOptions(policy);
  ExecPolicy worker_policy = policy;
  if (pipe.parallel()) worker_policy.parallel = false;

  // Bind a leading drop into the physical scan: the read never
  // materializes those columns. The scan binds projection only; every
  // filter runs in the plan.
  std::vector<std::string> scan_drops;
  size_t start = 0;
  if (optimizer_enabled_ && EnableProjectionPushdown() && !ops.empty() &&
      ops[0].kind == OpKind::kDropColumns) {
    scan_drops = ops[0].columns;
    start = 1;
    static obs::Counter* bound =
        obs::MetricsRegistry::Global().counter("plan.rewrite.scan_projection");
    bound->Increment();
  }

  const bool stream_breakers = StreamsBreakers() && MemoryTight(source);

  // An in-memory table runs whole-table, op by op with the full policy,
  // unless the breakers stream: row-local ops run as kernels over the whole
  // table (filters gather once on the morsel pool), where slicing it
  // through a stage and concatenating the chunks back would only copy it.
  // A plan that opens with a streamable op still pays the modeled
  // per-chunk overhead for the chunks the table spans, as that stage did.
  if (source.kind == LazySource::Kind::kTable && source.table != nullptr &&
      (ops.empty() || !stream_breakers)) {
    col::TablePtr table = source.table;
    if (!ops.empty() && IsStreamable(ops[0])) {
      const int64_t chunk_rows = ChunkRows();
      ChargeChunks(PerChunkOverheadSeconds(),
                   std::max<int64_t>(
                       1, (table->num_rows() + chunk_rows - 1) / chunk_rows));
    }
    for (const Op& op : ops) {
      BENTO_ASSIGN_OR_RETURN(table, frame::ExecTransform(table, op, policy));
    }
    return table;
  }

  BENTO_ASSIGN_OR_RETURN(auto stream, OpenStream(source, scan_drops));

  // Under memory pressure a streaming engine materializes results
  // file-backed: anything bigger than a slice of the remaining budget
  // spills, compacts, and comes back as zero-copy mmap views that charge
  // nothing while resident (the Vaex memory-mapped frame / Spark on-disk
  // stage-output model).
  auto drain = [&](ChunkStream* s) -> Result<col::TablePtr> {
    if (stream_breakers) {
      sim::Session* session = sim::Session::Current();
      const uint64_t headroom =
          session != nullptr ? session->host_pool()->HeadroomBytes()
                             : UINT64_MAX;
      if (headroom != UINT64_MAX) {
        return MaterializeStreamMapped(s, headroom / 4);
      }
    }
    return DrainStream(s);
  };

  // Streaming loop: breakers either stream (bounded memory) and hand the
  // pipeline a new stream, or materialize and hand it a table stream.
  col::TablePtr current;          // set when the plan ends or must materialize
  col::TablePtr stage_table;      // keep-alive for TableChunkStream sources
  std::vector<std::shared_ptr<TempSpill>> spills;
  size_t i = start;

  // A breaker's residual per-chunk map (two-pass encode, probe-side join)
  // is carried into the NEXT stage's map instead of wrapping the stream, so
  // the encode/probe work runs on the pipeline workers rather than inside
  // the next stage's serial chunk claim.
  ChunkMapFn pending_map;

  while (current == nullptr) {
    // Maximal streamable run [i, j), as one pure per-chunk map.
    size_t j = i;
    while (j < ops.size() && IsStreamable(ops[j])) ++j;
    const ChunkMapFn stage_map = StageMap(ops.data() + i, j - i, worker_policy,
                                          std::exchange(pending_map, nullptr));

    // A breaker with its own pipelined fold takes the raw stream plus the
    // run as a fused pre-map: transforms and the key hash ride ONE
    // stage instead of nesting two drivers (whose workers would otherwise
    // steal chunks from each other). Every other stage is a driver here.
    const bool fuse_into_breaker =
        stream_breakers && j < ops.size() &&
        (ops[j].kind == OpKind::kGroupByAgg || ops[j].kind == OpKind::kPivot ||
         ops[j].kind == OpKind::kDropDuplicates);
    std::unique_ptr<ParallelPipelineDriver> stage;
    if (!fuse_into_breaker) {
      stage = std::make_unique<ParallelPipelineDriver>(stream.get(), stage_map,
                                                       pipe);
    }
    ChunkStream* run_stream = stage != nullptr ? stage.get() : stream.get();

    // Joins the stage's workers — nothing may still hold the old stream
    // when `stream` is replaced below — and charges its chunks.
    int64_t fused_chunks = 0;
    auto close_stage = [&]() {
      const int64_t chunks =
          stage != nullptr ? stage->chunks_claimed() : fused_chunks;
      stage.reset();
      ChargeChunks(PerChunkOverheadSeconds(), chunks);
    };
    StreamingGroupByOptions gb_options;
    gb_options.pipeline = pipe;
    gb_options.pre_map = stage_map;
    gb_options.chunks_claimed = &fused_chunks;

    if (j >= ops.size()) {
      BENTO_ASSIGN_OR_RETURN(current, drain(run_stream));
      close_stage();
      i = j;
      break;
    }
    const Op& breaker = ops[j];
    if (stream_breakers) {
      switch (breaker.kind) {
        case OpKind::kGroupByAgg: {
          BENTO_ASSIGN_OR_RETURN(
              stage_table, StreamingGroupBy(run_stream, breaker.columns,
                                            breaker.aggs, policy, gb_options));
          close_stage();
          stream = std::make_unique<TableChunkStream>(stage_table, ChunkRows());
          i = j + 1;
          continue;
        }
        case OpKind::kPivot: {
          BENTO_ASSIGN_OR_RETURN(
              stage_table,
              StreamingPivot(run_stream, breaker, policy, gb_options));
          close_stage();
          stream = std::make_unique<TableChunkStream>(stage_table, ChunkRows());
          i = j + 1;
          continue;
        }
        case OpKind::kDropDuplicates: {
          StreamingDedupOptions dd_options;
          dd_options.pipeline = pipe;
          dd_options.pre_map = stage_map;
          dd_options.chunks_claimed = &fused_chunks;
          BENTO_ASSIGN_OR_RETURN(
              stage_table,
              StreamingDedup(run_stream, breaker.columns, dd_options));
          close_stage();
          stream = std::make_unique<TableChunkStream>(stage_table, ChunkRows());
          i = j + 1;
          continue;
        }
        case OpKind::kSortValues: {
          // Sorted output spills to a shuffle-style temp file and the plan
          // keeps streaming from disk: memory stays O(run + chunk).
          BENTO_ASSIGN_OR_RETURN(
              std::string path,
              ExternalSortToFile(run_stream, breaker.sort_keys, policy,
                                 std::max<int64_t>(ChunkRows() * 4, 64 * 1024)));
          close_stage();
          auto spill = std::make_shared<TempSpill>();
          spill->path = path;
          spills.push_back(spill);
          stage_table.reset();
          BENTO_ASSIGN_OR_RETURN(stream, BcfChunkStream::Open(path));
          i = j + 1;
          continue;
        }
        case OpKind::kGetDummies:
        case OpKind::kCatCodes:
        case OpKind::kFillNa: {
          // Two-pass streaming: spill the transformed stream, derive the
          // global state (categories / dictionary / mean) from a first pass
          // over the spill, then keep streaming with a per-chunk map.
          BENTO_ASSIGN_OR_RETURN(std::string path,
                                 SpillStreamToFile(run_stream));
          close_stage();
          auto spill = std::make_shared<TempSpill>();
          spill->path = path;
          spills.push_back(spill);
          stage_table.reset();

          // Pass 1 reads the spill through a driver, so its row groups
          // decode on the pipeline workers; the fold stays in stream order.
          BENTO_ASSIGN_OR_RETURN(auto spill_stream, BcfChunkStream::Open(path));
          auto pass1 = std::make_unique<ParallelPipelineDriver>(
              spill_stream.get(),
              [](col::TablePtr chunk) -> Result<col::TablePtr> {
                return chunk;
              },
              pipe);
          if (breaker.kind == OpKind::kGetDummies) {
            BENTO_ASSIGN_OR_RETURN(
                auto categories,
                StreamDistinctValues(pass1.get(), breaker.column));
            pending_map = [column = breaker.column,
                           categories = std::move(categories)](
                              col::TablePtr chunk) {
              return kern::GetDummiesWithCategories(chunk, column, categories);
            };
          } else if (breaker.kind == OpKind::kCatCodes) {
            BENTO_ASSIGN_OR_RETURN(
                auto dict, StreamDistinctValues(pass1.get(), breaker.column));
            pending_map = [column = breaker.column, dict = std::move(dict)](
                              col::TablePtr chunk) -> Result<col::TablePtr> {
              BENTO_ASSIGN_OR_RETURN(auto values, chunk->GetColumn(column));
              BENTO_ASSIGN_OR_RETURN(auto codes,
                                     kern::CatCodesWithDict(values, dict));
              return chunk->SetColumn(column, codes);
            };
          } else {  // fillna with mean
            BENTO_ASSIGN_OR_RETURN(double mean,
                                   StreamColumnMean(pass1.get(), breaker.column));
            pending_map = [column = breaker.column,
                           mean](col::TablePtr chunk) -> Result<col::TablePtr> {
              BENTO_ASSIGN_OR_RETURN(auto values, chunk->GetColumn(column));
              col::Scalar fill = values->type() == col::TypeId::kInt64
                                     ? col::Scalar::Int(static_cast<int64_t>(mean))
                                     : col::Scalar::Double(mean);
              BENTO_ASSIGN_OR_RETURN(auto filled, kern::FillNull(values, fill));
              return chunk->SetColumn(column, filled);
            };
          }
          // Pass 2 is a plain scan of the spill; the encode map rides the
          // next stage.
          pass1.reset();
          BENTO_ASSIGN_OR_RETURN(stream, BcfChunkStream::Open(path));
          i = j + 1;
          continue;
        }
        case OpKind::kMerge: {
          // Probe-streaming join: materialize the (small) build side once,
          // join each probe chunk independently.
          if (breaker.other == nullptr) {
            return Status::Invalid("merge without right side");
          }
          BENTO_ASSIGN_OR_RETURN(auto right, breaker.other->Collect());
          // A build side that would eat a large slice of the remaining
          // budget (its hash table costs a few multiples of the table)
          // takes the grace path: both sides hash-partition to spill and
          // join partition-by-partition.
          sim::Session* session = sim::Session::Current();
          const uint64_t headroom =
              session != nullptr ? session->host_pool()->HeadroomBytes()
                                 : UINT64_MAX;
          if (headroom != UINT64_MAX && right->ByteSize() * 3 > headroom) {
            kern::JoinOptions jopts;
            jopts.type = breaker.join_type;
            BENTO_ASSIGN_OR_RETURN(
                stage_table,
                GraceHashJoin(run_stream, right, breaker.left_key,
                              breaker.right_key, jopts));
            close_stage();
            stream =
                std::make_unique<TableChunkStream>(stage_table, ChunkRows());
            i = j + 1;
            continue;
          }
          // Drain into a temp spill so the probe side never materializes.
          BENTO_ASSIGN_OR_RETURN(std::string path,
                                 SpillStreamToFile(run_stream));
          close_stage();
          auto spill = std::make_shared<TempSpill>();
          spill->path = path;
          spills.push_back(spill);
          stage_table.reset();
          // The probe joins ride the next stage's map.
          pending_map = [right, breaker](
                            col::TablePtr chunk) -> Result<col::TablePtr> {
            kern::JoinOptions jopts;
            jopts.type = breaker.join_type;
            return kern::HashJoin(chunk, right, breaker.left_key,
                                  breaker.right_key, jopts);
          };
          BENTO_ASSIGN_OR_RETURN(stream, BcfChunkStream::Open(path));
          i = j + 1;
          continue;
        }
        default:
          break;  // fall through to materialize
      }
    }
    // Materialize-then-execute breaker; subsequent ops go whole-table.
    BENTO_ASSIGN_OR_RETURN(current, drain(run_stream));
    close_stage();
    BENTO_ASSIGN_OR_RETURN(current,
                           frame::ExecTransform(current, breaker, policy));
    i = j + 1;
  }

  // Whole-table execution of the remainder.
  for (; i < ops.size(); ++i) {
    BENTO_ASSIGN_OR_RETURN(current,
                           frame::ExecTransform(current, ops[i], policy));
  }
  return current;
}

Result<ActionResult> LazyEngineBase::ExecuteAction(
    const LazySource& source, const std::vector<Op>& plan,
    const Op& action) const {
  BENTO_TRACE_SPAN_DYN(kEngine, info().id + ".execute_action");
  const ExecPolicy policy = ExecutionPolicy();

  bool fully_streamable = true;
  for (const Op& op : plan) {
    if (!IsStreamable(op)) {
      fully_streamable = false;
      break;
    }
  }
  // Quantile-based actions need multi-pass streaming; only the counting
  // actions stream in one pass here. Everything else materializes.
  const bool streaming_action =
      action.kind == OpKind::kIsNa || action.kind == OpKind::kSearchPattern ||
      action.kind == OpKind::kGetColumns || action.kind == OpKind::kGetDtypes;
  if (!fully_streamable || !streaming_action) {
    BENTO_ASSIGN_OR_RETURN(auto table, Execute(source, plan));
    const double penalty = ActionPenaltySeconds(action, table);
    if (penalty > 0) sim::ChargePenalty(penalty);
    return frame::ExecAction(table, action, policy);
  }

  if (PlanOverheadSeconds() > 0) sim::ChargePenalty(PlanOverheadSeconds());
  std::vector<Op> ops = Optimize(plan);

  // Same stage shape as Execute: the transforms run as one driver stage
  // (chunk-level parallelism, so the per-kernel fan-out is off on workers),
  // and the action fold stays on the calling thread in stream order.
  const PipelineOptions pipe = ResolvePipelineOptions(policy);
  ExecPolicy worker_policy = policy;
  if (pipe.parallel()) worker_policy.parallel = false;
  BENTO_ASSIGN_OR_RETURN(auto stream, OpenStream(source, {}));
  const auto stage = std::make_unique<ParallelPipelineDriver>(
      stream.get(), StageMap(ops.data(), ops.size(), worker_policy, nullptr),
      pipe);

  ActionResult result;
  bool first = true;
  while (true) {
    BENTO_ASSIGN_OR_RETURN(auto chunk, stage->Next());
    if (chunk == nullptr) break;
    const double penalty = ActionPenaltySeconds(action, chunk);
    if (penalty > 0) sim::ChargePenalty(penalty);
    BENTO_ASSIGN_OR_RETURN(auto partial,
                           frame::ExecAction(chunk, action, policy));
    if (first) {
      result = partial;
      first = false;
      if (action.kind == OpKind::kGetColumns ||
          action.kind == OpKind::kGetDtypes) {
        break;  // schema-only actions need one chunk
      }
      continue;
    }
    if (action.kind == OpKind::kIsNa) {
      for (size_t c = 0; c < result.counts.size() && c < partial.counts.size();
           ++c) {
        result.counts[c] += partial.counts[c];
      }
    } else if (action.kind == OpKind::kSearchPattern) {
      result.count += partial.count;
    }
  }
  ChargeChunks(PerChunkOverheadSeconds(), stage->chunks_claimed());
  if (first) return Status::Invalid("action over an empty stream");
  return result;
}

LazyFrame::LazyFrame(LazySource source, std::vector<frame::Op> plan,
                     const LazyEngineBase* engine)
    : source_(std::move(source)),
      plan_(std::move(plan)),
      engine_(engine),
      // Null for stack-allocated engines: the caller owns the lifetime then.
      engine_keepalive_(engine->weak_from_this().lock()) {}

Result<frame::DataFrame::Ptr> LazyFrame::Apply(const Op& op) {
  if (engine_->lazy()) {
    // If this plan was already forced (an action or an explicit Collect
    // materialized it), chain from the cached result instead of replaying
    // the whole lineage from the source — the caching real lazy engines
    // apply at forced boundaries.
    if (cache_ != nullptr) {
      LazySource cached;
      cached.kind = LazySource::Kind::kTable;
      cached.table = cache_;
      cached.owned_resource = source_.owned_resource;
      return std::static_pointer_cast<frame::DataFrame>(
          std::make_shared<LazyFrame>(std::move(cached), std::vector<Op>{op},
                                      engine_));
    }
    std::vector<Op> next = plan_;
    next.push_back(op);
    return std::static_pointer_cast<frame::DataFrame>(
        std::make_shared<LazyFrame>(source_, std::move(next), engine_));
  }
  // Eager mode: run everything now and hold the materialized result.
  BENTO_ASSIGN_OR_RETURN(auto table, Collect());
  BENTO_ASSIGN_OR_RETURN(
      auto result, frame::ExecTransform(table, op, engine_->ExecutionPolicy()));
  LazySource source;
  source.kind = LazySource::Kind::kTable;
  source.table = std::move(result);
  return std::static_pointer_cast<frame::DataFrame>(
      std::make_shared<LazyFrame>(std::move(source), std::vector<Op>{},
                                  engine_));
}

Result<ActionResult> LazyFrame::RunAction(const Op& op) {
  if (engine_->lazy() && cache_ == nullptr &&
      source_.kind != LazySource::Kind::kTable) {
    // Lineage semantics: actions re-stream the plan without materializing
    // the frame (and without populating the cache) — the memory behaviour
    // behind the streaming engines' small minimum configurations.
    BENTO_ASSIGN_OR_RETURN(auto result, engine_->ExecuteAction(source_, plan_, op));
    return result;
  }
  BENTO_ASSIGN_OR_RETURN(auto table, Collect());
  const double penalty = engine_->ActionPenaltySeconds(op, table);
  if (penalty > 0) sim::ChargePenalty(penalty);
  return frame::ExecAction(table, op, engine_->ExecutionPolicy());
}

Result<col::TablePtr> LazyFrame::Collect() {
  if (cache_ != nullptr) return cache_;
  if (source_.kind == LazySource::Kind::kTable && plan_.empty()) {
    cache_ = source_.table;
    return cache_;
  }
  BENTO_ASSIGN_OR_RETURN(cache_, engine_->Execute(source_, plan_));
  return cache_;
}

Result<frame::DataFrame::Ptr> LazyEngineBase::ReadCsv(
    const std::string& path, const io::CsvReadOptions& options) {
  LazySource source;
  source.kind = LazySource::Kind::kCsv;
  source.path = path;
  source.csv_options = options;
  BENTO_ASSIGN_OR_RETURN(source, PrepareSource(std::move(source)));
  auto frame =
      std::make_shared<LazyFrame>(std::move(source), std::vector<Op>{}, this);
  if (!lazy()) {
    // Eager mode ingests immediately.
    BENTO_RETURN_NOT_OK(frame->Collect().status());
  }
  return std::static_pointer_cast<frame::DataFrame>(frame);
}

Result<frame::DataFrame::Ptr> LazyEngineBase::ReadBcf(const std::string& path) {
  LazySource source;
  source.kind = LazySource::Kind::kBcf;
  source.path = path;
  BENTO_ASSIGN_OR_RETURN(source, PrepareSource(std::move(source)));
  auto frame =
      std::make_shared<LazyFrame>(std::move(source), std::vector<Op>{}, this);
  if (!lazy()) {
    BENTO_RETURN_NOT_OK(frame->Collect().status());
  }
  return std::static_pointer_cast<frame::DataFrame>(frame);
}

Status LazyEngineBase::WriteCsv(const frame::DataFrame::Ptr& frame,
                                const std::string& path) {
  BENTO_ASSIGN_OR_RETURN(auto table, frame->Collect());
  if (ExecutionPolicy().parallel) {
    return io::WriteCsvParallel(table, path, {},
                                ExecutionPolicy().parallel_options);
  }
  return io::WriteCsv(table, path);
}

Status LazyEngineBase::WriteBcf(const frame::DataFrame::Ptr& frame,
                                const std::string& path) {
  BENTO_ASSIGN_OR_RETURN(auto table, frame->Collect());
  return io::WriteBcf(table, path);
}

Result<frame::DataFrame::Ptr> LazyEngineBase::FromTable(col::TablePtr table) {
  LazySource source;
  source.kind = LazySource::Kind::kTable;
  source.table = std::move(table);
  BENTO_ASSIGN_OR_RETURN(source, PrepareSource(std::move(source)));
  return std::static_pointer_cast<frame::DataFrame>(
      std::make_shared<LazyFrame>(std::move(source), std::vector<Op>{}, this));
}

}  // namespace bento::eng
