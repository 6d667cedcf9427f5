#ifndef BENTO_ENGINES_LAZY_ENGINE_H_
#define BENTO_ENGINES_LAZY_ENGINE_H_

#include <memory>
#include <string>
#include <vector>

#include "engines/chunk_stream.h"
#include "frame/capabilities.h"
#include "frame/engine.h"
#include "frame/exec.h"
#include "plan/rules.h"

namespace bento::eng {

class LazyEngineBase;

/// \brief Scales a full-size batch row count by the experiment's dataset
/// scale (sim::CostScale) so streaming granularity keeps the same
/// data-fraction at every scale; clamped below at `min_rows`.
int64_t ScaledBatchRows(int64_t full_scale_rows, int64_t min_rows = 2048);

/// \brief Where a lazy plan reads from.
struct LazySource {
  enum class Kind { kTable, kCsv, kBcf };
  Kind kind = Kind::kTable;
  col::TablePtr table;
  std::string path;
  io::CsvReadOptions csv_options;
  /// Temp-file sources (Vaex's converted store) are unlinked when the last
  /// plan referencing them dies.
  std::shared_ptr<void> owned_resource;
};

/// \brief Plan-carrying frame used by the lazy engines. Transforms append
/// to the logical plan; Collect() / actions optimize and execute it.
/// In eager mode (the Polars/Spark "forced" configuration of Fig. 7) every
/// Apply executes immediately.
class LazyFrame : public frame::DataFrame,
                  public std::enable_shared_from_this<LazyFrame> {
 public:
  LazyFrame(LazySource source, std::vector<frame::Op> plan,
            const LazyEngineBase* engine);

  Result<Ptr> Apply(const frame::Op& op) override;
  Result<frame::ActionResult> RunAction(const frame::Op& op) override;
  Result<col::TablePtr> Collect() override;

  const std::vector<frame::Op>& plan() const { return plan_; }
  const LazySource& source() const { return source_; }

 private:
  LazySource source_;
  std::vector<frame::Op> plan_;
  const LazyEngineBase* engine_;
  std::shared_ptr<const frame::Engine> engine_keepalive_;
  col::TablePtr cache_;  // materialized result of this plan
};

/// \brief Base of the lazy/streaming engines (Polars, SparkSQL, SparkPD,
/// Vaex). Provides plan optimization (projection & predicate pushdown) and
/// a streaming executor; subclasses configure policies and breaker
/// strategies.
class LazyEngineBase : public frame::Engine {
 public:
  Result<frame::DataFrame::Ptr> ReadCsv(
      const std::string& path, const io::CsvReadOptions& options) override;
  Result<frame::DataFrame::Ptr> ReadBcf(const std::string& path) override;
  Status WriteCsv(const frame::DataFrame::Ptr& frame,
                  const std::string& path) override;
  Status WriteBcf(const frame::DataFrame::Ptr& frame,
                  const std::string& path) override;
  Result<frame::DataFrame::Ptr> FromTable(col::TablePtr table) override;

  /// Executes an optimized plan against a source. Public for tests.
  Result<col::TablePtr> Execute(const LazySource& source,
                                const std::vector<frame::Op>& plan) const;

  /// Executes an action against a plan without materializing the frame when
  /// the plan is fully streamable (isna / search counts accumulate per
  /// chunk; quantile-based actions stream twice). Falls back to
  /// Execute + ExecAction for plans with breakers. Public for tests.
  Result<frame::ActionResult> ExecuteAction(const LazySource& source,
                                            const std::vector<frame::Op>& plan,
                                            const frame::Op& action) const;

  /// True when plans accumulate (default); eager variants return false.
  virtual bool lazy() const { return true; }

  /// Kernel policy during execution.
  virtual frame::ExecPolicy ExecutionPolicy() const = 0;

  // --- optimizer toggles ---
  virtual bool EnableProjectionPushdown() const { return true; }
  virtual bool EnablePredicatePushdown() const { return true; }

  /// Rewrite rules this engine model applies, from the two toggles above.
  plan::OptimizerPolicy PlanPolicy() const;

  /// Master switch: when false, plans execute exactly as written (the
  /// `_noopt` registry variants used as the A/B baseline in Fig. 7 runs).
  void set_optimizer_enabled(bool enabled) { optimizer_enabled_ = enabled; }
  bool optimizer_enabled() const { return optimizer_enabled_; }

  // --- execution shape ---
  virtual int64_t ChunkRows() const { return ScaledBatchRows(128 * 1024); }
  /// Fixed virtual-time cost charged once per plan execution (plan
  /// compilation / JVM dispatch overheads).
  virtual double PlanOverheadSeconds() const { return 0.0; }
  /// Fixed virtual-time cost charged per streamed chunk (expression-graph
  /// dispatch overheads; Vaex sets this).
  virtual double PerChunkOverheadSeconds() const { return 0.0; }
  /// When true, pipeline breakers use the bounded-memory streaming
  /// implementations (streaming aggregation with spill, external sort,
  /// grace join) instead of materialize-then-execute. The SparkSQL model, also
  /// adopted by the Vaex and Polars streaming paths.
  virtual bool StreamsBreakers() const { return false; }

  /// When true, BCF sources are served through mmap with zero-copy plain
  /// pages (the Vaex memory model: file-backed columns charge nothing
  /// against the RAM budget).
  virtual bool MapsBcfSource() const { return false; }

  /// Extra virtual-time cost of running action `op` against `table`;
  /// Vaex charges its per-row expression-graph dispatch here (the paper's
  /// "much less efficient row-wise" finding). Default: none.
  virtual double ActionPenaltySeconds(const frame::Op& op,
                                      const col::TablePtr& table) const {
    return 0.0;
  }

  /// Ingest hook: Vaex converts CSV sources into a temp BCF store; SparkPD
  /// attaches its index column.
  virtual Result<LazySource> PrepareSource(LazySource source) const {
    return source;
  }

  /// Runs plan::Optimize (predicate and projection pushdown) over `plan`
  /// under this engine's PlanPolicy(); identity when the optimizer is
  /// disabled. Exposed for tests and plan display. Set BENTO_EXPLAIN=1 to
  /// dump the plan before and after to stderr.
  std::vector<frame::Op> Optimize(std::vector<frame::Op> plan) const;

 protected:
  /// Opens the chunk stream for a source with `drop_columns` bound into the
  /// scan, which binds projection only: those columns are never
  /// materialized (CSV: column skipping; BCF: column projection; tables:
  /// column selection). Every row is read; filters run in the plan.
  Result<std::unique_ptr<ChunkStream>> OpenStream(
      const LazySource& source,
      const std::vector<std::string>& drop_columns) const;

 private:
  bool optimizer_enabled_ = true;
};

/// \brief True when `op` can run chunk-at-a-time without global state.
bool IsStreamable(const frame::Op& op);

}  // namespace bento::eng

#endif  // BENTO_ENGINES_LAZY_ENGINE_H_
