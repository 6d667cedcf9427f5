#ifndef BENTO_ENGINES_SPARK_H_
#define BENTO_ENGINES_SPARK_H_

#include "engines/lazy_engine.h"

namespace bento::eng {

/// \brief Model of Spark SQL in standalone mode: Catalyst-like rule
/// optimization, whole-stage chunked execution, and bounded-memory breakers
/// (streaming aggregation, external merge sort, streaming dedup) — the
/// combination that makes it the only engine finishing the largest dataset
/// on the laptop configuration (Table V). A fixed per-plan overhead models
/// JVM/Catalyst dispatch, which the paper observes erasing the lazy gains
/// on small inputs.
class SparkSqlEngine : public LazyEngineBase {
 public:
  explicit SparkSqlEngine(bool lazy = true) : lazy_(lazy) {}

  const frame::EngineInfo& info() const override;
  bool lazy() const override { return lazy_; }
  frame::ExecPolicy ExecutionPolicy() const override;
  bool StreamsBreakers() const override { return true; }
  int64_t ChunkRows() const override {
    return ScaledBatchRows(128 * 1024);
  }
  double PlanOverheadSeconds() const override {
    // ~10 s of JVM/Catalyst fixed overhead at full scale.
    return 10.0 * sim::CostScale();
  }

 private:
  bool lazy_;
};

/// \brief Model of Pandas-on-Spark (Koalas): the Spark runtime behind a
/// Pandas API. Attaches a materialized index column at ingest, copies
/// intermediate results (opportunistic evaluation), and applies fewer
/// optimizer rules — faster than Pandas, heavier than SparkSQL.
class SparkPdEngine : public LazyEngineBase {
 public:
  explicit SparkPdEngine(bool lazy = true) : lazy_(lazy) {}

  const frame::EngineInfo& info() const override;
  bool lazy() const override { return lazy_; }
  frame::ExecPolicy ExecutionPolicy() const override;
  bool EnablePredicatePushdown() const override { return false; }
  int64_t ChunkRows() const override {
    return ScaledBatchRows(128 * 1024);
  }
  double PlanOverheadSeconds() const override {
    return 10.0 * sim::CostScale();
  }

  Result<LazySource> PrepareSource(LazySource source) const override;

 private:
  bool lazy_;
};

}  // namespace bento::eng

#endif  // BENTO_ENGINES_SPARK_H_
