#ifndef BENTO_FRAME_EXEC_H_
#define BENTO_FRAME_EXEC_H_

#include "frame/op.h"
#include "kernels/null_ops.h"
#include "kernels/string_ops.h"
#include "sim/parallel.h"

namespace bento::frame {

/// \brief Knobs that differentiate how engines execute the shared kernels.
///
/// The engines of this repo mostly differ not in *what* a preparator
/// computes but in *how*: null probing strategy, string representation,
/// degree and policy of parallelism, and memory side effects. ExecPolicy
/// captures those axes so one execution core serves every eager engine.
struct ExecPolicy {
  kern::NullProbe null_probe = kern::NullProbe::kMetadata;
  kern::StringEngine string_engine = kern::StringEngine::kColumnar;
  /// Use chunk/partition-parallel kernel variants.
  bool parallel = false;
  sim::ParallelOptions parallel_options;
  /// Bytes of boxed per-cell overhead staged during row-wise apply (the
  /// Python-object model; 0 disables). Charged to the current memory pool
  /// for the duration of the op — the mechanism behind the paper's Pandas
  /// OoM on `apply` (Fig. 4).
  int64_t row_apply_object_bytes = 0;
  /// Additional per-row staging (the materialized Series object each
  /// Pandas `apply(axis=1)` call constructs, plus allocator churn).
  int64_t row_apply_series_bytes = 0;
  /// Percentiles via the single-pass histogram estimate instead of the
  /// copy-and-select exact path (the optimized engines' approach).
  bool approx_quantile = false;
  /// Materialize a defensive copy of the output table after every
  /// transform (the eager Pandas chained-assignment model): doubles the
  /// transient footprint, which the lazy engines avoid.
  bool copy_outputs = false;
};

/// \brief Executes one transform preparator on a materialized table.
Result<col::TablePtr> ExecTransform(const col::TablePtr& table, const Op& op,
                                    const ExecPolicy& policy);

/// \brief Executes one action preparator on a materialized table.
Result<ActionResult> ExecAction(const col::TablePtr& table, const Op& op,
                                const ExecPolicy& policy);

/// \brief Deep copy of a table into freshly allocated (tracked) buffers.
Result<col::TablePtr> DeepCopyTable(const col::TablePtr& table);

}  // namespace bento::frame

#endif  // BENTO_FRAME_EXEC_H_
