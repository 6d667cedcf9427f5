#ifndef PERFBENCH_SELFTIME_H_
#define PERFBENCH_SELFTIME_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/json.h"

namespace perfbench {

/// \brief One complete span ('X' event) of an obs trace.
struct SpanEvent {
  std::string name;
  std::string category;  ///< obs::CategoryName
  int64_t tid = 0;
  double ts_us = 0.0;
  double dur_us = 0.0;

  double end_us() const { return ts_us + dur_us; }
};

/// The complete spans of an obs::TraceToJson() document.
std::vector<SpanEvent> SpansFromTrace(const bento::JsonValue& doc);

/// \brief The repository module a program span belongs to (io, engines,
/// sim, kernels, plan), by the source file that emits it.
std::string ModuleOf(const SpanEvent& span);

/// \brief Self-time split of one traced execution.
///
/// A span's self time is its duration minus the part of it covered by its
/// direct children on the same thread (children clipped to the parent).
/// Benchmark spans (`bench.` prefix) are not program spans: they neither
/// take self time nor cover it. The consumer thread is the thread that
/// carries the benchmark's `bench.stage.*` spans.
struct SelfTimes {
  /// Σ duration of the benchmark's top-level stage spans.
  double stage_wall_s = 0.0;
  /// Consumer time inside stage spans covered by no program span.
  double uncovered_s = 0.0;
  /// Σ self time of consumer-thread program spans that start inside a
  /// stage span, by ModuleOf. Σ values + uncovered_s == stage_wall_s.
  std::map<std::string, double> consumer_self_s_by_module;
  /// Σ self time of program spans on every thread, by span name.
  std::map<std::string, double> self_s_by_name;

  double ConsumerSelfTotal() const;
};

SelfTimes ComputeSelfTimes(const std::vector<SpanEvent>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_SELFTIME_H_
