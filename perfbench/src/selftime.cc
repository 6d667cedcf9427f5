#include "src/selftime.h"

#include <algorithm>
#include <string_view>

#include "src/replay.h"

namespace perfbench {

namespace {

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

/// Self time (µs) of each span in `spans`, which all belong to one thread,
/// and whether it has a parent among them.
struct ThreadSelf {
  std::vector<double> self_us;
  std::vector<bool> top_level;
};

ThreadSelf SelfTimesOfThread(const std::vector<const SpanEvent*>& spans) {
  ThreadSelf out;
  out.self_us.resize(spans.size());
  out.top_level.assign(spans.size(), true);
  std::vector<double> covered(spans.size(), 0.0);
  std::vector<size_t> stack;
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanEvent& s = *spans[i];
    while (!stack.empty() && spans[stack.back()]->end_us() <= s.ts_us) {
      stack.pop_back();
    }
    if (!stack.empty()) {
      const size_t parent = stack.back();
      out.top_level[i] = false;
      const double end = std::min(s.end_us(), spans[parent]->end_us());
      covered[parent] += std::max(0.0, end - s.ts_us);
    }
    stack.push_back(i);
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    out.self_us[i] = std::max(0.0, spans[i]->dur_us - covered[i]);
  }
  return out;
}

}  // namespace

std::vector<SpanEvent> SpansFromTrace(const bento::JsonValue& doc) {
  std::vector<SpanEvent> out;
  for (const bento::JsonValue& e : doc.Get("traceEvents").items()) {
    if (e.GetString("ph") != "X") continue;
    SpanEvent s;
    s.name = e.GetString("name");
    s.category = e.GetString("cat");
    s.tid = e.GetInt("tid");
    s.ts_us = e.GetNumber("ts");
    s.dur_us = e.GetNumber("dur");
    out.push_back(std::move(s));
  }
  return out;
}

std::string ModuleOf(const SpanEvent& span) {
  const std::string& n = span.name;
  if (StartsWith(n, "plan.")) return "plan";
  // sim/spill.cc emits the spill file I/O; the engines' streaming operators
  // emit the materialize/pipeline/spill-stream spans under the io category.
  if (n == "spill.write" || n == "spill.read") return "sim";
  if (StartsWith(n, "materialize.") || StartsWith(n, "pipeline.") ||
      n == "spill.stream") {
    return "engines";
  }
  if (span.category == "io") return "io";
  if (span.category == "kernel") return "kernels";
  if (span.category == "engine") return "engines";
  if (span.category == "sim") return "sim";
  return span.category;
}

double SelfTimes::ConsumerSelfTotal() const {
  double total = 0.0;
  for (const auto& [module, seconds] : consumer_self_s_by_module) {
    total += seconds;
  }
  return total;
}

SelfTimes ComputeSelfTimes(const std::vector<SpanEvent>& spans) {
  SelfTimes out;
  std::map<int64_t, std::vector<const SpanEvent*>> program;
  std::vector<const SpanEvent*> stages;
  for (const SpanEvent& s : spans) {
    if (StartsWith(s.name, kBenchSpanPrefix)) {
      if (StartsWith(s.name, kBenchStagePrefix)) stages.push_back(&s);
      continue;
    }
    program[s.tid].push_back(&s);
  }
  const int64_t consumer = stages.empty() ? -1 : stages.front()->tid;
  auto stage_containing = [&](double ts_us) -> const SpanEvent* {
    for (const SpanEvent* st : stages) {
      if (st->tid == consumer && ts_us >= st->ts_us && ts_us <= st->end_us()) {
        return st;
      }
    }
    return nullptr;
  };

  double stage_us = 0.0;
  for (const SpanEvent* st : stages) {
    if (st->tid == consumer) stage_us += st->dur_us;
  }
  double covered_us = 0.0;
  for (auto& [tid, list] : program) {
    std::sort(list.begin(), list.end(),
              [](const SpanEvent* a, const SpanEvent* b) {
                if (a->ts_us != b->ts_us) return a->ts_us < b->ts_us;
                return a->dur_us > b->dur_us;
              });
    const ThreadSelf self = SelfTimesOfThread(list);
    for (size_t i = 0; i < list.size(); ++i) {
      const SpanEvent& s = *list[i];
      out.self_s_by_name[s.name] += self.self_us[i] * 1e-6;
      if (tid != consumer) continue;
      const SpanEvent* stage = stage_containing(s.ts_us);
      if (stage == nullptr) continue;
      out.consumer_self_s_by_module[ModuleOf(s)] += self.self_us[i] * 1e-6;
      if (self.top_level[i]) {
        covered_us += std::max(
            0.0, std::min(s.end_us(), stage->end_us()) - s.ts_us);
      }
    }
  }
  out.stage_wall_s = stage_us * 1e-6;
  out.uncovered_s = std::max(0.0, stage_us - covered_us) * 1e-6;
  return out;
}

}  // namespace perfbench
