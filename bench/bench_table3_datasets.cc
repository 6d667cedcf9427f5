// Regenerates the paper's Table III: features of the selected datasets,
// measured on the synthetic generators' output (scaled rows; type mix,
// null share and string lengths must match the published profile).
#include <cstdio>

#include "bench/bench_common.h"
#include "datagen/datasets.h"
#include "io/csv.h"
#include "obs/resource.h"
#include "obs/trace.h"
#include "util/string_util.h"

int main(int argc, char** argv) {
  bento::obs::TraceEnvScope trace_scope(
      bento::bench::ParseTraceArg(&argc, argv));
  bento::obs::ResourceReportScope report_scope(
      bento::bench::ParseReportArg(&argc, argv));
  using namespace bento;
  bench::PrintHeader("Table III", "features of the selected datasets");

  run::TextTable table({"", "Athlete", "Loan", "Patrol", "Taxi"});
  std::vector<gen::MeasuredProfile> measured;
  std::vector<double> csv_mb;
  run::Runner runner = bench::MakeRunner();
  for (const char* name : {"athlete", "loan", "patrol", "taxi"}) {
    auto t = gen::GenerateDataset(name, bench::ScaleFromEnv()).ValueOrDie();
    measured.push_back(gen::MeasureProfile(t));
    auto path = runner.EnsureCsv(name).ValueOrDie();
    FILE* f = std::fopen(path.c_str(), "rb");
    std::fseek(f, 0, SEEK_END);
    csv_mb.push_back(static_cast<double>(std::ftell(f)) / (1024.0 * 1024.0));
    std::fclose(f);
  }

  auto row = [&](const std::string& label, auto getter) {
    std::vector<std::string> cells = {label};
    for (const auto& m : measured) cells.push_back(getter(m));
    table.AddRow(std::move(cells));
  };
  row("CSV size (MiB, at scale)", [&](const gen::MeasuredProfile& m) {
    size_t i = &m - measured.data();
    return FormatFixed(csv_mb[i], 2);
  });
  row("# Rows", [](const gen::MeasuredProfile& m) {
    return std::to_string(m.rows);
  });
  row("# Columns", [](const gen::MeasuredProfile& m) {
    return std::to_string(m.columns);
  });
  row("# Num - Str - Bool", [](const gen::MeasuredProfile& m) {
    return std::to_string(m.numeric) + "-" + std::to_string(m.strings) + "-" +
           std::to_string(m.bools);
  });
  row("% Null", [](const gen::MeasuredProfile& m) {
    return FormatFixed(m.null_fraction * 100.0, 1) + "%";
  });
  row("Str len range", [](const gen::MeasuredProfile& m) {
    std::string range = "(";
    range += std::to_string(m.str_len_min);
    range += ", ";
    range += std::to_string(m.str_len_max);
    return range + ")";
  });
  std::printf("%s\n", table.ToString().c_str());

  std::printf("paper (full scale): rows 0.2M/2M/27M/77M, cols 15/151/34/18,\n");
  std::printf("nulls 9%%/31%%/22%%/0%%, strlen (1,108)/(1,3988)/(1,2293)/(1,19)\n");
  return 0;
}
