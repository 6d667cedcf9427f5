#include "kernels/groupby.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "columnar/builder.h"
#include "kernels/flat_index.h"
#include "kernels/row_hash.h"
#include "kernels/selection.h"
#include "obs/metrics.h"

namespace bento::kern {

namespace {

double NumericCell(const Array& a, int64_t i) {
  switch (a.type()) {
    case TypeId::kFloat64:
      return a.float64_data()[i];
    case TypeId::kBool:
      return a.bool_data()[i] != 0 ? 1.0 : 0.0;
    default:
      return static_cast<double>(a.int64_data()[i]);
  }
}

/// Validates the agg specs and collects their input columns. Shared by the
/// serial and morsel-parallel paths so both reject bad specs with identical
/// errors.
Result<std::vector<ArrayPtr>> CollectAggInputs(const TablePtr& table,
                                               const std::vector<AggSpec>& aggs) {
  std::vector<ArrayPtr> agg_inputs;
  for (const AggSpec& spec : aggs) {
    BENTO_ASSIGN_OR_RETURN(auto c, table->GetColumn(spec.column));
    if (spec.kind != AggKind::kCount && !col::IsNumeric(c->type()) &&
        c->type() != TypeId::kBool && c->type() != TypeId::kTimestamp) {
      return Status::TypeError("cannot aggregate ", col::TypeName(c->type()),
                               " column '", spec.column, "' with ",
                               AggName(spec.kind));
    }
    agg_inputs.push_back(std::move(c));
  }
  return agg_inputs;
}

/// Feeds row `i` into its group's AggState block, replicating the serial
/// GroupBy update exactly: `rows` counts every routed row, non-null non-NaN
/// cells feed the moment sums (sentinel-null model). String and
/// categorical inputs (kCount only) count their valid cells without a
/// value being read.
inline void AccumulateRow(const std::vector<ArrayPtr>& agg_inputs,
                          AggState* row_states, int64_t i) {
  const size_t naggs = agg_inputs.size();
  for (size_t a = 0; a < naggs; ++a) {
    row_states[a].rows += 1;
    const Array& input = *agg_inputs[a];
    if (!input.IsValid(i)) continue;
    if (input.type() == TypeId::kString ||
        input.type() == TypeId::kCategorical) {
      row_states[a].count += 1;
      continue;
    }
    const double v = NumericCell(input, i);
    // NaN counts as missing (sentinel-null model).
    if (!std::isnan(v)) row_states[a].Add(v);
  }
}

}  // namespace

double AggState::Result(AggKind kind, bool* is_null) const {
  *is_null = count == 0 && kind != AggKind::kCount;
  switch (kind) {
    case AggKind::kSum:
      return sum;
    case AggKind::kMean:
      return count > 0 ? sum / static_cast<double>(count) : 0.0;
    case AggKind::kMin:
      return min;
    case AggKind::kMax:
      return max;
    case AggKind::kCount:
      return static_cast<double>(count);
    case AggKind::kStd: {
      if (count < 2) {
        *is_null = true;
        return 0.0;
      }
      const double n = static_cast<double>(count);
      double var = (sum_sq - sum * sum / n) / (n - 1.0);
      return var > 0.0 ? std::sqrt(var) : 0.0;
    }
    case AggKind::kSumSq:
      return sum_sq;
  }
  return 0.0;
}

std::string DefaultAggName(const AggSpec& spec) {
  if (!spec.output_name.empty()) return spec.output_name;
  return spec.column + "_" + AggName(spec.kind);
}

const char* AggName(AggKind kind) {
  switch (kind) {
    case AggKind::kSum:
      return "sum";
    case AggKind::kMean:
      return "mean";
    case AggKind::kMin:
      return "min";
    case AggKind::kMax:
      return "max";
    case AggKind::kCount:
      return "count";
    case AggKind::kStd:
      return "std";
    case AggKind::kSumSq:
      return "sumsq";
  }
  return "?";
}

Result<TablePtr> GroupBy(const TablePtr& table,
                         const std::vector<std::string>& keys,
                         const std::vector<AggSpec>& aggs) {
  BENTO_TRACE_SPAN(kKernel, "groupby");
  if (keys.empty()) return Status::Invalid("GroupBy requires at least one key");

  BENTO_ASSIGN_OR_RETURN(auto agg_inputs, CollectAggInputs(table, aggs));

  BENTO_ASSIGN_OR_RETURN(auto hashes, HashRows(table, keys));
  BENTO_ASSIGN_OR_RETURN(auto equal, RowEquality::Make(table, keys, table, keys));

  // Flat open-addressing grouper: dense group ids in first-seen order,
  // full-hash ties resolved against each group's representative row.
  const int64_t n = table->num_rows();
  FlatGrouper grouper(n / 8 + 16);
  std::vector<std::vector<AggState>> states;  // [group][agg]

  for (int64_t i = 0; i < n; ++i) {
    const int64_t group = grouper.FindOrInsert(
        hashes[static_cast<size_t>(i)], i,
        [&](int64_t a, int64_t b) { return equal.Equal(a, b); });
    if (group == static_cast<int64_t>(states.size())) {
      states.emplace_back(aggs.size());
    }
    AccumulateRow(agg_inputs, states[static_cast<size_t>(group)].data(), i);
  }

  // Assemble output: key columns via Take on representatives, then aggs.
  BENTO_ASSIGN_OR_RETURN(auto key_table, table->SelectColumns(keys));
  BENTO_ASSIGN_OR_RETURN(auto key_out,
                         TakeTable(key_table, grouper.representatives()));

  std::vector<col::Field> fields = key_out->schema()->fields();
  std::vector<ArrayPtr> columns = key_out->columns();
  for (size_t a = 0; a < aggs.size(); ++a) {
    if (aggs[a].kind == AggKind::kCount) {
      col::Int64Builder b;
      b.Reserve(static_cast<int64_t>(states.size()));
      for (const auto& row_states : states) {
        b.Append(row_states[a].count);
      }
      BENTO_ASSIGN_OR_RETURN(auto arr, b.Finish());
      fields.push_back({DefaultAggName(aggs[a]), TypeId::kInt64});
      columns.push_back(std::move(arr));
    } else {
      col::Float64Builder b;
      b.Reserve(static_cast<int64_t>(states.size()));
      for (const auto& row_states : states) {
        bool is_null = false;
        double v = row_states[a].Result(aggs[a].kind, &is_null);
        b.AppendMaybe(v, !is_null);
      }
      BENTO_ASSIGN_OR_RETURN(auto arr, b.Finish());
      fields.push_back({DefaultAggName(aggs[a]), TypeId::kFloat64});
      columns.push_back(std::move(arr));
    }
  }
  return Table::Make(std::make_shared<col::Schema>(std::move(fields)),
                     std::move(columns));
}

Result<TablePtr> GroupByPartitioned(const TablePtr& table,
                                    const std::vector<std::string>& keys,
                                    const std::vector<AggSpec>& aggs,
                                    const sim::ParallelOptions& options) {
  BENTO_TRACE_SPAN(kKernel, "groupby.partitioned");
  if (keys.empty()) return Status::Invalid("GroupBy requires at least one key");
  const int64_t n = table->num_rows();
  const int workers = sim::ResolveWorkers(options);
  if (workers <= 1 || n < 8192) return GroupBy(table, keys, aggs);

  BENTO_ASSIGN_OR_RETURN(auto agg_inputs, CollectAggInputs(table, aggs));
  const size_t naggs = aggs.size();

  BENTO_ASSIGN_OR_RETURN(auto hashes, HashRowsParallel(table, keys, options));
  BENTO_ASSIGN_OR_RETURN(auto equal, RowEquality::Make(table, keys, table, keys));

  // Radix fan-out on the TOP hash bits — the low bits address hash-table
  // slots, so reusing them for partitioning correlates partition id with
  // slot id and skews partitions on structured keys. Top-bit partitioning
  // also guarantees each key lands in exactly one partition, which is what
  // makes the per-partition states disjoint and the merge exact.
  const int parts = FlatIndex::PlanPartitions(n, options);
  int part_bits = 0;
  while ((1 << part_bits) < parts) ++part_bits;
  const int shift = 64 - part_bits;

  // Partition row lists, built morsel-parallel: each morsel scatters its own
  // row range into private buckets, and partition p reads bucket column p
  // across morsels in morsel order — i.e. ascending global row order, which
  // keeps per-group accumulation order identical to serial.
  std::vector<std::pair<int64_t, int64_t>> morsels;
  std::vector<std::vector<int64_t>> buckets;  // [morsel * parts + partition]
  if (parts > 1) {
    morsels = sim::MorselRanges(n, workers);
    buckets.assign(morsels.size() * static_cast<size_t>(parts), {});
    BENTO_RETURN_NOT_OK(sim::ParallelFor(
        static_cast<int64_t>(morsels.size()),
        [&](int64_t m) -> Status {
          const auto [b, e] = morsels[static_cast<size_t>(m)];
          std::vector<int64_t>* local =
              &buckets[static_cast<size_t>(m) * static_cast<size_t>(parts)];
          for (int p = 0; p < parts; ++p) {
            local[p].reserve(static_cast<size_t>((e - b) / parts + 8));
          }
          for (int64_t i = b; i < e; ++i) {
            local[hashes[static_cast<size_t>(i)] >> shift].push_back(i);
          }
          return Status::OK();
        },
        options));
  }

  // Per-partition aggregation into a thread-local FlatGrouper plus one flat
  // AggState block per group — no partition tables are materialized and no
  // rows are re-hashed (the seed's TakeTable + recursive GroupBy per
  // partition did ~4.6x the serial work).
  struct PartStates {
    std::unique_ptr<FlatGrouper> grouper;
    std::vector<AggState> states;  // [group * naggs + agg]
  };
  std::vector<PartStates> part_out(static_cast<size_t>(parts));
  BENTO_RETURN_NOT_OK(sim::ParallelFor(
      parts,
      [&](int64_t p) -> Status {
        BENTO_TRACE_SPAN(kKernel, "groupby.morsel.partition");
        // Start the grouper small enough to stay cache-resident and let it
        // grow toward n/(8*parts): low-cardinality keys (the common case)
        // then probe an L1/L2-sized table instead of a sparse n/8-slot one,
        // and growth rehashes cost O(final size) amortized.
        auto grouper = std::make_unique<FlatGrouper>(
            std::min<int64_t>(n / (8 * parts) + 16, 1 << 14));
        std::vector<AggState> states;
        auto consume = [&](int64_t i) {
          const int64_t group = grouper->FindOrInsert(
              hashes[static_cast<size_t>(i)], i,
              [&](int64_t a, int64_t b) { return equal.Equal(a, b); });
          if (static_cast<size_t>(group) * naggs == states.size()) {
            states.resize(states.size() + naggs);
          }
          AccumulateRow(agg_inputs, &states[static_cast<size_t>(group) * naggs],
                        i);
        };
        if (parts == 1) {
          for (int64_t i = 0; i < n; ++i) consume(i);
        } else {
          for (size_t m = 0; m < morsels.size(); ++m) {
            for (int64_t i :
                 buckets[m * static_cast<size_t>(parts) + static_cast<size_t>(p)]) {
              consume(i);
            }
          }
        }
        part_out[static_cast<size_t>(p)] = {std::move(grouper),
                                            std::move(states)};
        return Status::OK();
      },
      options));

  // Merge: partitions hold disjoint key sets, so global first-seen group
  // order is exactly ascending representative-row order. Each merged group
  // has a single contributing partition state; AggState::Merge composes it
  // into the zero state, so the finalized values are bit-identical to the
  // serial accumulation (which visited the same rows in the same order).
  struct GroupRef {
    int64_t rep;
    int32_t part;
    int64_t local;
  };
  int64_t num_groups = 0;
  for (const auto& po : part_out) {
    if (po.grouper != nullptr) num_groups += po.grouper->num_groups();
  }
  std::vector<GroupRef> refs;
  refs.reserve(static_cast<size_t>(num_groups));
  for (int p = 0; p < parts; ++p) {
    const auto& reps = part_out[static_cast<size_t>(p)].grouper->representatives();
    for (size_t g = 0; g < reps.size(); ++g) {
      refs.push_back({reps[g], p, static_cast<int64_t>(g)});
    }
  }
  std::sort(refs.begin(), refs.end(),
            [](const GroupRef& x, const GroupRef& y) { return x.rep < y.rep; });

  static obs::Counter* c_parts =
      obs::MetricsRegistry::Global().counter("groupby.morsel.partitions");
  static obs::Counter* c_groups =
      obs::MetricsRegistry::Global().counter("groupby.morsel.groups");
  c_parts->Add(static_cast<uint64_t>(parts));
  c_groups->Add(static_cast<uint64_t>(num_groups));

  std::vector<int64_t> rep_rows(refs.size());
  for (size_t i = 0; i < refs.size(); ++i) rep_rows[i] = refs[i].rep;
  BENTO_ASSIGN_OR_RETURN(auto key_table, table->SelectColumns(keys));
  BENTO_ASSIGN_OR_RETURN(auto key_out,
                         TakeTableParallel(key_table, rep_rows, options));

  std::vector<col::Field> fields = key_out->schema()->fields();
  std::vector<ArrayPtr> columns = key_out->columns();
  for (size_t a = 0; a < naggs; ++a) {
    if (aggs[a].kind == AggKind::kCount) {
      col::Int64Builder b;
      b.Reserve(static_cast<int64_t>(refs.size()));
      for (const GroupRef& ref : refs) {
        AggState merged;
        merged.Merge(part_out[static_cast<size_t>(ref.part)]
                         .states[static_cast<size_t>(ref.local) * naggs + a]);
        b.Append(merged.count);
      }
      BENTO_ASSIGN_OR_RETURN(auto arr, b.Finish());
      fields.push_back({DefaultAggName(aggs[a]), TypeId::kInt64});
      columns.push_back(std::move(arr));
    } else {
      col::Float64Builder b;
      b.Reserve(static_cast<int64_t>(refs.size()));
      for (const GroupRef& ref : refs) {
        AggState merged;
        merged.Merge(part_out[static_cast<size_t>(ref.part)]
                         .states[static_cast<size_t>(ref.local) * naggs + a]);
        bool is_null = false;
        double v = merged.Result(aggs[a].kind, &is_null);
        b.AppendMaybe(v, !is_null);
      }
      BENTO_ASSIGN_OR_RETURN(auto arr, b.Finish());
      fields.push_back({DefaultAggName(aggs[a]), TypeId::kFloat64});
      columns.push_back(std::move(arr));
    }
  }
  return Table::Make(std::make_shared<col::Schema>(std::move(fields)),
                     std::move(columns));
}

}  // namespace bento::kern
