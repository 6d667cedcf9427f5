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
  }
  return "?";
}

Status AggFold::Bind(const TablePtr& table, const std::vector<AggSpec>& aggs) {
  num_aggs_ = aggs.size();
  inputs_.clear();
  for (const AggSpec& spec : aggs) {
    BENTO_ASSIGN_OR_RETURN(auto c, table->GetColumn(spec.column));
    if (spec.kind != AggKind::kCount && !col::IsNumeric(c->type()) &&
        c->type() != TypeId::kBool && c->type() != TypeId::kTimestamp) {
      return Status::TypeError("cannot aggregate ", col::TypeName(c->type()),
                               " column '", spec.column, "' with ",
                               AggName(spec.kind));
    }
    inputs_.push_back(std::move(c));
  }
  return Status::OK();
}

void AggFold::Add(int64_t group, int64_t row) {
  if (group == num_groups_) {
    states_.resize(states_.size() + num_aggs_);
    ++num_groups_;
  }
  AggState* block = states_.data() + static_cast<size_t>(group) * num_aggs_;
  for (size_t a = 0; a < num_aggs_; ++a) {
    block[a].rows += 1;
    const Array& input = *inputs_[a];
    if (!input.IsValid(row)) continue;
    if (input.type() == TypeId::kString ||
        input.type() == TypeId::kCategorical) {
      block[a].count += 1;
      continue;
    }
    const double v = NumericCell(input, row);
    // NaN counts as missing (sentinel-null model).
    if (!std::isnan(v)) block[a].Add(v);
  }
}

Result<TablePtr> AggFold::Finish(const TablePtr& keys,
                                 const std::vector<AggSpec>& aggs) const {
  std::vector<const AggState*> groups(static_cast<size_t>(num_groups_));
  for (int64_t g = 0; g < num_groups_; ++g) {
    groups[static_cast<size_t>(g)] = states(g);
  }
  return Finish(keys, aggs, groups);
}

Result<TablePtr> AggFold::Finish(const TablePtr& keys,
                                 const std::vector<AggSpec>& aggs,
                                 const std::vector<const AggState*>& groups) {
  std::vector<col::Field> fields = keys->schema()->fields();
  std::vector<ArrayPtr> columns = keys->columns();
  const int64_t n = static_cast<int64_t>(groups.size());
  for (size_t a = 0; a < aggs.size(); ++a) {
    ArrayPtr arr;
    if (aggs[a].kind == AggKind::kCount) {
      col::Int64Builder b;
      b.Reserve(n);
      for (const AggState* block : groups) b.Append(block[a].count);
      BENTO_ASSIGN_OR_RETURN(arr, b.Finish());
    } else {
      col::Float64Builder b;
      b.Reserve(n);
      for (const AggState* block : groups) {
        bool is_null = false;
        const double v = block[a].Result(aggs[a].kind, &is_null);
        b.AppendMaybe(v, !is_null);
      }
      BENTO_ASSIGN_OR_RETURN(arr, b.Finish());
    }
    fields.push_back({DefaultAggName(aggs[a]), arr->type()});
    columns.push_back(std::move(arr));
  }
  return Table::Make(std::make_shared<col::Schema>(std::move(fields)),
                     std::move(columns));
}

Result<TablePtr> GroupBy(const TablePtr& table,
                         const std::vector<std::string>& keys,
                         const std::vector<AggSpec>& aggs) {
  BENTO_TRACE_SPAN(kKernel, "groupby");
  if (keys.empty()) return Status::Invalid("GroupBy requires at least one key");

  AggFold fold;
  BENTO_RETURN_NOT_OK(fold.Bind(table, aggs));

  BENTO_ASSIGN_OR_RETURN(auto hashes, HashRows(table, keys));
  BENTO_ASSIGN_OR_RETURN(auto equal, RowEquality::Make(table, keys, table, keys));

  // Flat open-addressing grouper: dense group ids in first-seen order,
  // full-hash ties resolved against each group's representative row.
  const int64_t n = table->num_rows();
  FlatGrouper grouper(n / 8 + 16);
  for (int64_t i = 0; i < n; ++i) {
    const int64_t group = grouper.FindOrInsert(
        hashes[static_cast<size_t>(i)], i,
        [&](int64_t a, int64_t b) { return equal.Equal(a, b); });
    fold.Add(group, i);
  }

  // Key columns via Take on representatives, then the aggregations.
  BENTO_ASSIGN_OR_RETURN(auto key_table, table->SelectColumns(keys));
  BENTO_ASSIGN_OR_RETURN(auto key_out,
                         TakeTable(key_table, grouper.representatives()));
  return fold.Finish(key_out, aggs);
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

  AggFold bound;
  BENTO_RETURN_NOT_OK(bound.Bind(table, aggs));

  BENTO_ASSIGN_OR_RETURN(auto hashes, HashRowsParallel(table, keys, options));
  BENTO_ASSIGN_OR_RETURN(auto equal, RowEquality::Make(table, keys, table, keys));

  // Radix fan-out on the TOP hash bits — the low bits address hash-table
  // slots, so reusing them for partitioning correlates partition id with
  // slot id and skews partitions on structured keys. Top-bit partitioning
  // also guarantees each key lands in exactly one partition, so each group
  // is folded by exactly one partition's AggFold.
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

  // Per-partition aggregation into a thread-local FlatGrouper and AggFold —
  // no partition tables are materialized and no rows are re-hashed (the
  // seed's TakeTable + recursive GroupBy per partition did ~4.6x the serial
  // work).
  struct PartStates {
    std::unique_ptr<FlatGrouper> grouper;
    AggFold fold;
  };
  std::vector<PartStates> part_out;
  part_out.reserve(static_cast<size_t>(parts));
  for (int p = 0; p < parts; ++p) part_out.push_back({nullptr, bound});
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
        AggFold& fold = part_out[static_cast<size_t>(p)].fold;
        auto consume = [&](int64_t i) {
          fold.Add(grouper->FindOrInsert(
                       hashes[static_cast<size_t>(i)], i,
                       [&](int64_t a, int64_t b) { return equal.Equal(a, b); }),
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
        part_out[static_cast<size_t>(p)].grouper = std::move(grouper);
        return Status::OK();
      },
      options));

  // Partitions hold disjoint key sets, so global first-seen group order is
  // exactly ascending representative-row order. Each group was folded by
  // one partition over the same rows in the same order as the serial path,
  // so its state finalizes to the serial bits.
  struct GroupRef {
    int64_t rep;
    const AggState* states;
  };
  int64_t num_groups = 0;
  for (const auto& po : part_out) num_groups += po.fold.num_groups();
  std::vector<GroupRef> refs;
  refs.reserve(static_cast<size_t>(num_groups));
  for (const PartStates& po : part_out) {
    const auto& reps = po.grouper->representatives();
    for (size_t g = 0; g < reps.size(); ++g) {
      refs.push_back({reps[g], po.fold.states(static_cast<int64_t>(g))});
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
  std::vector<const AggState*> groups(refs.size());
  for (size_t i = 0; i < refs.size(); ++i) {
    rep_rows[i] = refs[i].rep;
    groups[i] = refs[i].states;
  }
  BENTO_ASSIGN_OR_RETURN(auto key_table, table->SelectColumns(keys));
  BENTO_ASSIGN_OR_RETURN(auto key_out,
                         TakeTableParallel(key_table, rep_rows, options));
  return AggFold::Finish(key_out, aggs, groups);
}

}  // namespace bento::kern
