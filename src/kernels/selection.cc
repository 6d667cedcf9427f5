#include "kernels/selection.h"

#include <cstring>
#include <type_traits>

#include "obs/trace.h"
#include "simd/simd.h"

namespace bento::kern {

namespace {

/// Shared per-call state of a sized gather: the morsel decomposition plus
/// whether any index is negative (which forces a validity bitmap). Computed
/// once per table so the per-column passes skip the re-scan.
struct GatherPlan {
  std::vector<std::pair<int64_t, int64_t>> ranges;
  bool any_negative = false;
};

/// Morsel-parallel bounds scan. Reports the first out-of-bounds index at
/// any worker count: ranges are ordered, so the earliest offending range's
/// first hit is the global first.
Result<GatherPlan> PlanGather(const std::vector<int64_t>& indices,
                              int64_t source_length,
                              const sim::ParallelOptions& options) {
  GatherPlan plan;
  const int64_t n = static_cast<int64_t>(indices.size());
  plan.ranges = sim::MorselRanges(n, sim::ResolveWorkers(options));
  std::vector<int64_t> first_bad(plan.ranges.size(), -1);
  std::vector<uint8_t> has_negative(plan.ranges.size(), 0);
  BENTO_RETURN_NOT_OK(sim::ParallelFor(
      static_cast<int64_t>(plan.ranges.size()),
      [&](int64_t r) {
        auto [b, e] = plan.ranges[static_cast<size_t>(r)];
        bool negative = false;
        for (int64_t i = b; i < e; ++i) {
          const int64_t idx = indices[static_cast<size_t>(i)];
          negative |= idx < 0;
          if (idx >= source_length) {
            first_bad[static_cast<size_t>(r)] = i;
            break;
          }
        }
        has_negative[static_cast<size_t>(r)] = negative ? 1 : 0;
        return Status::OK();
      },
      options));
  for (size_t r = 0; r < plan.ranges.size(); ++r) {
    if (first_bad[r] >= 0) {
      return Status::IndexError("take index ",
                                indices[static_cast<size_t>(first_bad[r])],
                                " out of bounds (length ", source_length, ")");
    }
    plan.any_negative |= has_negative[r] != 0;
  }
  return plan;
}

/// One value as the builders store it: a bool as 0 or 1.
template <typename T>
T Stored(T value) {
  if constexpr (std::is_same_v<T, uint8_t>) {
    return value != 0;
  } else {
    return value;
  }
}

/// Gathers rows [b, e) of one fixed-width column into `dst`; returns how
/// many are valid. A null slot holds `null_value` (-1 for categorical codes,
/// 0 otherwise): the bytes a column builder's AppendNull writes.
template <typename T>
int64_t GatherFixedRange(const T* src, const uint8_t* src_valid, T null_value,
                         const std::vector<int64_t>& indices, int64_t b,
                         int64_t e, T* dst, uint8_t* vbits) {
  if (vbits == nullptr) {
    for (int64_t i = b; i < e; ++i) {
      dst[i] = Stored(src[indices[static_cast<size_t>(i)]]);
    }
    return e - b;
  }
  int64_t valid = 0;
  for (int64_t i = b; i < e; ++i) {
    const int64_t idx = indices[static_cast<size_t>(i)];
    if (idx < 0 || (src_valid != nullptr && !col::BitIsSet(src_valid, idx))) {
      dst[i] = null_value;  // cleared bit = null slot
      continue;
    }
    dst[i] = Stored(src[idx]);
    col::SetBit(vbits, i);
    ++valid;
  }
  return valid;
}

/// Output of one column of a sized gather, filled range by range.
struct ColumnGather {
  const Array* src = nullptr;
  col::BufferPtr data;      // values, or a string column's offsets
  col::BufferPtr chars;     // strings: sized once pass 1 knows the bytes
  col::BufferPtr validity;  // set when an output slot may be null
  std::vector<int64_t> valid;  // valid slots per range
  std::vector<int64_t> bytes;  // strings: characters per range
};

/// Pass 1 over rows [b, e) of one column: fixed-width values are copied;
/// a string row's byte length is staged in off[i + 1].
int64_t GatherPass1(ColumnGather* g, const std::vector<int64_t>& indices,
                    int64_t b, int64_t e, int64_t* range_bytes) {
  const Array& a = *g->src;
  const uint8_t* src_valid = a.validity_bits();
  uint8_t* vbits = g->validity != nullptr ? g->validity->mutable_data() : nullptr;
  switch (a.type()) {
    case TypeId::kInt64:
    case TypeId::kTimestamp:
      return GatherFixedRange<int64_t>(a.int64_data(), src_valid, 0, indices,
                                       b, e,
                                       g->data->mutable_data_as<int64_t>(),
                                       vbits);
    case TypeId::kFloat64:
      return GatherFixedRange<double>(a.float64_data(), src_valid, 0.0,
                                      indices, b, e,
                                      g->data->mutable_data_as<double>(),
                                      vbits);
    case TypeId::kBool:
      return GatherFixedRange<uint8_t>(a.bool_data(), src_valid, 0, indices, b,
                                       e, g->data->mutable_data(), vbits);
    case TypeId::kCategorical:
      return GatherFixedRange<int32_t>(a.codes_data(), src_valid, -1, indices,
                                       b, e,
                                       g->data->mutable_data_as<int32_t>(),
                                       vbits);
    case TypeId::kString: {
      const int64_t* src_off = a.offsets_data();
      int64_t* off = g->data->mutable_data_as<int64_t>();
      int64_t bytes = 0;
      int64_t valid = 0;
      for (int64_t i = b; i < e; ++i) {
        const int64_t idx = indices[static_cast<size_t>(i)];
        int64_t len = 0;
        if (idx >= 0 && (src_valid == nullptr || col::BitIsSet(src_valid, idx))) {
          len = src_off[idx + 1] - src_off[idx];
          if (vbits != nullptr) col::SetBit(vbits, i);
          ++valid;
        }
        off[i + 1] = len;
        bytes += len;
      }
      *range_bytes = bytes;
      return valid;
    }
  }
  return 0;
}

/// Pass 2 over rows [b, e) of one string column: staged lengths become
/// absolute offsets from the range's base, and the characters are copied
/// into their disjoint [off[i], off[i + 1]) spans.
void GatherPass2(ColumnGather* g, const std::vector<int64_t>& indices,
                 int64_t b, int64_t e, int64_t base) {
  const int64_t* src_off = g->src->offsets_data();
  const char* src_chars = g->src->chars_data();
  int64_t* off = g->data->mutable_data_as<int64_t>();
  char* dst = reinterpret_cast<char*>(g->chars->mutable_data());
  for (int64_t i = b; i < e; ++i) {
    const int64_t len = off[i + 1];
    if (len > 0) {
      std::memcpy(dst + base, src_chars + src_off[indices[static_cast<size_t>(i)]],
                  static_cast<size_t>(len));
    }
    base += len;
    off[i + 1] = base;
  }
}

/// A gathered column as an array, without a bitmap when no slot is null.
Result<ArrayPtr> FinishColumn(ColumnGather* g, int64_t n) {
  int64_t null_count = n;
  for (int64_t v : g->valid) null_count -= v;
  if (null_count == 0) g->validity.reset();
  switch (g->src->type()) {
    case TypeId::kString:
      return Array::MakeString(n, std::move(g->data), std::move(g->chars),
                               std::move(g->validity), null_count);
    case TypeId::kCategorical:
      return Array::MakeCategorical(n, std::move(g->data),
                                    g->src->dictionary(),
                                    std::move(g->validity), null_count);
    default:
      return Array::MakeFixed(g->src->type(), n, std::move(g->data),
                              std::move(g->validity), null_count);
  }
}

/// The sized gather of every column at once: exact-size output buffers,
/// no builder growth. One task per (column, morsel range) copies the
/// fixed-width values and stages string lengths; a serial prefix over the
/// range totals sizes each string column's characters; a second task set
/// writes its offsets and characters. Small tables still fan out across
/// their columns.
Result<std::vector<ArrayPtr>> GatherColumns(
    const std::vector<ArrayPtr>& columns, const std::vector<int64_t>& indices,
    const GatherPlan& plan, const sim::ParallelOptions& options) {
  const int64_t n = static_cast<int64_t>(indices.size());
  const int64_t nranges = static_cast<int64_t>(plan.ranges.size());
  std::vector<ColumnGather> gathers(columns.size());
  std::vector<size_t> strings;  // indices into `gathers`
  for (size_t c = 0; c < columns.size(); ++c) {
    ColumnGather& g = gathers[c];
    g.src = columns[c].get();
    const bool is_string = g.src->type() == TypeId::kString;
    const uint64_t bytes =
        is_string ? static_cast<uint64_t>(n + 1) * sizeof(int64_t)
                  : static_cast<uint64_t>(n) * col::ByteWidth(g.src->type());
    BENTO_ASSIGN_OR_RETURN(g.data, col::Buffer::Allocate(bytes));
    if (plan.any_negative || g.src->MayHaveNulls()) {
      BENTO_ASSIGN_OR_RETURN(g.validity, col::AllocateBitmap(n, false));
    }
    g.valid.assign(static_cast<size_t>(nranges), 0);
    if (is_string) {
      g.bytes.assign(static_cast<size_t>(nranges), 0);
      strings.push_back(c);
    }
  }

  BENTO_RETURN_NOT_OK(sim::ParallelFor(
      static_cast<int64_t>(columns.size()) * nranges,
      [&](int64_t t) {
        ColumnGather& g = gathers[static_cast<size_t>(t / nranges)];
        const size_t r = static_cast<size_t>(t % nranges);
        auto [b, e] = plan.ranges[r];
        int64_t* range_bytes = g.bytes.empty() ? nullptr : &g.bytes[r];
        g.valid[r] = GatherPass1(&g, indices, b, e, range_bytes);
        return Status::OK();
      },
      options));

  // Serial prefix over each string column's range totals.
  std::vector<std::vector<int64_t>> bases(strings.size());
  for (size_t s = 0; s < strings.size(); ++s) {
    ColumnGather& g = gathers[strings[s]];
    int64_t total = 0;
    for (int64_t bytes : g.bytes) {
      bases[s].push_back(total);
      total += bytes;
    }
    BENTO_ASSIGN_OR_RETURN(g.chars,
                           col::Buffer::Allocate(static_cast<uint64_t>(total)));
  }
  BENTO_RETURN_NOT_OK(sim::ParallelFor(
      static_cast<int64_t>(strings.size()) * nranges,
      [&](int64_t t) {
        const size_t s = static_cast<size_t>(t / nranges);
        const size_t r = static_cast<size_t>(t % nranges);
        auto [b, e] = plan.ranges[r];
        GatherPass2(&gathers[strings[s]], indices, b, e, bases[s][r]);
        return Status::OK();
      },
      options));

  std::vector<ArrayPtr> out;
  out.reserve(columns.size());
  for (ColumnGather& g : gathers) {
    BENTO_ASSIGN_OR_RETURN(auto a, FinishColumn(&g, n));
    out.push_back(std::move(a));
  }
  return out;
}

Result<TablePtr> GatherTable(const TablePtr& table,
                             const std::vector<int64_t>& indices,
                             const GatherPlan& plan,
                             const sim::ParallelOptions& options) {
  if (table->num_columns() == 0) return table;
  BENTO_ASSIGN_OR_RETURN(auto columns, GatherColumns(table->columns(), indices,
                                                     plan, options));
  return Table::Make(table->schema(), std::move(columns));
}

Result<ArrayPtr> GatherColumn(const ArrayPtr& values,
                              const std::vector<int64_t>& indices,
                              const GatherPlan& plan,
                              const sim::ParallelOptions& options) {
  BENTO_ASSIGN_OR_RETURN(auto columns,
                         GatherColumns({values}, indices, plan, options));
  return columns[0];
}

/// The rows where `mask` is true and valid, checked against `length`.
Result<std::vector<int64_t>> MaskRows(const ArrayPtr& mask, int64_t length) {
  if (mask->type() != TypeId::kBool) {
    return Status::TypeError("filter mask must be bool, got ",
                             col::TypeName(mask->type()));
  }
  if (mask->length() != length) {
    return Status::Invalid("mask length ", mask->length(),
                           " != values length ", length);
  }
  std::vector<int64_t> rows(static_cast<size_t>(length));
  rows.resize(static_cast<size_t>(simd::MaskToIndices(
      mask->bool_data(), mask->validity_bits(), length, rows.data())));
  return rows;
}

/// A filter's kept rows are in bounds and never -1, so its gather needs
/// only the morsel ranges, not PlanGather's scan.
GatherPlan FilterPlan(const std::vector<int64_t>& rows,
                      const sim::ParallelOptions& options) {
  GatherPlan plan;
  plan.ranges = sim::MorselRanges(static_cast<int64_t>(rows.size()),
                                  sim::ResolveWorkers(options));
  return plan;
}

/// Below this row count a take's fan-out (morsel tasks, their dispatch)
/// costs more than it saves, so it gathers on one worker.
constexpr int64_t kMinParallelTakeRows = 4096;

/// The bounds scan, then the sized gather of every column under `options`;
/// a table without columns is returned as it is.
Result<TablePtr> TakeRows(const TablePtr& table,
                          const std::vector<int64_t>& indices,
                          const sim::ParallelOptions& options) {
  if (table->num_columns() == 0) return table;
  BENTO_ASSIGN_OR_RETURN(auto plan,
                         PlanGather(indices, table->num_rows(), options));
  return GatherTable(table, indices, plan, options);
}

}  // namespace

Result<ArrayPtr> Filter(const ArrayPtr& values, const ArrayPtr& mask,
                        const sim::ParallelOptions& options) {
  BENTO_ASSIGN_OR_RETURN(auto rows, MaskRows(mask, values->length()));
  return GatherColumn(values, rows, FilterPlan(rows, options), options);
}

Result<TablePtr> FilterTable(const TablePtr& table, const ArrayPtr& mask,
                             const sim::ParallelOptions& options) {
  BENTO_TRACE_SPAN(kKernel, "filter");
  BENTO_ASSIGN_OR_RETURN(auto rows, MaskRows(mask, table->num_rows()));
  return GatherTable(table, rows, FilterPlan(rows, options), options);
}

Result<TablePtr> FilterTableRows(const TablePtr& table,
                                 const std::vector<int64_t>& rows,
                                 const sim::ParallelOptions& options) {
  BENTO_TRACE_SPAN(kKernel, "filter");
  if (!rows.empty() && (rows.front() < 0 || rows.back() >= table->num_rows())) {
    return Status::IndexError("filter rows [", rows.front(), ", ", rows.back(),
                              "] outside a table of ", table->num_rows(),
                              " rows");
  }
  return GatherTable(table, rows, FilterPlan(rows, options), options);
}

Result<ArrayPtr> Take(const ArrayPtr& values,
                      const std::vector<int64_t>& indices) {
  return TakeParallel(values, indices, sim::OneWorker());
}

Result<TablePtr> TakeTable(const TablePtr& table,
                           const std::vector<int64_t>& indices) {
  return TakeRows(table, indices, sim::OneWorker());
}

Result<ArrayPtr> TakeParallel(const ArrayPtr& values,
                              const std::vector<int64_t>& indices,
                              const sim::ParallelOptions& options) {
  const sim::ParallelOptions run =
      static_cast<int64_t>(indices.size()) < kMinParallelTakeRows
          ? sim::OneWorker()
          : options;
  BENTO_ASSIGN_OR_RETURN(auto plan,
                         PlanGather(indices, values->length(), run));
  return GatherColumn(values, indices, plan, run);
}

Result<TablePtr> TakeTableParallel(const TablePtr& table,
                                   const std::vector<int64_t>& indices,
                                   const sim::ParallelOptions& options) {
  if (static_cast<int64_t>(indices.size()) < kMinParallelTakeRows) {
    return TakeTable(table, indices);
  }
  BENTO_TRACE_SPAN(kKernel, "take.parallel");
  return TakeRows(table, indices, options);
}

}  // namespace bento::kern
