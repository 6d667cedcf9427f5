#include "kernels/stats.h"

#include <algorithm>
#include <cmath>

#include "columnar/builder.h"
#include "simd/simd.h"

namespace bento::kern {

namespace {

struct Moments {
  double sum = 0.0;
  double sum_sq = 0.0;
  double min = 0.0;
  double max = 0.0;
  int64_t count = 0;

  void Add(double v) {
    if (count == 0) {
      min = v;
      max = v;
    } else {
      if (v < min) min = v;
      if (v > max) max = v;
    }
    sum += v;
    sum_sq += v * v;
    ++count;
  }

  void Merge(const Moments& o) {
    if (o.count == 0) return;
    if (count == 0) {
      *this = o;
      return;
    }
    min = std::min(min, o.min);
    max = std::max(max, o.max);
    sum += o.sum;
    sum_sq += o.sum_sq;
    count += o.count;
  }
};

Status CheckAggregatable(const ArrayPtr& values) {
  switch (values->type()) {
    case TypeId::kInt64:
    case TypeId::kFloat64:
    case TypeId::kBool:
    case TypeId::kTimestamp:
      return Status::OK();
    default:
      return Status::TypeError("cannot aggregate ",
                               col::TypeName(values->type()), " column");
  }
}

double CellValue(const Array& a, int64_t i) {
  switch (a.type()) {
    case TypeId::kFloat64:
      return a.float64_data()[i];
    case TypeId::kBool:
      return a.bool_data()[i] != 0 ? 1.0 : 0.0;
    default:
      return static_cast<double>(a.int64_data()[i]);
  }
}

Moments ComputeMoments(const Array& a, int64_t begin, int64_t end) {
  // Numeric columns run through the SIMD moments kernels, whose fixed
  // 4-lane striped summation makes every level (and every worker split)
  // produce the identical floating-point result.
  simd::MomentsPart p;
  switch (a.type()) {
    case TypeId::kFloat64:
      p = simd::MomentsF64(a.float64_data(), a.validity_bits(), begin, end);
      break;
    case TypeId::kInt64:
    case TypeId::kTimestamp:
      p = simd::MomentsI64(a.int64_data(), a.validity_bits(), begin, end);
      break;
    default: {
      // kBool (and anything else CellValue understands) stays scalar.
      Moments m;
      for (int64_t i = begin; i < end; ++i) {
        if (!a.IsValid(i)) continue;
        double v = CellValue(a, i);
        if (std::isnan(v)) continue;
        m.Add(v);
      }
      return m;
    }
  }
  Moments m;
  m.sum = p.sum;
  m.sum_sq = p.sum_sq;
  m.count = p.count;
  if (p.count > 0) {
    m.min = p.min;
    m.max = p.max;
  }
  return m;
}

Result<Scalar> MomentsToScalar(const Moments& m, AggKind kind) {
  if (kind == AggKind::kCount) return Scalar::Int(m.count);
  if (m.count == 0) return Scalar::Null();
  switch (kind) {
    case AggKind::kSum:
      return Scalar::Double(m.sum);
    case AggKind::kMean:
      return Scalar::Double(m.sum / static_cast<double>(m.count));
    case AggKind::kMin:
      return Scalar::Double(m.min);
    case AggKind::kMax:
      return Scalar::Double(m.max);
    case AggKind::kStd: {
      if (m.count < 2) return Scalar::Null();
      const double n = static_cast<double>(m.count);
      double var = (m.sum_sq - m.sum * m.sum / n) / (n - 1.0);
      return Scalar::Double(var > 0.0 ? std::sqrt(var) : 0.0);
    }
    case AggKind::kSumSq:
      return Scalar::Double(m.sum_sq);
    case AggKind::kCount:
      break;
  }
  return Scalar::Null();
}

/// The valid, non-NaN values of `values` in ascending order: the input of
/// every exact quantile.
std::vector<double> SortedValues(const Array& values) {
  std::vector<double> data;
  data.reserve(static_cast<size_t>(values.length()));
  for (int64_t i = 0; i < values.length(); ++i) {
    if (!values.IsValid(i)) continue;
    double v = CellValue(values, i);
    if (!std::isnan(v)) data.push_back(v);
  }
  std::sort(data.begin(), data.end());
  return data;
}

/// Linearly interpolated quantile of non-empty sorted `data`.
double QuantileOfSorted(const std::vector<double>& data, double q) {
  const double pos = q * static_cast<double>(data.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, data.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return data[lo] * (1.0 - frac) + data[hi] * frac;
}

}  // namespace

Result<Scalar> Aggregate(const ArrayPtr& values, AggKind kind) {
  BENTO_RETURN_NOT_OK(CheckAggregatable(values));
  return MomentsToScalar(ComputeMoments(*values, 0, values->length()), kind);
}

Result<Scalar> AggregateParallel(const ArrayPtr& values, AggKind kind,
                                 const sim::ParallelOptions& options) {
  BENTO_RETURN_NOT_OK(CheckAggregatable(values));
  int workers = options.max_workers;
  if (workers <= 0) {
    workers = sim::Session::Current() != nullptr
                  ? sim::Session::Current()->cores()
                  : 1;
  }
  auto ranges = sim::SplitRange(values->length(), workers, 4096);
  if (ranges.size() <= 1) return Aggregate(values, kind);

  std::vector<Moments> partials(ranges.size());
  BENTO_RETURN_NOT_OK(sim::ParallelFor(
      static_cast<int64_t>(ranges.size()),
      [&](int64_t r) {
        auto [b, e] = ranges[static_cast<size_t>(r)];
        partials[static_cast<size_t>(r)] = ComputeMoments(*values, b, e);
        return Status::OK();
      },
      options));
  Moments total;
  for (const Moments& m : partials) total.Merge(m);
  return MomentsToScalar(total, kind);
}

Result<double> Quantile(const ArrayPtr& values, double q) {
  BENTO_RETURN_NOT_OK(CheckAggregatable(values));
  if (q < 0.0 || q > 1.0) return Status::Invalid("quantile q must be in [0,1]");
  const std::vector<double> data = SortedValues(*values);
  if (data.empty()) return Status::Invalid("quantile of empty column");
  return QuantileOfSorted(data, q);
}

Result<double> QuantileApprox(const ArrayPtr& values, double q) {
  BENTO_RETURN_NOT_OK(CheckAggregatable(values));
  if (q < 0.0 || q > 1.0) return Status::Invalid("quantile q must be in [0,1]");

  Moments m = ComputeMoments(*values, 0, values->length());
  if (m.count == 0) return Status::Invalid("quantile of empty column");
  if (m.min == m.max) return m.min;

  constexpr int kBins = 2048;
  std::vector<int64_t> bins(kBins, 0);
  const double width = (m.max - m.min) / kBins;
  for (int64_t i = 0; i < values->length(); ++i) {
    if (!values->IsValid(i)) continue;
    double v = CellValue(*values, i);
    if (std::isnan(v)) continue;
    int b = static_cast<int>((v - m.min) / width);
    if (b >= kBins) b = kBins - 1;
    if (b < 0) b = 0;
    ++bins[static_cast<size_t>(b)];
  }
  const double target = q * static_cast<double>(m.count - 1);
  int64_t seen = 0;
  for (int b = 0; b < kBins; ++b) {
    const int64_t in_bin = bins[static_cast<size_t>(b)];
    if (static_cast<double>(seen + in_bin) > target) {
      // Interpolate inside the bin assuming uniform spread.
      const double frac =
          in_bin > 0 ? (target - static_cast<double>(seen)) /
                           static_cast<double>(in_bin)
                     : 0.0;
      return m.min + (static_cast<double>(b) + frac) * width;
    }
    seen += in_bin;
  }
  return m.max;
}

namespace {

struct ColumnStats {
  bool numeric = false;
  std::string name;
  Moments m;
  double p25 = 0, p50 = 0, p75 = 0;
  bool std_null = true;
  double std_value = 0;
};

Result<ColumnStats> DescribeOneColumn(const col::Field& field,
                                      const ArrayPtr& values,
                                      bool approx_quantiles) {
  ColumnStats cs;
  cs.name = field.name;
  if (!col::IsNumeric(field.type) && field.type != TypeId::kBool) return cs;
  cs.numeric = true;
  cs.m = ComputeMoments(*values, 0, values->length());
  if (cs.m.count == 0) return cs;
  Scalar std_s = MomentsToScalar(cs.m, AggKind::kStd).ValueOrDie();
  cs.std_null = std_s.is_null();
  if (!cs.std_null) cs.std_value = std_s.double_value();
  if (approx_quantiles) {
    BENTO_ASSIGN_OR_RETURN(cs.p25, QuantileApprox(values, 0.25));
    BENTO_ASSIGN_OR_RETURN(cs.p50, QuantileApprox(values, 0.50));
    BENTO_ASSIGN_OR_RETURN(cs.p75, QuantileApprox(values, 0.75));
    return cs;
  }
  // One sort serves all three exact quantiles (non-empty: m.count > 0).
  const std::vector<double> sorted = SortedValues(*values);
  cs.p25 = QuantileOfSorted(sorted, 0.25);
  cs.p50 = QuantileOfSorted(sorted, 0.50);
  cs.p75 = QuantileOfSorted(sorted, 0.75);
  return cs;
}

Result<TablePtr> AssembleDescribe(const std::vector<ColumnStats>& stats) {
  col::StringBuilder name_col;
  col::Float64Builder count_col, mean_col, std_col, min_col, p25_col, p50_col,
      p75_col, max_col;
  for (const ColumnStats& cs : stats) {
    if (!cs.numeric) continue;
    name_col.Append(cs.name);
    count_col.Append(static_cast<double>(cs.m.count));
    if (cs.m.count == 0) {
      mean_col.AppendNull();
      std_col.AppendNull();
      min_col.AppendNull();
      p25_col.AppendNull();
      p50_col.AppendNull();
      p75_col.AppendNull();
      max_col.AppendNull();
      continue;
    }
    mean_col.Append(cs.m.sum / static_cast<double>(cs.m.count));
    if (cs.std_null) {
      std_col.AppendNull();
    } else {
      std_col.Append(cs.std_value);
    }
    min_col.Append(cs.m.min);
    p25_col.Append(cs.p25);
    p50_col.Append(cs.p50);
    p75_col.Append(cs.p75);
    max_col.Append(cs.m.max);
  }
  std::vector<col::Field> fields = {
      {"column", TypeId::kString},   {"count", TypeId::kFloat64},
      {"mean", TypeId::kFloat64},    {"std", TypeId::kFloat64},
      {"min", TypeId::kFloat64},     {"25%", TypeId::kFloat64},
      {"50%", TypeId::kFloat64},     {"75%", TypeId::kFloat64},
      {"max", TypeId::kFloat64},
  };
  std::vector<ArrayPtr> columns;
  BENTO_ASSIGN_OR_RETURN(auto a0, name_col.Finish());
  columns.push_back(a0);
  for (col::Float64Builder* b :
       {&count_col, &mean_col, &std_col, &min_col, &p25_col, &p50_col,
        &p75_col, &max_col}) {
    BENTO_ASSIGN_OR_RETURN(auto a, b->Finish());
    columns.push_back(a);
  }
  return Table::Make(std::make_shared<col::Schema>(std::move(fields)),
                     std::move(columns));
}

}  // namespace

Result<TablePtr> Describe(const TablePtr& table, bool approx_quantiles) {
  std::vector<ColumnStats> stats;
  for (int c = 0; c < table->num_columns(); ++c) {
    BENTO_ASSIGN_OR_RETURN(
        ColumnStats cs, DescribeOneColumn(table->schema()->field(c),
                                          table->column(c), approx_quantiles));
    stats.push_back(std::move(cs));
  }
  return AssembleDescribe(stats);
}

Result<TablePtr> DescribeParallel(const TablePtr& table, bool approx_quantiles,
                                  const sim::ParallelOptions& options) {
  std::vector<ColumnStats> stats(static_cast<size_t>(table->num_columns()));
  BENTO_RETURN_NOT_OK(sim::ParallelFor(
      table->num_columns(),
      [&](int64_t c) -> Status {
        BENTO_ASSIGN_OR_RETURN(
            stats[static_cast<size_t>(c)],
            DescribeOneColumn(table->schema()->field(static_cast<int>(c)),
                              table->column(static_cast<int>(c)),
                              approx_quantiles));
        return Status::OK();
      },
      options));
  return AssembleDescribe(stats);
}

}  // namespace bento::kern
