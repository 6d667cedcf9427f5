#include "kernels/stats.h"

#include <algorithm>
#include <bit>
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
    case AggKind::kCount:
      break;
  }
  return Scalar::Null();
}

constexpr uint64_t kSignBit = uint64_t{1} << 63;

/// The order-preserving image of a double as an unsigned integer: a strict
/// total order with -0.0 < +0.0 (NaN never reaches it).
uint64_t OrderKey(double v) {
  const uint64_t bits = std::bit_cast<uint64_t>(v);
  return bits >> 63 != 0 ? ~bits : bits | kSignBit;
}

double FromOrderKey(uint64_t key) {
  return std::bit_cast<double>(key >> 63 != 0 ? key & ~kSignBit : ~key);
}

/// The order keys of the valid, non-NaN values of `values`: the one copy
/// every exact quantile selects from.
std::vector<uint64_t> OrderKeys(const Array& values) {
  std::vector<uint64_t> keys;
  keys.reserve(static_cast<size_t>(values.length()));
  for (int64_t i = 0; i < values.length(); ++i) {
    if (!values.IsValid(i)) continue;
    const double v = CellValue(values, i);
    if (!std::isnan(v)) keys.push_back(OrderKey(v));
  }
  return keys;
}

/// Selects the order statistics at `ranks` (ascending, inside [first,
/// last)) into place: the middle one over the whole range, then each half's
/// inside that half.
void SelectRanks(uint64_t* keys, size_t first, size_t last,
                 const size_t* ranks, size_t nranks) {
  if (nranks == 0) return;
  const size_t mid = nranks / 2;
  const size_t k = ranks[mid];
  std::nth_element(keys + first, keys + k, keys + last);
  SelectRanks(keys, first, k, ranks, mid);
  SelectRanks(keys, k + 1, last, ranks + mid + 1, nranks - mid - 1);
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

Result<std::vector<double>> Quantiles(const ArrayPtr& values,
                                      const std::vector<double>& qs) {
  BENTO_RETURN_NOT_OK(CheckAggregatable(values));
  for (double q : qs) {
    if (!(q >= 0.0 && q <= 1.0)) {
      return Status::Invalid("quantile q must be in [0,1]");
    }
  }
  std::vector<uint64_t> keys = OrderKeys(*values);
  const size_t n = keys.size();
  if (n == 0) return Status::Invalid("quantile of empty column");
  // q lies at q * (n - 1), between the order statistics of its floor (the
  // lower rank) and the next one.
  std::vector<size_t> ranks;  // distinct lower ranks, ascending
  for (double q : qs) {
    const size_t r = static_cast<size_t>(q * static_cast<double>(n - 1));
    const auto at = std::lower_bound(ranks.begin(), ranks.end(), r);
    if (at == ranks.end() || *at != r) ranks.insert(at, r);
  }
  SelectRanks(keys.data(), 0, n, ranks.data(), ranks.size());
  std::vector<double> out;
  for (double q : qs) {
    const double pos = q * static_cast<double>(n - 1);
    const size_t lo = static_cast<size_t>(pos);
    const double frac = pos - static_cast<double>(lo);
    // On an order statistic the result is that statistic: interpolating
    // would turn a +inf neighbour into inf * 0 = NaN.
    const double low = FromOrderKey(keys[lo]);
    if (frac == 0.0) {
      out.push_back(low);
      continue;
    }
    // The upper neighbour is the minimum of the part above lo, which ends
    // at the next selected rank. When lo + 1 is that rank the part is empty
    // and min_element returns its end: the key at lo + 1.
    const auto next = std::upper_bound(ranks.begin(), ranks.end(), lo);
    const uint64_t* high = std::min_element(
        keys.data() + lo + 1, keys.data() + (next == ranks.end() ? n : *next));
    out.push_back(low * (1.0 - frac) + FromOrderKey(*high) * frac);
  }
  return out;
}

Result<double> Quantile(const ArrayPtr& values, double q) {
  BENTO_ASSIGN_OR_RETURN(auto out, Quantiles(values, {q}));
  return out[0];
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
  BENTO_ASSIGN_OR_RETURN(auto q, Quantiles(values, {0.25, 0.50, 0.75}));
  cs.p25 = q[0];
  cs.p50 = q[1];
  cs.p75 = q[2];
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
