#include "src/fingerprint.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string_view>

namespace perfbench {

using bento::col::Array;
using bento::col::TypeId;

namespace {

template <typename... Args>
std::string Concat(const Args&... args) {
  std::ostringstream oss;
  (oss << ... << args);
  return oss.str();
}

/// FNV-1a over the bytes, then a splitmix64 finalizer so that the wrapping
/// sum over many values does not cancel structured low bits.
uint64_t HashString(std::string_view s) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return h;
}

void AddNumber(ColumnPrint* out, long double v) {
  out->sum += v;
  out->abs_sum += std::fabs(v);
}

ColumnPrint PrintColumn(const std::string& name, const Array& a) {
  ColumnPrint out;
  out.name = name;
  const int64_t n = a.length();
  switch (a.type()) {
    case TypeId::kInt64:
    case TypeId::kTimestamp:
      out.numeric = true;
      for (int64_t i = 0; i < n; ++i) {
        if (a.IsNull(i)) {
          ++out.nulls;
        } else {
          AddNumber(&out, static_cast<long double>(a.int64_data()[i]));
        }
      }
      break;
    case TypeId::kFloat64:
      out.numeric = true;
      for (int64_t i = 0; i < n; ++i) {
        const double v = a.float64_data()[i];
        if (a.IsNull(i) || std::isnan(v)) {
          ++out.nulls;
        } else {
          AddNumber(&out, static_cast<long double>(v));
        }
      }
      break;
    case TypeId::kBool:
      out.numeric = true;
      for (int64_t i = 0; i < n; ++i) {
        if (a.IsNull(i)) {
          ++out.nulls;
        } else {
          AddNumber(&out, a.bool_data()[i] != 0 ? 1.0L : 0.0L);
        }
      }
      break;
    case TypeId::kString:
      for (int64_t i = 0; i < n; ++i) {
        if (a.IsNull(i)) {
          ++out.nulls;
        } else {
          out.string_hash += HashString(a.GetView(i));
        }
      }
      break;
    case TypeId::kCategorical: {
      const auto& dict = *a.dictionary();
      for (int64_t i = 0; i < n; ++i) {
        if (a.IsNull(i)) {
          ++out.nulls;
        } else {
          out.string_hash +=
              HashString(dict[static_cast<size_t>(a.codes_data()[i])]);
        }
      }
      break;
    }
  }
  return out;
}

}  // namespace

Fingerprint TakeFingerprint(const bento::col::Table& table) {
  Fingerprint out;
  out.rows = table.num_rows();
  for (int c = 0; c < table.num_columns(); ++c) {
    out.columns.push_back(
        PrintColumn(table.schema()->field(c).name, *table.column(c)));
  }
  return out;
}

std::string CompareFingerprints(const Fingerprint& expected,
                                const Fingerprint& actual,
                                double rel_tolerance) {
  if (expected.rows != actual.rows) {
    return Concat("row count ", actual.rows, " != expected ",
                  expected.rows);
  }
  if (expected.columns.size() != actual.columns.size()) {
    return Concat("column count ", actual.columns.size(),
                  " != expected ", expected.columns.size());
  }
  for (size_t c = 0; c < expected.columns.size(); ++c) {
    const ColumnPrint& e = expected.columns[c];
    const ColumnPrint& a = actual.columns[c];
    if (e.name != a.name) {
      return Concat("column ", c, " is '", a.name, "', expected '",
                    e.name, "'");
    }
    if (e.nulls != a.nulls) {
      return Concat("column '", e.name, "' has ", a.nulls,
                    " nulls, expected ", e.nulls);
    }
    if (e.numeric != a.numeric) {
      return Concat("column '", e.name, "' changed between numeric ",
                    "and string");
    }
    if (e.numeric) {
      const long double scale = std::max(e.abs_sum, a.abs_sum);
      if (std::fabs(e.sum - a.sum) > rel_tolerance * scale) {
        return Concat("column '", e.name, "' sums to ",
                      static_cast<double>(a.sum), ", expected ",
                      static_cast<double>(e.sum));
      }
    } else if (e.string_hash != a.string_hash) {
      return Concat("column '", e.name, "' string hash differs");
    }
  }
  return "";
}

}  // namespace perfbench
