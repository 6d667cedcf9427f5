#include "kernels/null_ops.h"

#include <cmath>

#include "columnar/builder.h"
#include "kernels/selection.h"
#include "simd/simd.h"

namespace bento::kern {

Result<ArrayPtr> IsNull(const ArrayPtr& values, NullProbe probe) {
  const int64_t n = values->length();

  if (probe == NullProbe::kMetadata) {
    // Fast path straight off the validity bitmap; a column without a bitmap
    // is all-valid and needs no per-row work beyond emitting falses.
    col::BoolBuilder out;
    out.Reserve(n);
    const uint8_t* bits = values->validity_bits();
    if (bits == nullptr || values->null_count() == 0) {
      for (int64_t i = 0; i < n; ++i) out.Append(false);
    } else {
      for (int64_t i = 0; i < n; ++i) out.Append(!col::BitIsSet(bits, i));
    }
    return out.Finish();
  }

  // Scan path: re-derive nullness from the values themselves, the way a
  // sentinel-based representation must (floats: NaN test; other types:
  // per-slot probe through the generic IsNull accessor).
  col::BoolBuilder out;
  out.Reserve(n);
  if (values->type() == TypeId::kFloat64) {
    const double* data = values->float64_data();
    for (int64_t i = 0; i < n; ++i) {
      out.Append(std::isnan(data[i]) || values->IsNull(i));
    }
  } else if (values->type() == TypeId::kString) {
    // Sentinel model: an object-dtype scan dereferences every element, so
    // touch the payload bytes of valid slots before deciding.
    uint64_t touched = 0;
    for (int64_t i = 0; i < n; ++i) {
      const bool is_null = values->IsNull(i);
      if (!is_null) {
        std::string_view v = values->GetView(i);
        if (!v.empty()) touched += static_cast<unsigned char>(v.front());
      }
      out.Append(is_null);
    }
    // Keep the compiler from eliding the touches.
    if (touched == UINT64_MAX) return Status::Invalid("unreachable");
  } else {
    for (int64_t i = 0; i < n; ++i) out.Append(values->IsNull(i));
  }
  return out.Finish();
}

Result<std::vector<int64_t>> NullCounts(const TablePtr& table,
                                        NullProbe probe) {
  std::vector<int64_t> counts;
  counts.reserve(static_cast<size_t>(table->num_columns()));
  for (const ArrayPtr& c : table->columns()) {
    if (probe == NullProbe::kMetadata) {
      counts.push_back(c->null_count());
    } else {
      BENTO_ASSIGN_OR_RETURN(auto mask, IsNull(c, NullProbe::kScan));
      int64_t count = 0;
      const uint8_t* data = mask->bool_data();
      for (int64_t i = 0; i < mask->length(); ++i) count += data[i] != 0;
      counts.push_back(count);
    }
  }
  return counts;
}

Result<ArrayPtr> FillNull(const ArrayPtr& values, const Scalar& fill) {
  if (fill.is_null() || values->null_count() == 0) return values;
  const int64_t n = values->length();
  switch (values->type()) {
    case TypeId::kInt64:
    case TypeId::kTimestamp: {
      BENTO_ASSIGN_OR_RETURN(int64_t fv, fill.AsInt());
      col::Int64Builder out;
      out.Reserve(n);
      for (int64_t i = 0; i < n; ++i) {
        out.Append(values->IsValid(i) ? values->int64_data()[i] : fv);
      }
      BENTO_ASSIGN_OR_RETURN(auto a, out.Finish());
      if (values->type() == TypeId::kTimestamp) {
        return Array::MakeFixed(TypeId::kTimestamp, a->length(),
                                a->data_buffer(), nullptr, 0);
      }
      return a;
    }
    case TypeId::kFloat64: {
      BENTO_ASSIGN_OR_RETURN(double fv, fill.AsDouble());
      col::Float64Builder out;
      out.Reserve(n);
      for (int64_t i = 0; i < n; ++i) {
        out.Append(values->IsValid(i) ? values->float64_data()[i] : fv);
      }
      return out.Finish();
    }
    case TypeId::kBool: {
      if (fill.kind() != Scalar::Kind::kBool) {
        return Status::TypeError("fill value for bool column must be bool");
      }
      col::BoolBuilder out;
      out.Reserve(n);
      for (int64_t i = 0; i < n; ++i) {
        out.Append(values->IsValid(i) ? values->bool_data()[i] != 0
                                      : fill.bool_value());
      }
      return out.Finish();
    }
    case TypeId::kString: {
      if (fill.kind() != Scalar::Kind::kString) {
        return Status::TypeError("fill value for string column must be string");
      }
      col::StringBuilder out;
      out.Reserve(n);
      for (int64_t i = 0; i < n; ++i) {
        out.Append(values->IsValid(i) ? values->GetView(i)
                                      : std::string_view(fill.string_value()));
      }
      return out.Finish();
    }
    case TypeId::kCategorical: {
      if (fill.kind() != Scalar::Kind::kString) {
        return Status::TypeError(
            "fill value for categorical column must be string");
      }
      // Extend the dictionary when the fill value is unseen.
      auto dict = std::make_shared<std::vector<std::string>>(
          values->dictionary() != nullptr ? *values->dictionary()
                                          : std::vector<std::string>{});
      int32_t fill_code = -1;
      for (size_t k = 0; k < dict->size(); ++k) {
        if ((*dict)[k] == fill.string_value()) {
          fill_code = static_cast<int32_t>(k);
          break;
        }
      }
      if (fill_code < 0) {
        fill_code = static_cast<int32_t>(dict->size());
        dict->push_back(fill.string_value());
      }
      col::CategoricalBuilder out;
      for (int64_t i = 0; i < n; ++i) {
        out.Append(values->IsValid(i) ? values->codes_data()[i] : fill_code);
      }
      return out.Finish(std::move(dict));
    }
  }
  return Status::Invalid("unsupported type in FillNull");
}

Status MeanFold::Add(const ArrayPtr& values) {
  if (values->type() != TypeId::kFloat64 && values->type() != TypeId::kInt64) {
    return Status::TypeError("mean fill requires a numeric column");
  }
  for (int64_t i = 0; i < values->length(); ++i) {
    if (!values->IsValid(i)) continue;
    const double v = values->type() == TypeId::kFloat64
                         ? values->float64_data()[i]
                         : static_cast<double>(values->int64_data()[i]);
    if (std::isnan(v)) continue;
    sum_ += v;
    ++count_;
  }
  return Status::OK();
}

Result<ArrayPtr> FillNullWithMean(const ArrayPtr& values) {
  MeanFold fold;
  BENTO_RETURN_NOT_OK(fold.Add(values));
  if (values->type() == TypeId::kInt64) {
    return FillNull(values, Scalar::Int(static_cast<int64_t>(fold.Mean())));
  }
  return FillNull(values, Scalar::Double(fold.Mean()));
}

Result<TablePtr> DropNullRows(const TablePtr& table,
                              const std::vector<std::string>& subset,
                              const sim::ParallelOptions& options) {
  std::vector<int> column_indices;
  if (subset.empty()) {
    for (int i = 0; i < table->num_columns(); ++i) column_indices.push_back(i);
  } else {
    for (const std::string& name : subset) {
      int i = table->schema()->IndexOf(name);
      if (i < 0) return Status::KeyError("no column named '", name, "'");
      column_indices.push_back(i);
    }
  }

  // A row stays when its bit is set in every subset column's validity
  // bitmap (a column without one has no nulls). `keep` is whole 64-bit
  // words; the bits past the last row, which a byte-aligned slice shares
  // with its parent, are masked off when the words turn into row indices.
  const int64_t n = table->num_rows();
  const int64_t words = (n + 63) / 64;
  std::vector<uint64_t> keep(static_cast<size_t>(words), ~uint64_t{0});
  uint8_t* keep_bytes = reinterpret_cast<uint8_t*>(keep.data());
  for (int c : column_indices) {
    const uint8_t* bits = table->column(c)->validity_bits();
    if (bits != nullptr) {
      simd::AndBytes(keep_bytes, bits, keep_bytes, col::BitmapBytes(n));
    }
  }
  std::vector<int64_t> rows;
  rows.reserve(static_cast<size_t>(n));
  for (int64_t w = 0; w < words; ++w) {
    uint64_t word = keep[static_cast<size_t>(w)];
    if (w == words - 1 && (n & 63) != 0) word &= (uint64_t{1} << (n & 63)) - 1;
    for (; word != 0; word &= word - 1) {
      rows.push_back(w * 64 + __builtin_ctzll(word));
    }
  }
  return FilterTableRows(table, rows, options);
}

}  // namespace bento::kern
