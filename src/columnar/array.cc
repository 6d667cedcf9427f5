#include "columnar/array.h"

#include <cinttypes>
#include <cstdio>

#include "util/string_util.h"

namespace bento::col {

namespace {

Status CheckValidity(const BufferPtr& validity, int64_t length) {
  if (validity != nullptr &&
      validity->size() < static_cast<uint64_t>(BitmapBytes(length))) {
    return Status::Invalid("validity bitmap too small for length ", length);
  }
  return Status::OK();
}

}  // namespace

Result<ArrayPtr> Array::MakeFixed(TypeId type, int64_t length, BufferPtr data,
                                  BufferPtr validity, int64_t null_count) {
  if (type == TypeId::kString) {
    return Status::Invalid("MakeFixed cannot build string arrays");
  }
  const uint64_t needed =
      static_cast<uint64_t>(length) * static_cast<uint64_t>(ByteWidth(type));
  if (length > 0 && (data == nullptr || data->size() < needed)) {
    return Status::Invalid("data buffer too small: need ", needed, " bytes");
  }
  BENTO_RETURN_NOT_OK(CheckValidity(validity, length));
  auto a = std::shared_ptr<Array>(new Array());
  a->type_ = type;
  a->length_ = length;
  a->data_ = std::move(data);
  a->validity_ = std::move(validity);
  a->null_count_ = a->validity_ == nullptr ? 0 : null_count;
  return a;
}

Result<ArrayPtr> Array::MakeString(int64_t length, BufferPtr offsets,
                                   BufferPtr chars, BufferPtr validity,
                                   int64_t null_count) {
  if (offsets == nullptr ||
      offsets->size() < static_cast<uint64_t>(length + 1) * sizeof(int64_t)) {
    return Status::Invalid("offsets buffer too small for ", length, " strings");
  }
  BENTO_RETURN_NOT_OK(CheckValidity(validity, length));
  auto a = std::shared_ptr<Array>(new Array());
  a->type_ = TypeId::kString;
  a->length_ = length;
  a->offsets_ = std::move(offsets);
  a->data_ = chars != nullptr ? std::move(chars) : Buffer::Wrap("", 0);
  a->validity_ = std::move(validity);
  a->null_count_ = a->validity_ == nullptr ? 0 : null_count;
  return a;
}

Result<ArrayPtr> Array::MakeCategorical(int64_t length, BufferPtr codes,
                                        Dictionary dictionary,
                                        BufferPtr validity,
                                        int64_t null_count) {
  if (length > 0 && (codes == nullptr ||
                     codes->size() < static_cast<uint64_t>(length) * 4)) {
    return Status::Invalid("codes buffer too small");
  }
  BENTO_RETURN_NOT_OK(CheckValidity(validity, length));
  auto a = std::shared_ptr<Array>(new Array());
  a->type_ = TypeId::kCategorical;
  a->length_ = length;
  a->data_ = std::move(codes);
  a->dictionary_ = std::move(dictionary);
  a->validity_ = std::move(validity);
  a->null_count_ = a->validity_ == nullptr ? 0 : null_count;
  return a;
}

Result<ArrayPtr> Array::MakeAllNull(TypeId type, int64_t length) {
  BENTO_ASSIGN_OR_RETURN(auto validity, AllocateBitmap(length, false));
  if (type == TypeId::kString) {
    BENTO_ASSIGN_OR_RETURN(
        auto offsets,
        Buffer::Allocate(static_cast<uint64_t>(length + 1) * sizeof(int64_t)));
    return MakeString(length, std::move(offsets), nullptr, std::move(validity),
                      length);
  }
  BENTO_ASSIGN_OR_RETURN(
      auto data, Buffer::Allocate(static_cast<uint64_t>(length) *
                                  static_cast<uint64_t>(ByteWidth(type))));
  if (type == TypeId::kCategorical) {
    return MakeCategorical(length, std::move(data),
                           std::make_shared<std::vector<std::string>>(),
                           std::move(validity), length);
  }
  return MakeFixed(type, length, std::move(data), std::move(validity), length);
}

int64_t Array::null_count() const {
  int64_t cached = null_count_.load(std::memory_order_relaxed);
  if (cached == kUnknownNullCount) {
    cached = validity_ == nullptr
                 ? 0
                 : length_ - CountSetBits(validity_->data(), length_);
    null_count_.store(cached, std::memory_order_relaxed);
  }
  return cached;
}

std::string Array::ValueToString(int64_t i) const {
  if (IsNull(i)) return "null";
  switch (type_) {
    case TypeId::kInt64:
      return std::to_string(int64_data()[i]);
    case TypeId::kFloat64:
      return FormatDouble(float64_data()[i]);
    case TypeId::kBool:
      return bool_data()[i] != 0 ? "true" : "false";
    case TypeId::kString:
      return std::string(GetView(i));
    case TypeId::kTimestamp: {
      // ISO-8601 seconds resolution for display.
      int64_t micros = int64_data()[i];
      time_t secs = static_cast<time_t>(micros / 1000000);
      struct tm tm_utc;
      gmtime_r(&secs, &tm_utc);
      char buf[72];  // fits all six fields at full int width: never truncates
      std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d %02d:%02d:%02d",
                    tm_utc.tm_year + 1900, tm_utc.tm_mon + 1, tm_utc.tm_mday,
                    tm_utc.tm_hour, tm_utc.tm_min, tm_utc.tm_sec);
      return buf;
    }
    case TypeId::kCategorical: {
      int32_t code = codes_data()[i];
      if (dictionary_ != nullptr && code >= 0 &&
          static_cast<size_t>(code) < dictionary_->size()) {
        return (*dictionary_)[static_cast<size_t>(code)];
      }
      return std::to_string(code);
    }
  }
  return "?";
}

Scalar Array::GetScalar(int64_t i) const {
  if (IsNull(i)) return Scalar::Null();
  switch (type_) {
    case TypeId::kInt64:
      return Scalar::Int(int64_data()[i]);
    case TypeId::kFloat64:
      return Scalar::Double(float64_data()[i]);
    case TypeId::kBool:
      return Scalar::Bool(bool_data()[i] != 0);
    case TypeId::kString:
      return Scalar::Str(std::string(GetView(i)));
    case TypeId::kTimestamp:
      return Scalar::Timestamp(int64_data()[i]);
    case TypeId::kCategorical:
      return Scalar::Str(
          (*dictionary_)[static_cast<size_t>(codes_data()[i])]);
  }
  return Scalar::Null();
}

Result<ArrayPtr> Array::Slice(int64_t offset, int64_t length) const {
  if (offset < 0 || length < 0 || offset + length > length_) {
    return Status::IndexError("slice [", offset, ", ", offset + length,
                              ") out of bounds for length ", length_);
  }

  // Validity: zero-copy only at byte alignment; otherwise repack.
  BufferPtr validity;
  int64_t null_count = kUnknownNullCount;
  if (validity_ != nullptr) {
    if ((offset & 7) == 0) {
      validity = Buffer::Slice(validity_, static_cast<uint64_t>(offset >> 3),
                               static_cast<uint64_t>(BitmapBytes(length)));
    } else {
      BENTO_ASSIGN_OR_RETURN(auto packed, AllocateBitmap(length, false));
      uint8_t* bits = packed->mutable_data();
      for (int64_t i = 0; i < length; ++i) {
        if (BitIsSet(validity_->data(), offset + i)) SetBit(bits, i);
      }
      validity = std::move(packed);
    }
  } else {
    null_count = 0;
  }

  auto slice_fixed = [&](int width) -> BufferPtr {
    return Buffer::Slice(data_,
                         static_cast<uint64_t>(offset) * static_cast<uint64_t>(width),
                         static_cast<uint64_t>(length) * static_cast<uint64_t>(width));
  };

  switch (type_) {
    case TypeId::kString: {
      BufferPtr offsets = Buffer::Slice(
          offsets_, static_cast<uint64_t>(offset) * sizeof(int64_t),
          static_cast<uint64_t>(length + 1) * sizeof(int64_t));
      // chars buffer is shared whole; offsets are absolute positions.
      return MakeString(length, std::move(offsets), data_, std::move(validity),
                        null_count);
    }
    case TypeId::kCategorical: {
      return MakeCategorical(length, slice_fixed(4), dictionary_,
                             std::move(validity), null_count);
    }
    default:
      return MakeFixed(type_, length, slice_fixed(ByteWidth(type_)),
                       std::move(validity), null_count);
  }
}

uint64_t Array::ByteSize() const {
  uint64_t total = 0;
  if (data_ != nullptr) total += data_->size();
  if (offsets_ != nullptr) total += offsets_->size();
  if (validity_ != nullptr) total += validity_->size();
  return total;
}

}  // namespace bento::col
