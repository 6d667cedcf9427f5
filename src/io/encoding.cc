#include "io/encoding.h"

#include <cstring>
#include <unordered_map>

#include "columnar/builder.h"

namespace bento::io {

using col::Array;
using col::ArrayPtr;
using col::TypeId;

void PutVarint(uint64_t v, std::vector<uint8_t>* out) {
  while (v >= 0x80) {
    out->push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out->push_back(static_cast<uint8_t>(v));
}

Result<uint64_t> GetVarint(const uint8_t* data, size_t size, size_t* pos) {
  uint64_t v = 0;
  int shift = 0;
  while (*pos < size) {
    uint8_t b = data[(*pos)++];
    v |= static_cast<uint64_t>(b & 0x7F) << shift;
    if ((b & 0x80) == 0) return v;
    shift += 7;
    if (shift > 63) break;
  }
  return Status::IOError("corrupt varint");
}

namespace {

void PutU32(uint32_t v, std::vector<uint8_t>* out) {
  out->push_back(static_cast<uint8_t>(v));
  out->push_back(static_cast<uint8_t>(v >> 8));
  out->push_back(static_cast<uint8_t>(v >> 16));
  out->push_back(static_cast<uint8_t>(v >> 24));
}

Result<uint32_t> GetU32(const uint8_t* data, size_t size, size_t* pos) {
  if (*pos + 4 > size) return Status::IOError("corrupt u32");
  uint32_t v;
  std::memcpy(&v, data + *pos, 4);
  *pos += 4;
  return v;
}

Result<std::vector<uint8_t>> EncodePlain(const ArrayPtr& a) {
  std::vector<uint8_t> out;
  if (a->type() == TypeId::kString) {
    for (int64_t i = 0; i < a->length(); ++i) {
      std::string_view v = a->IsValid(i) ? a->GetView(i) : std::string_view();
      PutU32(static_cast<uint32_t>(v.size()), &out);
      out.insert(out.end(), v.begin(), v.end());
    }
    return out;
  }
  const size_t nbytes = static_cast<size_t>(a->length()) *
                        static_cast<size_t>(col::ByteWidth(a->type()));
  out.resize(nbytes);
  if (nbytes > 0) std::memcpy(out.data(), a->data_buffer()->data(), nbytes);
  return out;
}

Result<std::vector<uint8_t>> EncodeDelta(const ArrayPtr& a) {
  if (a->type() != TypeId::kInt64 && a->type() != TypeId::kTimestamp) {
    return Status::Invalid("DELTA encoding requires int64/timestamp");
  }
  std::vector<uint8_t> out;
  out.reserve(static_cast<size_t>(a->length()) * 2);
  const int64_t* data = a->int64_data();
  int64_t prev = 0;
  for (int64_t i = 0; i < a->length(); ++i) {
    int64_t v = a->IsValid(i) ? data[i] : prev;  // nulls carry previous value
    // Deltas wrap modulo 2^64 (the decoder's sum wraps back), so values a
    // full int64 range apart encode without signed overflow.
    PutVarint(ZigZag(static_cast<int64_t>(static_cast<uint64_t>(v) -
                                          static_cast<uint64_t>(prev))),
              &out);
    prev = v;
  }
  return out;
}

Result<std::vector<uint8_t>> EncodeRle(const ArrayPtr& a) {
  if (a->type() != TypeId::kBool) {
    return Status::Invalid("RLE encoding requires bool");
  }
  std::vector<uint8_t> out;
  const uint8_t* data = a->bool_data();
  int64_t i = 0;
  while (i < a->length()) {
    const uint8_t v = a->IsValid(i) ? (data[i] != 0 ? 1 : 0) : 0;
    int64_t run = 1;
    while (i + run < a->length()) {
      const uint8_t w =
          a->IsValid(i + run) ? (data[i + run] != 0 ? 1 : 0) : 0;
      if (w != v) break;
      ++run;
    }
    PutVarint(static_cast<uint64_t>(run), &out);
    out.push_back(v);
    i += run;
  }
  return out;
}

/// STRVIEW page: (n+1) little-endian int64 offsets rebased to zero, then the
/// concatenated character bytes. Null slots repeat the previous offset. This
/// is exactly the StringArray buffer pair, so aligned uncompressed pages can
/// be wrapped instead of decoded.
Result<std::vector<uint8_t>> EncodeStrView(const ArrayPtr& a) {
  if (a->type() != TypeId::kString) {
    return Status::Invalid("STRVIEW encoding requires string");
  }
  const int64_t n = a->length();
  uint64_t char_bytes = 0;
  for (int64_t i = 0; i < n; ++i) {
    if (a->IsValid(i)) char_bytes += a->GetView(i).size();
  }
  std::vector<uint8_t> out(static_cast<size_t>(n + 1) * 8 + char_bytes);
  uint8_t* offsets = out.data();
  uint8_t* chars = out.data() + static_cast<size_t>(n + 1) * 8;
  int64_t off = 0;
  for (int64_t i = 0; i < n; ++i) {
    std::memcpy(offsets + i * 8, &off, 8);
    if (a->IsValid(i)) {
      std::string_view v = a->GetView(i);
      std::memcpy(chars + off, v.data(), v.size());
      off += static_cast<int64_t>(v.size());
    }
  }
  std::memcpy(offsets + n * 8, &off, 8);
  return out;
}

Result<std::vector<uint8_t>> EncodeDict(const ArrayPtr& a) {
  std::vector<std::string_view> dict;
  std::vector<uint32_t> codes(static_cast<size_t>(a->length()), 0);

  if (a->type() == TypeId::kCategorical) {
    const auto& d = *a->dictionary();
    dict.reserve(d.size());
    for (const std::string& s : d) dict.emplace_back(s);
    for (int64_t i = 0; i < a->length(); ++i) {
      codes[static_cast<size_t>(i)] =
          a->IsValid(i) ? static_cast<uint32_t>(a->codes_data()[i]) : 0;
    }
  } else if (a->type() == TypeId::kString) {
    std::unordered_map<std::string_view, uint32_t> lookup;
    for (int64_t i = 0; i < a->length(); ++i) {
      if (!a->IsValid(i)) continue;
      std::string_view v = a->GetView(i);
      auto [it, inserted] =
          lookup.emplace(v, static_cast<uint32_t>(dict.size()));
      if (inserted) dict.push_back(v);
      codes[static_cast<size_t>(i)] = it->second;
    }
  } else {
    return Status::Invalid("DICT encoding requires string/categorical");
  }

  std::vector<uint8_t> out;
  PutU32(static_cast<uint32_t>(dict.size()), &out);
  for (std::string_view v : dict) {
    PutU32(static_cast<uint32_t>(v.size()), &out);
    out.insert(out.end(), v.begin(), v.end());
  }
  for (uint32_t c : codes) PutU32(c, &out);
  return out;
}

}  // namespace

Encoding ChooseEncoding(const ArrayPtr& values) {
  switch (values->type()) {
    case TypeId::kInt64:
    case TypeId::kTimestamp:
      return Encoding::kDelta;
    case TypeId::kBool:
      return Encoding::kRle;
    case TypeId::kCategorical:
      return Encoding::kDict;
    case TypeId::kString: {
      // Sample cardinality on a prefix; dictionary-encode when repetitive.
      const int64_t sample = std::min<int64_t>(values->length(), 1024);
      std::unordered_map<std::string_view, int> seen;
      for (int64_t i = 0; i < sample; ++i) {
        if (values->IsValid(i)) seen.emplace(values->GetView(i), 0);
      }
      if (sample > 16 &&
          static_cast<int64_t>(seen.size()) * 4 < sample) {
        return Encoding::kDict;
      }
      return Encoding::kStrView;
    }
    case TypeId::kFloat64:
      return Encoding::kPlain;
  }
  return Encoding::kPlain;
}

Encoding MappableEncoding(const ArrayPtr& values) {
  switch (values->type()) {
    case TypeId::kString:
      return Encoding::kStrView;
    case TypeId::kCategorical:
      return Encoding::kDict;
    default:
      return Encoding::kPlain;
  }
}

Result<std::vector<uint8_t>> EncodeArray(const ArrayPtr& values,
                                         Encoding encoding) {
  switch (encoding) {
    case Encoding::kPlain:
      return EncodePlain(values);
    case Encoding::kDelta:
      return EncodeDelta(values);
    case Encoding::kDict:
      return EncodeDict(values);
    case Encoding::kRle:
      return EncodeRle(values);
    case Encoding::kStrView:
      return EncodeStrView(values);
  }
  return Status::Invalid("unknown encoding");
}

Status CheckStrViewOffsets(const uint8_t* data, size_t size, int64_t length) {
  const size_t offsets_bytes = static_cast<size_t>(length + 1) * 8;
  if (size < offsets_bytes) return Status::IOError("corrupt string page");
  const size_t char_bytes = size - offsets_bytes;
  int64_t prev = 0;
  for (int64_t i = 0; i <= length; ++i) {
    int64_t off;
    std::memcpy(&off, data + static_cast<size_t>(i) * 8, 8);
    if (off < prev || (i == 0 && off != 0) ||
        off > static_cast<int64_t>(char_bytes)) {
      return Status::IOError("corrupt string page");
    }
    prev = off;
  }
  return Status::OK();
}

namespace {

Result<ArrayPtr> DecodePlain(TypeId type, const uint8_t* data, size_t size,
                             int64_t length, col::BufferPtr validity,
                             int64_t null_count) {
  if (type == TypeId::kString) {
    col::StringBuilder b;
    b.Reserve(length);
    size_t pos = 0;
    const uint8_t* bits = validity != nullptr ? validity->data() : nullptr;
    for (int64_t i = 0; i < length; ++i) {
      BENTO_ASSIGN_OR_RETURN(uint32_t len, GetU32(data, size, &pos));
      if (pos + len > size) return Status::IOError("corrupt string page");
      const bool valid = bits == nullptr || col::BitIsSet(bits, i);
      b.AppendMaybe(
          std::string_view(reinterpret_cast<const char*>(data + pos), len),
          valid);
      pos += len;
    }
    return b.Finish();
  }
  const size_t expected = static_cast<size_t>(length) *
                          static_cast<size_t>(col::ByteWidth(type));
  if (size < expected) return Status::IOError("short fixed-width page");
  BENTO_ASSIGN_OR_RETURN(auto buf, col::Buffer::CopyOf(data, expected));
  return Array::MakeFixed(type, length, std::move(buf), std::move(validity),
                          null_count);
}

Result<ArrayPtr> DecodeDelta(TypeId type, const uint8_t* data, size_t size,
                             int64_t length, col::BufferPtr validity,
                             int64_t null_count) {
  BENTO_ASSIGN_OR_RETURN(
      auto buf, col::Buffer::Allocate(static_cast<uint64_t>(length) * 8));
  int64_t* out = buf->mutable_data_as<int64_t>();
  size_t pos = 0;
  int64_t prev = 0;
  for (int64_t i = 0; i < length; ++i) {
    BENTO_ASSIGN_OR_RETURN(uint64_t zz, GetVarint(data, size, &pos));
    prev = static_cast<int64_t>(static_cast<uint64_t>(prev) +
                                static_cast<uint64_t>(UnZigZag(zz)));
    out[i] = prev;
  }
  return Array::MakeFixed(type, length, std::move(buf), std::move(validity),
                          null_count);
}

Result<ArrayPtr> DecodeRle(const uint8_t* data, size_t size, int64_t length,
                           col::BufferPtr validity, int64_t null_count) {
  BENTO_ASSIGN_OR_RETURN(
      auto buf, col::Buffer::Allocate(static_cast<uint64_t>(length)));
  uint8_t* out = buf->mutable_data();
  size_t pos = 0;
  int64_t emitted = 0;
  while (emitted < length) {
    BENTO_ASSIGN_OR_RETURN(uint64_t run, GetVarint(data, size, &pos));
    if (pos >= size) return Status::IOError("corrupt RLE page");
    const uint8_t v = data[pos++];
    if (run > static_cast<uint64_t>(length - emitted)) {
      return Status::IOError("RLE overrun");
    }
    std::memset(out + emitted, v, run);
    emitted += static_cast<int64_t>(run);
  }
  return Array::MakeFixed(TypeId::kBool, length, std::move(buf),
                          std::move(validity), null_count);
}

Result<ArrayPtr> DecodeDict(TypeId type, const uint8_t* data, size_t size,
                            int64_t length, col::BufferPtr validity,
                            int64_t null_count) {
  size_t pos = 0;
  BENTO_ASSIGN_OR_RETURN(uint32_t dict_size, GetU32(data, size, &pos));
  // Every entry stores at least its 4-byte length: bound the reserve.
  if (dict_size > (size - pos) / 4) return Status::IOError("corrupt dictionary");
  auto dict = std::make_shared<std::vector<std::string>>();
  dict->reserve(dict_size);
  for (uint32_t k = 0; k < dict_size; ++k) {
    BENTO_ASSIGN_OR_RETURN(uint32_t len, GetU32(data, size, &pos));
    if (pos + len > size) return Status::IOError("corrupt dictionary");
    dict->emplace_back(reinterpret_cast<const char*>(data + pos), len);
    pos += len;
  }

  if (type == TypeId::kCategorical) {
    BENTO_ASSIGN_OR_RETURN(
        auto codes, col::Buffer::Allocate(static_cast<uint64_t>(length) * 4));
    int32_t* out = codes->mutable_data_as<int32_t>();
    for (int64_t i = 0; i < length; ++i) {
      BENTO_ASSIGN_OR_RETURN(uint32_t c, GetU32(data, size, &pos));
      if (c >= dict_size &&
          !(validity != nullptr && !col::BitIsSet(validity->data(), i))) {
        return Status::IOError("dictionary code out of range");
      }
      out[i] = static_cast<int32_t>(c);
    }
    return Array::MakeCategorical(length, std::move(codes), std::move(dict),
                                  std::move(validity), null_count);
  }

  // Decode into plain strings.
  col::StringBuilder b;
  b.Reserve(length);
  const uint8_t* bits = validity != nullptr ? validity->data() : nullptr;
  for (int64_t i = 0; i < length; ++i) {
    BENTO_ASSIGN_OR_RETURN(uint32_t c, GetU32(data, size, &pos));
    const bool valid = bits == nullptr || col::BitIsSet(bits, i);
    if (!valid) {
      b.AppendNull();
    } else {
      if (c >= dict_size) return Status::IOError("dictionary code out of range");
      b.Append((*dict)[c]);
    }
  }
  return b.Finish();
}

Result<ArrayPtr> DecodeStrView(TypeId type, const uint8_t* data, size_t size,
                               int64_t length, col::BufferPtr validity,
                               int64_t null_count) {
  if (type != TypeId::kString) {
    return Status::IOError("STRVIEW page for non-string column");
  }
  BENTO_RETURN_NOT_OK(CheckStrViewOffsets(data, size, length));
  const size_t offsets_bytes = static_cast<size_t>(length + 1) * 8;
  int64_t char_bytes;
  std::memcpy(&char_bytes, data + static_cast<size_t>(length) * 8, 8);
  BENTO_ASSIGN_OR_RETURN(auto offsets,
                         col::Buffer::CopyOf(data, offsets_bytes));
  BENTO_ASSIGN_OR_RETURN(
      auto chars, col::Buffer::CopyOf(data + offsets_bytes,
                                      static_cast<size_t>(char_bytes)));
  return Array::MakeString(length, std::move(offsets), std::move(chars),
                           std::move(validity), null_count);
}

}  // namespace

Result<ArrayPtr> DecodeArray(TypeId type, Encoding encoding,
                             const uint8_t* data, size_t size, int64_t length,
                             col::BufferPtr validity, int64_t null_count) {
  if (type == TypeId::kCategorical && encoding != Encoding::kDict) {
    return Status::IOError("categorical column needs a DICT page");
  }
  switch (encoding) {
    case Encoding::kPlain:
      return DecodePlain(type, data, size, length, std::move(validity),
                         null_count);
    case Encoding::kDelta:
      return DecodeDelta(type, data, size, length, std::move(validity),
                         null_count);
    case Encoding::kDict:
      return DecodeDict(type, data, size, length, std::move(validity),
                        null_count);
    case Encoding::kRle:
      return DecodeRle(data, size, length, std::move(validity), null_count);
    case Encoding::kStrView:
      return DecodeStrView(type, data, size, length, std::move(validity),
                           null_count);
  }
  return Status::Invalid("unknown encoding");
}

}  // namespace bento::io
