#include "io/compress.h"

#include <cstring>

namespace bento::io {

namespace {

constexpr size_t kWindow = 64 * 1024;
constexpr size_t kMinMatch = 4;
constexpr size_t kMaxMatch = 130;  // (tag & 0x7F) + kMinMatch - 1 fits 0x7E
constexpr size_t kMaxLiteralRun = 128;
constexpr size_t kHashBits = 15;

inline uint32_t Hash4(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return (v * 2654435761u) >> (32 - kHashBits);
}

void EmitLiterals(const uint8_t* data, size_t begin, size_t end,
                  std::vector<uint8_t>* out) {
  while (begin < end) {
    size_t run = std::min(end - begin, kMaxLiteralRun);
    out->push_back(static_cast<uint8_t>(run - 1));
    out->insert(out->end(), data + begin, data + begin + run);
    begin += run;
  }
}

}  // namespace

std::vector<uint8_t> LzCompress(const uint8_t* data, size_t size) {
  std::vector<uint8_t> out;
  out.reserve(size / 2 + 16);
  if (size < kMinMatch + 1) {
    EmitLiterals(data, 0, size, &out);
    return out;
  }

  std::vector<uint32_t> head(1u << kHashBits, UINT32_MAX);
  size_t pos = 0;
  size_t literal_start = 0;
  while (pos + kMinMatch <= size) {
    const uint32_t h = Hash4(data + pos);
    const uint32_t candidate = head[h];
    head[h] = static_cast<uint32_t>(pos);

    size_t match_len = 0;
    // Strictly less than the window: a distance of exactly kWindow (64 KiB)
    // would wrap the 16-bit encoding to 0 and corrupt the stream.
    if (candidate != UINT32_MAX && pos - candidate < kWindow &&
        pos - candidate > 0) {
      const uint8_t* a = data + candidate;
      const uint8_t* b = data + pos;
      const size_t limit = std::min(size - pos, kMaxMatch);
      while (match_len < limit && a[match_len] == b[match_len]) ++match_len;
    }

    if (match_len >= kMinMatch) {
      EmitLiterals(data, literal_start, pos, &out);
      const uint16_t dist = static_cast<uint16_t>(pos - candidate);
      out.push_back(static_cast<uint8_t>(0x80 | (match_len - kMinMatch)));
      out.push_back(static_cast<uint8_t>(dist & 0xFF));
      out.push_back(static_cast<uint8_t>(dist >> 8));
      pos += match_len;
      literal_start = pos;
    } else {
      ++pos;
    }
  }
  EmitLiterals(data, literal_start, size, &out);
  return out;
}

uint64_t LzMaxDecompressedSize(uint64_t size) {
  return size / 3 * kMaxMatch + size % 3;
}

Result<std::vector<uint8_t>> LzDecompress(const uint8_t* data, size_t size,
                                          size_t expected_size) {
  if (expected_size > LzMaxDecompressedSize(size)) {
    return Status::IOError("LZ page of ", size, " bytes cannot expand to ",
                           expected_size);
  }
  std::vector<uint8_t> out;
  out.reserve(expected_size);
  size_t pos = 0;
  while (pos < size) {
    uint8_t tag = data[pos++];
    if (tag < 0x80) {
      const size_t run = static_cast<size_t>(tag) + 1;
      if (pos + run > size) return Status::IOError("corrupt LZ literal run");
      out.insert(out.end(), data + pos, data + pos + run);
      pos += run;
    } else {
      if (pos + 2 > size) return Status::IOError("corrupt LZ match token");
      const size_t len = static_cast<size_t>(tag & 0x7F) + kMinMatch;
      const size_t dist = static_cast<size_t>(data[pos]) |
                          (static_cast<size_t>(data[pos + 1]) << 8);
      pos += 2;
      if (dist == 0 || dist > out.size()) {
        return Status::IOError("corrupt LZ match distance");
      }
      // Byte-at-a-time copy: matches may overlap their own output.
      size_t src = out.size() - dist;
      for (size_t i = 0; i < len; ++i) out.push_back(out[src + i]);
    }
  }
  if (out.size() != expected_size) {
    return Status::IOError("LZ size mismatch: got ", out.size(), ", expected ",
                           expected_size);
  }
  return out;
}

}  // namespace bento::io
