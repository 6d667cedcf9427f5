#ifndef BENTO_IO_COMPRESS_H_
#define BENTO_IO_COMPRESS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/result.h"

namespace bento::io {

/// \brief A small LZ77-family byte codec used for BCF page compression
/// (the role Snappy/ZSTD play for Parquet).
///
/// Format: greedy hash-chain matching over a 64 KiB window; tokens are
/// either literal runs (tag byte 0x00..0x7F = run length - 1, then bytes)
/// or matches (tag 0x80 | (len - 4) for len in [4, 131), then 2-byte
/// little-endian distance). Self-framing: callers store sizes externally.
///
/// Compress never fails; Decompress validates framing and sizes.
std::vector<uint8_t> LzCompress(const uint8_t* data, size_t size);

/// \brief The most bytes `size` compressed bytes can expand to: a 3-byte
/// match token emits at most 130 bytes, and a literal run never emits more
/// bytes than it stores. A larger expected size marks a corrupt page header.
uint64_t LzMaxDecompressedSize(uint64_t size);

Result<std::vector<uint8_t>> LzDecompress(const uint8_t* data, size_t size,
                                          size_t expected_size);

}  // namespace bento::io

#endif  // BENTO_IO_COMPRESS_H_
