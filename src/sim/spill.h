#ifndef BENTO_SIM_SPILL_H_
#define BENTO_SIM_SPILL_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>

#include "util/result.h"

namespace bento::sim {

/// \brief A path no earlier call in this process returned:
/// `<dir>/bento_<tag>_<pid>_<n><suffix>`, where `dir` is $TMPDIR or /tmp.
/// Creates nothing; every temp file of the engines is named here.
std::string TempPath(const std::string& tag, const std::string& suffix);

/// \brief A temporary on-disk byte store used by out-of-core operators
/// (the SparkSQL engine's spill path). Bytes written here are *not* charged
/// to any MemoryPool, which is exactly the point: spilling converts tracked
/// RAM into untracked disk, letting pipelines finish under small budgets.
///
/// The backing file is unlinked on destruction.
class SpillFile {
 public:
  /// Creates a spill file at a fresh TempPath.
  static Result<std::unique_ptr<SpillFile>> Create();

  ~SpillFile();

  SpillFile(const SpillFile&) = delete;
  SpillFile& operator=(const SpillFile&) = delete;

  /// Appends `size` bytes; returns the offset they were written at.
  Result<uint64_t> Write(const void* data, uint64_t size);

  /// Reads `size` bytes from `offset` into `out`.
  Status Read(uint64_t offset, uint64_t size, void* out);

  uint64_t bytes_written() const { return bytes_written_; }
  const std::string& path() const { return path_; }

  /// Test-only fault injection, process-wide: after `write_bytes` more bytes
  /// have been written (resp. `read_bytes` read) across all spill files, the
  /// next Write/Read fails with a clean IOError — the short-write/short-read
  /// model for proving spill consumers never surface corrupt frames.
  /// UINT64_MAX disarms a fuse.
  static void InjectFaults(uint64_t write_bytes, uint64_t read_bytes);
  static void ClearFaults();

 private:
  SpillFile(std::FILE* file, std::string path)
      : file_(file), path_(std::move(path)) {}

  std::FILE* file_;
  std::string path_;
  uint64_t bytes_written_ = 0;
};

}  // namespace bento::sim

#endif  // BENTO_SIM_SPILL_H_
