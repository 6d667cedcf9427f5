#include "sim/spill.h"

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace bento::sim {

namespace {
constexpr uint64_t kFuseDisarmed = UINT64_MAX;
std::atomic<uint64_t> g_write_fuse{kFuseDisarmed};
std::atomic<uint64_t> g_read_fuse{kFuseDisarmed};

/// Burns `size` bytes off a fuse; true when the fuse just blew (the caller
/// must fail the operation cleanly instead of touching the file).
bool FuseBlows(std::atomic<uint64_t>* fuse, uint64_t size) {
  uint64_t remaining = fuse->load(std::memory_order_relaxed);
  if (remaining == kFuseDisarmed) return false;
  if (remaining < size) return true;
  fuse->store(remaining - size, std::memory_order_relaxed);
  return false;
}
}  // namespace

std::string TempPath(const std::string& tag, const std::string& suffix) {
  static std::atomic<uint64_t> counter{0};
  const char* tmp = std::getenv("TMPDIR");
  return std::string(tmp != nullptr ? tmp : "/tmp") + "/bento_" + tag + "_" +
         std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1)) + suffix;
}

void SpillFile::InjectFaults(uint64_t write_bytes, uint64_t read_bytes) {
  g_write_fuse.store(write_bytes, std::memory_order_relaxed);
  g_read_fuse.store(read_bytes, std::memory_order_relaxed);
}

void SpillFile::ClearFaults() {
  g_write_fuse.store(kFuseDisarmed, std::memory_order_relaxed);
  g_read_fuse.store(kFuseDisarmed, std::memory_order_relaxed);
}

Result<std::unique_ptr<SpillFile>> SpillFile::Create() {
  std::string path = TempPath("spill", ".bin");
  std::FILE* f = std::fopen(path.c_str(), "w+b");
  if (f == nullptr) {
    return Status::IOError("cannot create spill file at ", path);
  }
  static obs::Counter* spill_files =
      obs::MetricsRegistry::Global().counter("spill.files");
  spill_files->Increment();
  return std::unique_ptr<SpillFile>(new SpillFile(f, std::move(path)));
}

SpillFile::~SpillFile() {
  if (file_ != nullptr) std::fclose(file_);
  std::remove(path_.c_str());
}

Result<uint64_t> SpillFile::Write(const void* data, uint64_t size) {
  BENTO_TRACE_SPAN(kIo, "spill.write");
  static obs::Counter* spill_bytes =
      obs::MetricsRegistry::Global().counter("spill.bytes_written");
  spill_bytes->Add(size);
  if (FuseBlows(&g_write_fuse, size)) {
    return Status::IOError("spill write failed (injected short write)");
  }
  if (std::fseek(file_, 0, SEEK_END) != 0) {
    return Status::IOError("spill seek failed");
  }
  long offset = std::ftell(file_);
  if (offset < 0) return Status::IOError("spill tell failed");
  if (size > 0 && std::fwrite(data, 1, size, file_) != size) {
    return Status::IOError("spill write failed");
  }
  bytes_written_ += size;
  return static_cast<uint64_t>(offset);
}

Status SpillFile::Read(uint64_t offset, uint64_t size, void* out) {
  BENTO_TRACE_SPAN(kIo, "spill.read");
  static obs::Counter* spill_read_bytes =
      obs::MetricsRegistry::Global().counter("spill.bytes_read");
  spill_read_bytes->Add(size);
  if (FuseBlows(&g_read_fuse, size)) {
    return Status::IOError("spill read failed (injected short read)");
  }
  if (std::fseek(file_, static_cast<long>(offset), SEEK_SET) != 0) {
    return Status::IOError("spill seek failed");
  }
  if (size > 0 && std::fread(out, 1, size, file_) != size) {
    return Status::IOError("spill read failed");
  }
  return Status::OK();
}

}  // namespace bento::sim
