#ifndef BENTO_COLUMNAR_BUFFER_H_
#define BENTO_COLUMNAR_BUFFER_H_

#include <cstdint>
#include <cstring>
#include <memory>

#include "sim/memory.h"
#include "util/result.h"

namespace bento::col {

/// \brief A contiguous, pool-tracked byte allocation.
///
/// Every buffer charges its capacity against the sim::MemoryPool that was
/// current at allocation time and releases it on destruction, which is how
/// engine memory behaviour (materialization peaks, OoM, spill benefits)
/// becomes observable to the machine simulator. Buffers co-own the pool's
/// accounting state, so one that outlives its session still releases
/// safely.
class Buffer {
 public:
  ~Buffer();

  Buffer(const Buffer&) = delete;
  Buffer& operator=(const Buffer&) = delete;

  /// Allocates `size` zero-initialized bytes from the current pool.
  static Result<std::shared_ptr<Buffer>> Allocate(uint64_t size);

  /// Wraps external memory the buffer does not own (e.g. an mmap'ed file
  /// region for the Vaex/DataTable engines); nothing is charged or freed.
  static std::shared_ptr<Buffer> Wrap(const void* data, uint64_t size);

  /// Wrap() plus a keep-alive: `owner` (e.g. the mmap region object backing
  /// `data`) stays alive for the lifetime of the buffer and every slice of
  /// it. File-backed bytes are pageable, so nothing is charged to any pool —
  /// the Vaex property that lets columns bigger than RAM exist.
  static std::shared_ptr<Buffer> WrapOwned(const void* data, uint64_t size,
                                           std::shared_ptr<void> owner);

  /// Copies `size` bytes into a newly allocated buffer.
  static Result<std::shared_ptr<Buffer>> CopyOf(const void* data,
                                                uint64_t size);

  /// Zero-copy view of `parent`'s bytes [offset, offset+size); keeps
  /// `parent` alive for the lifetime of the view.
  static std::shared_ptr<Buffer> Slice(const std::shared_ptr<Buffer>& parent,
                                       uint64_t offset, uint64_t size);

  uint8_t* mutable_data() { return data_; }
  const uint8_t* data() const { return data_; }
  uint64_t size() const { return size_; }
  bool owns_memory() const { return owned_; }

  template <typename T>
  T* mutable_data_as() {
    return reinterpret_cast<T*>(data_);
  }
  template <typename T>
  const T* data_as() const {
    return reinterpret_cast<const T*>(data_);
  }

 private:
  /// `size` owned bytes charged to the current pool, zero-filled or not.
  static Result<std::shared_ptr<Buffer>> AllocateOwned(uint64_t size,
                                                       bool zeroed);

  Buffer(uint8_t* data, uint64_t size, bool owned,
         std::shared_ptr<sim::MemoryPool::State> pool)
      : data_(data), size_(size), owned_(owned), pool_(std::move(pool)) {}

  uint8_t* data_;
  uint64_t size_;
  bool owned_;
  // Shared accounting state (nullptr for wrapped buffers); keeping it alive
  // makes the destructor's Release safe even after the pool is gone.
  std::shared_ptr<sim::MemoryPool::State> pool_;
  std::shared_ptr<Buffer> parent_;  // keep-alive for sliced views
  std::shared_ptr<void> owner_;     // keep-alive for wrapped regions (mmap)
};

using BufferPtr = std::shared_ptr<Buffer>;

}  // namespace bento::col

#endif  // BENTO_COLUMNAR_BUFFER_H_
