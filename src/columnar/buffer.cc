#include "columnar/buffer.h"

#include <cstdlib>

namespace bento::col {

Buffer::~Buffer() {
  if (owned_) {
    std::free(data_);
    if (pool_ != nullptr) pool_->Release(size_);
  }
}

Result<std::shared_ptr<Buffer>> Buffer::Allocate(uint64_t size) {
  return AllocateOwned(size, /*zeroed=*/true);
}

Result<std::shared_ptr<Buffer>> Buffer::AllocateOwned(uint64_t size,
                                                      bool zeroed) {
  sim::MemoryPool* pool = sim::MemoryPool::Current();
  BENTO_RETURN_NOT_OK(pool->Reserve(size));
  uint8_t* data = nullptr;
  if (size > 0) {
    data = static_cast<uint8_t*>(zeroed ? std::calloc(1, size)
                                        : std::malloc(size));
    if (data == nullptr) {
      pool->Release(size);
      return Status::OutOfMemory("host allocation of ", size, " bytes failed");
    }
  }
  return std::shared_ptr<Buffer>(
      new Buffer(data, size, /*owned=*/true, pool->state()));
}

std::shared_ptr<Buffer> Buffer::Wrap(const void* data, uint64_t size) {
  return std::shared_ptr<Buffer>(
      new Buffer(const_cast<uint8_t*>(static_cast<const uint8_t*>(data)), size,
                 /*owned=*/false, nullptr));
}

std::shared_ptr<Buffer> Buffer::WrapOwned(const void* data, uint64_t size,
                                          std::shared_ptr<void> owner) {
  auto buf = Wrap(data, size);
  buf->owner_ = std::move(owner);
  return buf;
}

std::shared_ptr<Buffer> Buffer::Slice(const std::shared_ptr<Buffer>& parent,
                                      uint64_t offset, uint64_t size) {
  auto view = std::shared_ptr<Buffer>(
      new Buffer(const_cast<uint8_t*>(parent->data()) + offset, size,
                 /*owned=*/false, nullptr));
  view->parent_ = parent;
  return view;
}

Result<std::shared_ptr<Buffer>> Buffer::CopyOf(const void* data,
                                               uint64_t size) {
  // Every byte is overwritten, so the allocation skips the zero fill.
  BENTO_ASSIGN_OR_RETURN(auto buf, AllocateOwned(size, /*zeroed=*/false));
  if (size > 0) std::memcpy(buf->mutable_data(), data, size);
  return buf;
}

}  // namespace bento::col
