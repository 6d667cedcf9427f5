#include "engines/cudf.h"

#include "engines/chunk_stream.h"
#include "io/bcf.h"
#include "sim/device.h"

namespace bento::eng {

using frame::ActionResult;
using frame::ExecPolicy;
using frame::Op;

namespace {

/// Installs the session's device pool as the allocation target, so buffers
/// created during CuDF operations live (and are budgeted) in simulated
/// device memory instead of host RAM. No-op without a GPU session.
class DeviceMemoryScope {
 public:
  DeviceMemoryScope()
      : scope_(sim::Session::Current() != nullptr &&
                       sim::Session::Current()->device_pool() != nullptr
                   ? std::make_unique<sim::MemoryScope>(
                         sim::Session::Current()->device_pool())
                   : nullptr) {}

 private:
  std::unique_ptr<sim::MemoryScope> scope_;
};

}  // namespace

const frame::EngineInfo& CudfEngine::info() const {
  static const frame::EngineInfo* info = new frame::EngineInfo{
      .id = "cudf",
      .paper_name = "CuDF",
      .multithreading = false,
      .gpu_acceleration = true,
      .resource_optimization = true,
      .lazy_evaluation = false,
      .cluster_deploy = false,
      .native_language = "C/C++ (CUDA)",
      .license = "Apache 2.0",
      .modeled_version = "22.12.0",
      .requirements = "CUDA",
  };
  return *info;
}

frame::ExecPolicy CudfEngine::NativePolicy() const {
  ExecPolicy policy;
  policy.null_probe = kern::NullProbe::kMetadata;
  policy.string_engine = kern::StringEngine::kColumnar;
  policy.parallel = false;  // parallelism is modeled by the device speedups
  policy.approx_quantile = true;
  policy.row_apply_object_bytes = 0;
  return policy;
}

Result<col::TablePtr> CudfEngine::RunTransform(const col::TablePtr& table,
                                               const Op& op,
                                               const ExecPolicy& policy) const {
  DeviceMemoryScope device_scope;
  Result<col::TablePtr> result = Status::Invalid("not run");
  const sim::KernelClass device = frame::TraitsOf(op.kind).device;
  BENTO_RETURN_NOT_OK(sim::DeviceKernel(device, [&]() -> Status {
    result = frame::ExecTransform(table, op, policy);
    return result.ok() ? Status::OK() : result.status();
  }));
  return result;
}

Result<ActionResult> CudfEngine::RunAction(const col::TablePtr& table,
                                           const Op& op,
                                           const ExecPolicy& policy) const {
  DeviceMemoryScope device_scope;
  Result<ActionResult> result = Status::Invalid("not run");
  const sim::KernelClass device = frame::TraitsOf(op.kind).device;
  BENTO_RETURN_NOT_OK(sim::DeviceKernel(device, [&]() -> Status {
    result = frame::ExecAction(table, op, policy);
    return result.ok() ? Status::OK() : result.status();
  }));
  return result;
}

Result<col::TablePtr> CudfEngine::DoReadCsv(
    const std::string& path, const io::CsvReadOptions& options) const {
  // CuDF parses CSV in bounded host chunks and lands columns directly on
  // the device: host memory stays O(chunk); the assembled table (and the
  // transient chunk copies) live in device memory.
  io::CsvReadOptions chunked = options;
  chunked.chunk_rows = 64 * 1024;
  BENTO_ASSIGN_OR_RETURN(auto reader, io::CsvChunkReader::Open(path, chunked));
  std::vector<col::TablePtr> device_chunks;
  uint64_t moved = 0;
  while (true) {
    BENTO_ASSIGN_OR_RETURN(auto chunk, reader->Next());
    if (chunk == nullptr) break;
    DeviceMemoryScope device_scope;
    BENTO_ASSIGN_OR_RETURN(auto on_device, frame::DeepCopyTable(chunk));
    moved += on_device->ByteSize();
    device_chunks.push_back(std::move(on_device));
  }
  sim::DeviceTransfer(moved);
  DeviceMemoryScope device_scope;
  return col::ConcatTables(device_chunks);
}

Result<col::TablePtr> CudfEngine::AfterIngest(col::TablePtr table) const {
  // Tables arriving from host memory (FromTable / BCF read) copy across
  // PCIe onto the device.
  if (sim::Session::Current() == nullptr ||
      sim::Session::Current()->device_pool() == nullptr) {
    return table;
  }
  if (sim::Session::Current()->device_pool() ==
      sim::MemoryPool::Current()) {
    return table;  // already device-resident (chunked CSV path)
  }
  sim::DeviceTransfer(table->ByteSize());
  DeviceMemoryScope device_scope;
  return frame::DeepCopyTable(table);
}

Status CudfEngine::WriteCsv(const frame::DataFrame::Ptr& frame,
                            const std::string& path) {
  BENTO_ASSIGN_OR_RETURN(auto table, frame->Collect());
  // CuDF stringifies the whole frame in device memory before copying it
  // out; the staging buffer is what blows the device-memory wall on the
  // largest dataset (Fig. 6d).
  sim::DeviceAllocation staging;
  BENTO_RETURN_NOT_OK(staging.Grow(table->ByteSize() * 2));
  sim::DeviceTransfer(table->ByteSize() * 2);  // device -> host text
  return io::WriteCsv(table, path);
}

Status CudfEngine::WriteBcf(const frame::DataFrame::Ptr& frame,
                            const std::string& path) {
  BENTO_ASSIGN_OR_RETURN(auto table, frame->Collect());
  // Columnar writes stream column chunks: staging is one column at a time.
  uint64_t max_column = 0;
  for (const auto& c : table->columns()) {
    max_column = std::max(max_column, c->ByteSize());
  }
  sim::DeviceAllocation staging;
  BENTO_RETURN_NOT_OK(staging.Grow(max_column));
  sim::DeviceTransfer(table->ByteSize());
  return io::WriteBcf(table, path);
}

}  // namespace bento::eng
