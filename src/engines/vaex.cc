#include "engines/vaex.h"

#include <cstdio>

#include "sim/spill.h"

namespace bento::eng {

namespace {

/// Deletes the converted store when the last plan referencing it dies.
struct TempFileOwner {
  explicit TempFileOwner(std::string p) : path(std::move(p)) {}
  TempFileOwner(const TempFileOwner&) = delete;
  TempFileOwner& operator=(const TempFileOwner&) = delete;
  ~TempFileOwner() { std::remove(path.c_str()); }

  std::string path;
};

}  // namespace

const frame::EngineInfo& VaexEngine::info() const {
  static const frame::EngineInfo* info = new frame::EngineInfo{
      .id = "vaex",
      .paper_name = "Vaex",
      .multithreading = true,
      .gpu_acceleration = false,
      .resource_optimization = true,
      .lazy_evaluation = false,  // only virtual columns are lazy (Table I)
      .cluster_deploy = false,
      .native_language = "C/Python",
      .license = "MIT",
      .modeled_version = "4.16.0",
      .requirements = "",
  };
  return *info;
}

frame::ExecPolicy VaexEngine::ExecutionPolicy() const {
  frame::ExecPolicy policy;
  // Row-wise probes re-evaluate values through the expression engine.
  policy.null_probe = kern::NullProbe::kScan;
  policy.string_engine = kern::StringEngine::kColumnar;  // columnar strength
  policy.parallel = true;
  // Vaex's multithreaded C kernels opt into the real backend too.
  policy.parallel_options.mode = sim::ExecutionMode::kReal;
  policy.approx_quantile = true;  // vaex statistics are streaming
  policy.row_apply_object_bytes = 16;
  return policy;
}

double VaexEngine::ActionPenaltySeconds(const frame::Op& op,
                                        const col::TablePtr& table) const {
  // Row-wise inspections run value-by-value through the Python expression
  // graph; ~0.3us of dispatch per visited cell (calibrated so Vaex lands
  // ~100x behind Pandas at isna on Patrol, the paper~s figure). Column-wise operations
  // (srchptn, sort, stats) take the vectorized path and pay nothing.
  constexpr double kPerCellSeconds = 0.3e-6;
  switch (op.kind) {
    case frame::OpKind::kIsNa:
      return kPerCellSeconds * static_cast<double>(table->num_rows()) *
             static_cast<double>(table->num_columns());
    case frame::OpKind::kLocateOutliers:
      return kPerCellSeconds * static_cast<double>(table->num_rows());
    default:
      return 0.0;
  }
}

Result<LazySource> VaexEngine::PrepareSource(LazySource source) const {
  if (source.kind != LazySource::Kind::kCsv) return source;
  // One-time conversion of the CSV into the on-disk columnar store,
  // streamed chunk by chunk so the conversion itself is memory-bounded.
  io::CsvReadOptions options = source.csv_options;
  options.chunk_rows = ChunkRows();
  BENTO_ASSIGN_OR_RETURN(auto reader,
                         io::CsvChunkReader::Open(source.path, options));
  const std::string store_path = sim::TempPath("vaex", ".bcf");
  io::BcfWriteOptions wopts;
  wopts.row_group_rows = ChunkRows();
  wopts.compression = false;  // mmap store favors direct layout
  wopts.align_pages = true;   // 8-byte pages so mapped reads are zero-copy
  wopts.mappable = true;      // plain/strview pages: strings map too
  BENTO_ASSIGN_OR_RETURN(auto writer, io::BcfWriter::Open(store_path, wopts));
  while (true) {
    BENTO_ASSIGN_OR_RETURN(auto chunk, reader->Next());
    if (chunk == nullptr) break;
    BENTO_RETURN_NOT_OK(writer->Append(chunk));
  }
  BENTO_RETURN_NOT_OK(writer->Finish());

  LazySource converted;
  converted.kind = LazySource::Kind::kBcf;
  converted.path = store_path;
  converted.owned_resource = std::make_shared<TempFileOwner>(store_path);
  return converted;
}

}  // namespace bento::eng
