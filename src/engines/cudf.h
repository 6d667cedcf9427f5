#ifndef BENTO_ENGINES_CUDF_H_
#define BENTO_ENGINES_CUDF_H_

#include "engines/eager_engine.h"

namespace bento::eng {

/// \brief Model of RAPIDS CuDF on the simulated accelerator: every
/// preparator runs as device kernels (vector kernels get the largest
/// simulated speedups, string kernels moderate ones), data lives in the
/// capacity-limited device pool (the 16 GB wall behind Table V's "needs a
/// GPU" rows and the CSV-write OoM of Fig. 6d), host<->device transfers are
/// charged at ingest and collect, and there is no query optimizer — each op
/// fully materializes on device.
class CudfEngine : public EagerEngineBase {
 public:
  const frame::EngineInfo& info() const override;
  frame::ExecPolicy NativePolicy() const override;

  Result<col::TablePtr> RunTransform(const col::TablePtr& table,
                                     const frame::Op& op,
                                     const frame::ExecPolicy& policy) const override;
  Result<frame::ActionResult> RunAction(
      const col::TablePtr& table, const frame::Op& op,
      const frame::ExecPolicy& policy) const override;

  Status WriteCsv(const frame::DataFrame::Ptr& frame,
                  const std::string& path) override;
  Status WriteBcf(const frame::DataFrame::Ptr& frame,
                  const std::string& path) override;

 protected:
  Result<col::TablePtr> DoReadCsv(const std::string& path,
                                  const io::CsvReadOptions& options) const override;
  Result<col::TablePtr> AfterIngest(col::TablePtr table) const override;
};

}  // namespace bento::eng

#endif  // BENTO_ENGINES_CUDF_H_
