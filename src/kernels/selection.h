#ifndef BENTO_KERNELS_SELECTION_H_
#define BENTO_KERNELS_SELECTION_H_

#include <cstdint>
#include <vector>

#include "kernels/common.h"
#include "sim/parallel.h"

namespace bento::kern {

/// \brief Keeps rows where `mask` is true (null mask slots drop the row).
/// `mask` must be a kBool array of the same length. The mask turns into row
/// indices once per call; every column then goes through the sized gather
/// of TakeTableParallel at any row count, with `options` deciding its
/// fan-out (one worker keeps it serial).
Result<ArrayPtr> Filter(const ArrayPtr& values, const ArrayPtr& mask,
                        const sim::ParallelOptions& options);
Result<TablePtr> FilterTable(const TablePtr& table, const ArrayPtr& mask,
                             const sim::ParallelOptions& options);

/// \brief The gather behind FilterTable, for callers that already hold the
/// kept rows: `rows` must be ascending and inside the table.
Result<TablePtr> FilterTableRows(const TablePtr& table,
                                 const std::vector<int64_t>& rows,
                                 const sim::ParallelOptions& options);

/// \brief Gathers rows at `indices`; an index of -1 emits a null row
/// (used by left joins). The one-worker form of TakeParallel: the same
/// sized gather, its tasks run serially on the caller.
Result<ArrayPtr> Take(const ArrayPtr& values,
                      const std::vector<int64_t>& indices);
Result<TablePtr> TakeTable(const TablePtr& table,
                           const std::vector<int64_t>& indices);

/// \brief Sized two-pass gather: output buffers are allocated to their exact
/// final size up front (prefix-summed byte totals for strings) and one task
/// per (column, morsel range) copies a disjoint output range — no
/// growth-amortized builder appends, and a table smaller than one morsel
/// still fans out across its columns.
/// Byte-identical to appending the rows one by one through the column
/// builders (-1 -> null, a null slot's bytes, a bitmap only when a slot is
/// null) at any worker count; below 4 096 rows it runs on one worker. Used by
/// the parallel join/sort/dedup/group-by assembly stages; in kSimulated mode
/// the copy morsels run serially and earn makespan credit like any other
/// ParallelFor.
Result<ArrayPtr> TakeParallel(const ArrayPtr& values,
                              const std::vector<int64_t>& indices,
                              const sim::ParallelOptions& options = {});
Result<TablePtr> TakeTableParallel(const TablePtr& table,
                                   const std::vector<int64_t>& indices,
                                   const sim::ParallelOptions& options = {});

}  // namespace bento::kern

#endif  // BENTO_KERNELS_SELECTION_H_
