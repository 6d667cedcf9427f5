#include "kernels/pivot.h"

#include <cmath>

#include "columnar/builder.h"
#include "kernels/flat_index.h"
#include "kernels/groupby.h"
#include "kernels/row_hash.h"
#include "kernels/selection.h"

namespace bento::kern {

Result<TablePtr> PivotTable(const TablePtr& table, const std::string& index,
                            const std::string& columns,
                            const std::string& values, AggKind agg) {
  BENTO_ASSIGN_OR_RETURN(auto index_col, table->GetColumn(index));
  BENTO_ASSIGN_OR_RETURN(auto columns_col, table->GetColumn(columns));
  BENTO_ASSIGN_OR_RETURN(auto values_col, table->GetColumn(values));
  if (!col::IsNumeric(values_col->type()) &&
      values_col->type() != TypeId::kBool) {
    return Status::TypeError("pivot values column must be numeric");
  }

  // Axis discovery in first-seen order through flat groupers: cells group
  // by value equality (nulls form their own group), no per-row
  // stringification — labels stringify once per distinct column value.
  BENTO_ASSIGN_OR_RETURN(auto row_hashes, HashRows(table, {index}));
  BENTO_ASSIGN_OR_RETURN(auto col_hashes, HashRows(table, {columns}));
  BENTO_ASSIGN_OR_RETURN(
      auto row_equal, RowEquality::Make(table, {index}, table, {index}));
  BENTO_ASSIGN_OR_RETURN(
      auto col_equal, RowEquality::Make(table, {columns}, table, {columns}));

  const int64_t n = table->num_rows();
  FlatGrouper row_groups(n / 8 + 16);
  FlatGrouper col_groups;
  std::vector<int> row_of(static_cast<size_t>(n));
  std::vector<int> col_of(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    row_of[static_cast<size_t>(i)] = static_cast<int>(row_groups.FindOrInsert(
        row_hashes[static_cast<size_t>(i)], i,
        [&](int64_t a, int64_t b) { return row_equal.Equal(a, b); }));
    col_of[static_cast<size_t>(i)] = static_cast<int>(col_groups.FindOrInsert(
        col_hashes[static_cast<size_t>(i)], i,
        [&](int64_t a, int64_t b) { return col_equal.Equal(a, b); }));
  }
  const std::vector<int64_t>& row_representatives = row_groups.representatives();
  std::vector<std::string> col_labels;
  col_labels.reserve(static_cast<size_t>(col_groups.num_groups()));
  for (int64_t rep : col_groups.representatives()) {
    col_labels.push_back(columns_col->IsNull(rep) ? "null"
                                                  : columns_col->ValueToString(rep));
  }

  // Accumulate cells.
  struct Cell {
    double sum = 0.0, sum_sq = 0.0, min = 0.0, max = 0.0;
    int64_t count = 0;
  };
  const size_t n_rows = row_representatives.size();
  const size_t n_cols = col_labels.size();
  std::vector<Cell> cells(n_rows * n_cols);
  for (int64_t i = 0; i < n; ++i) {
    if (values_col->IsNull(i)) continue;
    double v = values_col->type() == TypeId::kFloat64
                   ? values_col->float64_data()[i]
               : values_col->type() == TypeId::kBool
                   ? (values_col->bool_data()[i] != 0 ? 1.0 : 0.0)
                   : static_cast<double>(values_col->int64_data()[i]);
    if (std::isnan(v)) continue;
    Cell& c = cells[static_cast<size_t>(row_of[static_cast<size_t>(i)]) * n_cols +
                    static_cast<size_t>(col_of[static_cast<size_t>(i)])];
    if (c.count == 0) {
      c.min = v;
      c.max = v;
    } else {
      c.min = std::min(c.min, v);
      c.max = std::max(c.max, v);
    }
    c.sum += v;
    c.sum_sq += v * v;
    ++c.count;
  }

  // Output: index column (representatives) + one float column per label.
  BENTO_ASSIGN_OR_RETURN(auto idx_table, table->SelectColumns({index}));
  BENTO_ASSIGN_OR_RETURN(auto idx_out, TakeTable(idx_table, row_representatives));

  std::vector<col::Field> fields = idx_out->schema()->fields();
  std::vector<ArrayPtr> out_columns = idx_out->columns();
  for (size_t c = 0; c < n_cols; ++c) {
    col::Float64Builder b;
    b.Reserve(static_cast<int64_t>(n_rows));
    for (size_t r = 0; r < n_rows; ++r) {
      const Cell& cell = cells[r * n_cols + c];
      if (cell.count == 0) {
        b.AppendNull();
        continue;
      }
      double v = 0.0;
      switch (agg) {
        case AggKind::kSum:
          v = cell.sum;
          break;
        case AggKind::kMean:
          v = cell.sum / static_cast<double>(cell.count);
          break;
        case AggKind::kMin:
          v = cell.min;
          break;
        case AggKind::kMax:
          v = cell.max;
          break;
        case AggKind::kCount:
          v = static_cast<double>(cell.count);
          break;
        case AggKind::kStd: {
          if (cell.count < 2) {
            b.AppendNull();
            continue;
          }
          const double cnt = static_cast<double>(cell.count);
          double var = (cell.sum_sq - cell.sum * cell.sum / cnt) / (cnt - 1.0);
          v = var > 0.0 ? std::sqrt(var) : 0.0;
          break;
        }
      }
      b.Append(v);
    }
    BENTO_ASSIGN_OR_RETURN(auto arr, b.Finish());
    fields.push_back({values + "_" + col_labels[c], TypeId::kFloat64});
    out_columns.push_back(std::move(arr));
  }
  return Table::Make(std::make_shared<col::Schema>(std::move(fields)),
                     std::move(out_columns));
}

}  // namespace bento::kern
