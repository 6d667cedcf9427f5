#include <algorithm>
#include <charconv>
#include <cstdio>

#include "columnar/bitmap.h"
#include "io/csv.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/string_util.h"

namespace bento::io {

namespace {

bool NeedsQuoting(std::string_view v, char delimiter) {
  for (char c : v) {
    if (c == delimiter || c == '"' || c == '\n' || c == '\r') return true;
  }
  return false;
}

void AppendField(std::string_view v, char delimiter, std::string* out,
                 bool force_quotes = false) {
  if (!force_quotes && !NeedsQuoting(v, delimiter)) {
    out->append(v);
    return;
  }
  out->push_back('"');
  for (char c : v) {
    if (c == '"') out->push_back('"');
    out->push_back(c);
  }
  out->push_back('"');
}

/// True when the readers would decode a bare field `v` as null.
bool IsDefaultNullLiteral(std::string_view v) {
  static const CsvReadOptions kDefaults;
  const std::vector<std::string>& literals = kDefaults.null_literals;
  return std::find(literals.begin(), literals.end(), v) != literals.end();
}

/// String content: quoted when it would otherwise read back as null (the
/// empty string and the null literals), since quoted fields are literal.
void AppendString(std::string_view v, char delimiter, std::string* out) {
  AppendField(v, delimiter, out, IsDefaultNullLiteral(v));
}

/// What AppendCell reads of one column, taken out of the Array once per
/// block of rows: a row of a wide table touches every column, and plain
/// pointers keep that walk in cache.
struct CellSource {
  explicit CellSource(const col::Array& a)
      : array(&a),
        validity(a.validity_bits()),
        data(a.data_buffer() != nullptr ? a.data_buffer()->data() : nullptr) {}

  const col::Array* array;
  const uint8_t* validity;  // null when every row is valid
  const uint8_t* data;      // values or codes
};

void AppendCell(const CellSource& column, int64_t row, char delimiter,
                std::string* out) {
  // Nulls serialize as empty fields.
  if (column.validity != nullptr && !col::BitIsSet(column.validity, row)) {
    return;
  }
  switch (column.array->type()) {
    case col::TypeId::kInt64: {
      char buf[24];
      char* end = std::to_chars(
          buf, buf + sizeof(buf),
          reinterpret_cast<const int64_t*>(column.data)[row]).ptr;
      out->append(buf, end);
      break;
    }
    case col::TypeId::kFloat64: {
      char buf[kFormatDoubleBufSize];
      out->append(buf, FormatDoubleTo(
                           reinterpret_cast<const double*>(column.data)[row],
                           buf));
      break;
    }
    case col::TypeId::kBool:
      out->append(column.data[row] != 0 ? "true" : "false");
      break;
    case col::TypeId::kString:
      AppendString(column.array->GetView(row), delimiter, out);
      break;
    case col::TypeId::kCategorical: {
      const int32_t code = reinterpret_cast<const int32_t*>(column.data)[row];
      const col::Dictionary& dict = column.array->dictionary();
      if (dict != nullptr && code >= 0 &&
          static_cast<size_t>(code) < dict->size()) {
        AppendString((*dict)[static_cast<size_t>(code)], delimiter, out);
      } else {
        AppendString(column.array->ValueToString(row), delimiter, out);
      }
      break;
    }
    case col::TypeId::kTimestamp: {
      char buf[kFormatTimestampBufSize];
      const size_t len = FormatTimestampTo(
          reinterpret_cast<const int64_t*>(column.data)[row], buf);
      AppendField(std::string_view(buf, len), delimiter, out);
      break;
    }
  }
}

/// Appends rows [begin, end) of `table` to `out`.
void StringifyRows(const col::Table& table, int64_t begin, int64_t end,
                   char delimiter, std::string* out) {
  std::vector<CellSource> columns;
  columns.reserve(static_cast<size_t>(table.num_columns()));
  for (const col::ArrayPtr& c : table.columns()) columns.emplace_back(*c);
  for (int64_t r = begin; r < end; ++r) {
    for (size_t c = 0; c < columns.size(); ++c) {
      if (c > 0) out->push_back(delimiter);
      AppendCell(columns[c], r, delimiter, out);
    }
    out->push_back('\n');
  }
}

std::string HeaderLine(const col::Table& table, char delimiter) {
  std::string out;
  for (int c = 0; c < table.num_columns(); ++c) {
    if (c > 0) out.push_back(delimiter);
    AppendField(table.schema()->field(c).name, delimiter, &out);
  }
  out.push_back('\n');
  return out;
}

Status WriteAll(std::FILE* f, const std::string& data) {
  if (!data.empty() && std::fwrite(data.data(), 1, data.size(), f) != data.size()) {
    return Status::IOError("short CSV write");
  }
  static obs::Counter* bytes_written =
      obs::MetricsRegistry::Global().counter("io.csv.bytes_written");
  bytes_written->Add(data.size());
  return Status::OK();
}

}  // namespace

Status WriteCsv(const col::TablePtr& table, const std::string& path,
                const CsvWriteOptions& options) {
  BENTO_TRACE_SPAN(kIo, "csv.write");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::IOError("cannot create ", path);
  struct Closer {
    std::FILE* f;
    ~Closer() { std::fclose(f); }
  } closer{f};

  if (options.header) {
    BENTO_RETURN_NOT_OK(WriteAll(f, HeaderLine(*table, options.delimiter)));
  }
  // Stringify in modest blocks to bound the staging memory; one string,
  // warm after the first block, stages them all.
  constexpr int64_t kBlockRows = 4096;
  std::string block;
  for (int64_t begin = 0; begin < table->num_rows(); begin += kBlockRows) {
    block.clear();
    const int64_t end = std::min(table->num_rows(), begin + kBlockRows);
    StringifyRows(*table, begin, end, options.delimiter, &block);
    BENTO_RETURN_NOT_OK(WriteAll(f, block));
  }
  return Status::OK();
}

Status WriteCsvParallel(const col::TablePtr& table, const std::string& path,
                        const CsvWriteOptions& options,
                        const sim::ParallelOptions& parallel) {
  BENTO_TRACE_SPAN(kIo, "csv.write_parallel");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::IOError("cannot create ", path);
  struct Closer {
    std::FILE* f;
    ~Closer() { std::fclose(f); }
  } closer{f};

  if (options.header) {
    BENTO_RETURN_NOT_OK(WriteAll(f, HeaderLine(*table, options.delimiter)));
  }

  int workers = parallel.max_workers;
  if (workers <= 0) {
    workers = sim::Session::Current() != nullptr
                  ? sim::Session::Current()->cores()
                  : 1;
  }
  auto ranges = sim::SplitRange(table->num_rows(), workers, 8192);
  std::vector<std::string> blocks(ranges.size());
  BENTO_RETURN_NOT_OK(sim::ParallelFor(
      static_cast<int64_t>(ranges.size()),
      [&](int64_t i) {
        auto [b, e] = ranges[static_cast<size_t>(i)];
        StringifyRows(*table, b, e, options.delimiter,
                      &blocks[static_cast<size_t>(i)]);
        return Status::OK();
      },
      parallel));
  for (const std::string& block : blocks) {
    BENTO_RETURN_NOT_OK(WriteAll(f, block));
  }
  return Status::OK();
}

}  // namespace bento::io
