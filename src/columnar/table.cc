#include "columnar/table.h"

#include <cstring>
#include <string_view>
#include <unordered_map>

#include "obs/trace.h"

namespace bento::col {

Result<TablePtr> Table::Make(SchemaPtr schema, std::vector<ArrayPtr> columns) {
  if (schema == nullptr) return Status::Invalid("null schema");
  if (static_cast<size_t>(schema->num_fields()) != columns.size()) {
    return Status::Invalid("schema has ", schema->num_fields(),
                           " fields but ", columns.size(), " columns given");
  }
  int64_t rows = columns.empty() ? 0 : columns[0]->length();
  for (size_t i = 0; i < columns.size(); ++i) {
    if (columns[i] == nullptr) return Status::Invalid("null column at ", i);
    if (columns[i]->length() != rows) {
      return Status::Invalid("column ", schema->field(static_cast<int>(i)).name,
                             " has length ", columns[i]->length(),
                             ", expected ", rows);
    }
    if (columns[i]->type() != schema->field(static_cast<int>(i)).type) {
      return Status::TypeError(
          "column ", schema->field(static_cast<int>(i)).name, " has type ",
          TypeName(columns[i]->type()), ", schema says ",
          TypeName(schema->field(static_cast<int>(i)).type));
    }
  }
  return TablePtr(new Table(std::move(schema), std::move(columns), rows));
}

Result<TablePtr> Table::MakeEmpty(SchemaPtr schema) {
  std::vector<ArrayPtr> columns;
  for (const Field& f : schema->fields()) {
    BENTO_ASSIGN_OR_RETURN(auto a, Array::MakeAllNull(f.type, 0));
    columns.push_back(std::move(a));
  }
  return Make(std::move(schema), std::move(columns));
}

Result<ArrayPtr> Table::GetColumn(const std::string& name) const {
  int i = schema_->IndexOf(name);
  if (i < 0) return Status::KeyError("no column named '", name, "'");
  return columns_[static_cast<size_t>(i)];
}

Result<TablePtr> Table::SetColumn(const std::string& name,
                                  ArrayPtr column) const {
  if (column->length() != num_rows_ && num_columns() > 0) {
    return Status::Invalid("replacement column length ", column->length(),
                           " != table rows ", num_rows_);
  }
  std::vector<Field> fields = schema_->fields();
  std::vector<ArrayPtr> columns = columns_;
  int i = schema_->IndexOf(name);
  if (i >= 0) {
    fields[static_cast<size_t>(i)].type = column->type();
    columns[static_cast<size_t>(i)] = std::move(column);
  } else {
    fields.push_back(Field{name, column->type()});
    columns.push_back(std::move(column));
  }
  return Make(std::make_shared<Schema>(std::move(fields)), std::move(columns));
}

Result<TablePtr> Table::DropColumns(const std::vector<std::string>& names) const {
  std::vector<bool> drop(columns_.size(), false);
  for (const std::string& name : names) {
    int i = schema_->IndexOf(name);
    if (i < 0) return Status::KeyError("no column named '", name, "'");
    drop[static_cast<size_t>(i)] = true;
  }
  std::vector<Field> fields;
  std::vector<ArrayPtr> columns;
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (!drop[i]) {
      fields.push_back(schema_->field(static_cast<int>(i)));
      columns.push_back(columns_[i]);
    }
  }
  return Make(std::make_shared<Schema>(std::move(fields)), std::move(columns));
}

Result<TablePtr> Table::SelectColumns(
    const std::vector<std::string>& names) const {
  std::vector<Field> fields;
  std::vector<ArrayPtr> columns;
  for (const std::string& name : names) {
    int i = schema_->IndexOf(name);
    if (i < 0) return Status::KeyError("no column named '", name, "'");
    fields.push_back(schema_->field(i));
    columns.push_back(columns_[static_cast<size_t>(i)]);
  }
  return Make(std::make_shared<Schema>(std::move(fields)), std::move(columns));
}

Result<TablePtr> Table::RenameColumns(
    const std::vector<std::pair<std::string, std::string>>& renames) const {
  std::vector<Field> fields = schema_->fields();
  for (const auto& [old_name, new_name] : renames) {
    int i = schema_->IndexOf(old_name);
    if (i < 0) return Status::KeyError("no column named '", old_name, "'");
    fields[static_cast<size_t>(i)].name = new_name;
  }
  return Make(std::make_shared<Schema>(std::move(fields)), columns_);
}

Result<TablePtr> Table::Slice(int64_t offset, int64_t length) const {
  std::vector<ArrayPtr> columns;
  columns.reserve(columns_.size());
  for (const ArrayPtr& c : columns_) {
    BENTO_ASSIGN_OR_RETURN(auto sliced, c->Slice(offset, length));
    columns.push_back(std::move(sliced));
  }
  return Make(schema_, std::move(columns));
}

uint64_t Table::ByteSize() const {
  uint64_t total = 0;
  for (const ArrayPtr& c : columns_) total += c->ByteSize();
  return total;
}

std::string Table::ToString(int64_t max_rows) const {
  std::string out = schema_->ToString();
  out += "\n";
  int64_t shown = std::min(max_rows, num_rows_);
  for (int64_t r = 0; r < shown; ++r) {
    for (int c = 0; c < num_columns(); ++c) {
      if (c > 0) out += " | ";
      out += columns_[static_cast<size_t>(c)]->ValueToString(r);
    }
    out += "\n";
  }
  if (shown < num_rows_) {
    out += "... (" + std::to_string(num_rows_) + " rows total)\n";
  }
  return out;
}

namespace {

/// ORs bits [0, n) of `src` (all set when null) into the zeroed bitmap
/// `dst` starting at bit `at`, a byte at a time. Bits of `src` past `n` (a
/// byte-aligned slice shares its parent's bitmap) are masked off.
void CopyBits(const uint8_t* src, int64_t n, uint8_t* dst, int64_t at) {
  const int shift = static_cast<int>(at & 7);
  uint8_t* out = dst + (at >> 3);
  for (int64_t k = 0; k < BitmapBytes(n); ++k) {
    unsigned byte = src != nullptr ? src[k] : 0xFFu;
    if (k == n >> 3) byte &= (1u << (n & 7)) - 1;
    out[k] = static_cast<uint8_t>(out[k] | (byte << shift));
    // A non-zero spill-over holds bits below `at + n`, so it is in bounds.
    if (shift != 0 && (byte >> (8 - shift)) != 0) {
      out[k + 1] = static_cast<uint8_t>(out[k + 1] | (byte >> (8 - shift)));
    }
  }
}

/// Sets every byte of each null slot of `part` (`width` bytes apiece from
/// `dst`) to `fill`.
void FillNullSlots(const Array& part, uint8_t* dst, int64_t width,
                   uint8_t fill) {
  for (int64_t i = 0; i < part.length(); ++i) {
    if (!part.IsValid(i)) {
      std::memset(dst + i * width, fill, static_cast<size_t>(width));
    }
  }
}

/// Concatenates `parts` into one array with the bytes the builders would
/// produce appending value by value: null slots zeroed (codes -1, strings
/// empty), bools 0/1, a validity bitmap only when some value is null, and
/// categorical dictionaries merged by value in first-seen order. Buffers
/// copy in bulk; only bools, string parts whose null slots hold characters
/// and categorical parts whose codes change meaning go value by value.
Result<ArrayPtr> ConcatArrays(const std::vector<ArrayPtr>& parts, TypeId type) {
  int64_t total = 0;
  int64_t total_nulls = 0;
  std::vector<int64_t> nulls;
  nulls.reserve(parts.size());
  for (const ArrayPtr& a : parts) {
    nulls.push_back(a->length() -
                    CountSetBits(a->validity_bits(), a->length()));
    total += a->length();
    total_nulls += nulls.back();
  }
  BufferPtr validity;
  if (total_nulls > 0) {
    BENTO_ASSIGN_OR_RETURN(validity, AllocateBitmap(total, false));
    int64_t row = 0;
    for (const ArrayPtr& a : parts) {
      CopyBits(a->validity_bits(), a->length(), validity->mutable_data(), row);
      row += a->length();
    }
  }

  switch (type) {
    case TypeId::kInt64:
    case TypeId::kTimestamp:
    case TypeId::kFloat64:
    case TypeId::kBool: {
      const int64_t width = ByteWidth(type);
      BENTO_ASSIGN_OR_RETURN(
          auto data, Buffer::Allocate(static_cast<uint64_t>(total * width)));
      uint8_t* dst = data->mutable_data();
      for (size_t p = 0; p < parts.size(); ++p) {
        const Array& a = *parts[p];
        const int64_t n = a.length();
        if (n == 0) continue;
        if (type == TypeId::kBool) {
          for (int64_t i = 0; i < n; ++i) dst[i] = a.bool_data()[i] != 0;
        } else {
          std::memcpy(dst, a.data_buffer()->data(),
                      static_cast<size_t>(n * width));
        }
        if (nulls[p] > 0) FillNullSlots(a, dst, width, 0);
        dst += n * width;
      }
      return Array::MakeFixed(type, total, std::move(data), std::move(validity),
                              total_nulls);
    }
    case TypeId::kString: {
      // A part whose null slots are all empty copies its chars in one block;
      // one with characters under a null copies its valid values one by one.
      std::vector<int64_t> null_chars(parts.size(), 0);
      int64_t total_chars = 0;
      for (size_t p = 0; p < parts.size(); ++p) {
        const Array& a = *parts[p];
        const int64_t* off = a.offsets_data();
        for (int64_t i = 0; nulls[p] > 0 && i < a.length(); ++i) {
          if (!a.IsValid(i)) null_chars[p] += off[i + 1] - off[i];
        }
        total_chars += off[a.length()] - off[0] - null_chars[p];
      }
      BENTO_ASSIGN_OR_RETURN(
          auto offsets, Buffer::Allocate(static_cast<uint64_t>(total + 1) * 8));
      BENTO_ASSIGN_OR_RETURN(
          auto chars, Buffer::Allocate(static_cast<uint64_t>(total_chars)));
      int64_t* out_off = offsets->mutable_data_as<int64_t>();
      char* out_chars = reinterpret_cast<char*>(chars->mutable_data());
      int64_t pos = 0;
      for (size_t p = 0; p < parts.size(); ++p) {
        const Array& a = *parts[p];
        const int64_t* off = a.offsets_data();
        const int64_t n = a.length();
        if (null_chars[p] == 0) {
          const int64_t bytes = off[n] - off[0];
          if (bytes > 0) {
            std::memcpy(out_chars + pos, a.chars_data() + off[0],
                        static_cast<size_t>(bytes));
          }
          for (int64_t i = 1; i <= n; ++i) out_off[i] = off[i] - off[0] + pos;
          pos += bytes;
        } else {
          for (int64_t i = 0; i < n; ++i) {
            if (a.IsValid(i) && off[i + 1] > off[i]) {
              std::memcpy(out_chars + pos, a.chars_data() + off[i],
                          static_cast<size_t>(off[i + 1] - off[i]));
              pos += off[i + 1] - off[i];
            }
            out_off[i + 1] = pos;
          }
        }
        out_off += n;
      }
      return Array::MakeString(total, std::move(offsets), std::move(chars),
                               std::move(validity), total_nulls);
    }
    case TypeId::kCategorical: {
      // Dictionaries merge by value in first-seen order, each distinct one
      // mapped once per run of parts sharing it. A part whose codes keep
      // their meaning in the merged dictionary copies them in bulk; the
      // others are remapped code by code.
      auto merged = std::make_shared<std::vector<std::string>>();
      std::unordered_map<std::string_view, int32_t> lookup;
      std::vector<int32_t> remap;
      bool identity = false;
      const std::vector<std::string>* mapped = nullptr;
      BENTO_ASSIGN_OR_RETURN(
          auto codes, Buffer::Allocate(static_cast<uint64_t>(total) * 4));
      int32_t* dst = codes->mutable_data_as<int32_t>();
      for (size_t p = 0; p < parts.size(); ++p) {
        const Array& a = *parts[p];
        if (a.dictionary() != nullptr && a.dictionary().get() != mapped) {
          mapped = a.dictionary().get();
          remap.clear();
          identity = true;
          for (const std::string& value : *mapped) {
            auto [it, inserted] =
                lookup.emplace(value, static_cast<int32_t>(merged->size()));
            if (inserted) merged->push_back(value);
            identity =
                identity && static_cast<size_t>(it->second) == remap.size();
            remap.push_back(it->second);
          }
        }
        const int64_t n = a.length();
        if (n == 0) continue;
        const int32_t* src = a.codes_data();
        if (identity) {
          std::memcpy(dst, src, static_cast<size_t>(n) * 4);
        } else {
          for (int64_t i = 0; i < n; ++i) {
            if (a.IsValid(i)) dst[i] = remap[static_cast<size_t>(src[i])];
          }
        }
        if (nulls[p] > 0) {
          FillNullSlots(a, reinterpret_cast<uint8_t*>(dst), 4, 0xFF);
        }
        dst += n;
      }
      return Array::MakeCategorical(total, std::move(codes), std::move(merged),
                                    std::move(validity), total_nulls);
    }
  }
  return Status::Invalid("unknown type in concat");
}

}  // namespace

Result<TablePtr> ConcatTables(const std::vector<TablePtr>& tables) {
  std::vector<TablePtr> copy = tables;
  return ConcatTablesReleasing(&copy);
}

Result<TablePtr> ConcatTablesReleasing(std::vector<TablePtr>* tables) {
  BENTO_TRACE_SPAN(kKernel, "concat");
  if (tables->empty()) return Status::Invalid("cannot concat zero tables");
  const SchemaPtr schema = (*tables)[0]->schema();
  for (const auto& t : *tables) {
    if (!(*t->schema() == *schema)) {
      return Status::Invalid("schema mismatch in ConcatTables");
    }
  }
  if (tables->size() == 1) {
    TablePtr only = std::move((*tables)[0]);
    tables->clear();
    return only;
  }

  // Re-shape into per-column array lists, dropping the table handles so
  // each column's buffers can be released individually once merged.
  const int n_cols = schema->num_fields();
  std::vector<std::vector<ArrayPtr>> by_column(static_cast<size_t>(n_cols));
  for (auto& t : *tables) {
    for (int c = 0; c < n_cols; ++c) {
      by_column[static_cast<size_t>(c)].push_back(t->column(c));
    }
    t.reset();
  }
  tables->clear();

  std::vector<ArrayPtr> out_columns;
  for (int c = 0; c < n_cols; ++c) {
    BENTO_ASSIGN_OR_RETURN(
        auto merged,
        ConcatArrays(by_column[static_cast<size_t>(c)], schema->field(c).type));
    out_columns.push_back(std::move(merged));
    by_column[static_cast<size_t>(c)].clear();  // free the consumed sources
  }
  return Table::Make(schema, std::move(out_columns));
}

}  // namespace bento::col
