#ifndef BENTO_TESTS_TEST_UTIL_H_
#define BENTO_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <charconv>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "columnar/builder.h"
#include "columnar/table.h"
#include "io/csv.h"
#include "kernels/sort.h"
#include "util/random.h"

namespace bento::test {

#define ASSERT_OK(expr)                                 \
  do {                                                  \
    auto _st = (expr);                                  \
    ASSERT_TRUE(_st.ok()) << _st.ToString();            \
  } while (false)

#define EXPECT_OK(expr)                                 \
  do {                                                  \
    auto _st = (expr);                                  \
    EXPECT_TRUE(_st.ok()) << _st.ToString();            \
  } while (false)

#define ASSERT_OK_AND_ASSIGN(lhs, rexpr)                          \
  ASSERT_OK_AND_ASSIGN_IMPL(BENTO_CONCAT(_r_, __COUNTER__), lhs, rexpr)

#define ASSERT_OK_AND_ASSIGN_IMPL(tmp, lhs, rexpr)                \
  auto tmp = (rexpr);                                             \
  ASSERT_TRUE(tmp.ok()) << tmp.status().ToString();               \
  lhs = std::move(tmp).ValueOrDie();

// --- column construction helpers (null encoded via optional-like flag) ----

inline col::ArrayPtr I64(const std::vector<int64_t>& values,
                         const std::vector<bool>& valid = {}) {
  col::Int64Builder b;
  for (size_t i = 0; i < values.size(); ++i) {
    b.AppendMaybe(values[i], valid.empty() || valid[i]);
  }
  return b.Finish().ValueOrDie();
}

inline col::ArrayPtr F64(const std::vector<double>& values,
                         const std::vector<bool>& valid = {}) {
  col::Float64Builder b;
  for (size_t i = 0; i < values.size(); ++i) {
    b.AppendMaybe(values[i], valid.empty() || valid[i]);
  }
  return b.Finish().ValueOrDie();
}

inline col::ArrayPtr Str(const std::vector<std::string>& values,
                         const std::vector<bool>& valid = {}) {
  col::StringBuilder b;
  for (size_t i = 0; i < values.size(); ++i) {
    b.AppendMaybe(values[i], valid.empty() || valid[i]);
  }
  return b.Finish().ValueOrDie();
}

inline col::ArrayPtr Bools(const std::vector<bool>& values,
                           const std::vector<bool>& valid = {}) {
  col::BoolBuilder b;
  for (size_t i = 0; i < values.size(); ++i) {
    b.AppendMaybe(values[i], valid.empty() || valid[i]);
  }
  return b.Finish().ValueOrDie();
}

inline col::TablePtr MakeTable(
    const std::vector<std::pair<std::string, col::ArrayPtr>>& columns) {
  std::vector<col::Field> fields;
  std::vector<col::ArrayPtr> arrays;
  for (const auto& [name, array] : columns) {
    fields.push_back({name, array->type()});
    arrays.push_back(array);
  }
  return col::Table::Make(std::make_shared<col::Schema>(std::move(fields)),
                          std::move(arrays))
      .ValueOrDie();
}

/// Cell as display string with categorical decoded; the comparison unit.
inline std::string CellStr(const col::Array& a, int64_t i) {
  return a.IsNull(i) ? std::string("null") : a.ValueToString(i);
}

/// Asserts equal schema names and cell-by-cell equality (categorical and
/// string columns compare by value).
inline void ExpectTablesEqual(const col::TablePtr& expected,
                              const col::TablePtr& actual) {
  ASSERT_EQ(expected->num_columns(), actual->num_columns());
  ASSERT_EQ(expected->num_rows(), actual->num_rows());
  for (int c = 0; c < expected->num_columns(); ++c) {
    EXPECT_EQ(expected->schema()->field(c).name,
              actual->schema()->field(c).name);
    for (int64_t r = 0; r < expected->num_rows(); ++r) {
      EXPECT_EQ(CellStr(*expected->column(c), r), CellStr(*actual->column(c), r))
          << "column " << expected->schema()->field(c).name << " row " << r;
    }
  }
}

/// Order-insensitive comparison: both tables are sorted by `keys` first.
inline void ExpectTablesEquivalent(const col::TablePtr& expected,
                                   const col::TablePtr& actual,
                                   const std::vector<std::string>& keys) {
  std::vector<kern::SortKey> sort_keys;
  for (const std::string& k : keys) sort_keys.push_back({k, true});
  auto se = kern::SortTable(expected, sort_keys);
  auto sa = kern::SortTable(actual, sort_keys);
  ASSERT_TRUE(se.ok()) << se.status().ToString();
  ASSERT_TRUE(sa.ok()) << sa.status().ToString();
  ExpectTablesEqual(se.ValueOrDie(), sa.ValueOrDie());
}

// --- byte-level references ------------------------------------------------

/// Asserts byte identity: length, cached null count, validity presence and
/// bytes, data / offsets bytes, dictionary values and ByteSize.
inline void ExpectSameBytes(const col::ArrayPtr& expected,
                            const col::ArrayPtr& actual) {
  ASSERT_EQ(expected->type(), actual->type());
  ASSERT_EQ(expected->length(), actual->length());
  EXPECT_EQ(expected->cached_null_count(), actual->cached_null_count());
  EXPECT_EQ(expected->ByteSize(), actual->ByteSize());
  auto same = [](const col::BufferPtr& a, const col::BufferPtr& b,
                 const char* what) {
    ASSERT_EQ(a == nullptr, b == nullptr) << what;
    if (a == nullptr) return;
    ASSERT_EQ(a->size(), b->size()) << what;
    EXPECT_TRUE(a->size() == 0 ||
                std::memcmp(a->data(), b->data(), a->size()) == 0)
        << what;
  };
  same(expected->validity_buffer(), actual->validity_buffer(), "validity");
  same(expected->data_buffer(), actual->data_buffer(), "data");
  same(expected->offsets_buffer(), actual->offsets_buffer(), "offsets");
  if (expected->type() == col::TypeId::kCategorical) {
    EXPECT_EQ(*expected->dictionary(), *actual->dictionary());
  }
}

/// ExpectSameBytes over every column, plus equal schemas.
inline void ExpectSameTableBytes(const col::TablePtr& expected,
                                 const col::TablePtr& actual) {
  ASSERT_TRUE(*expected->schema() == *actual->schema());
  ASSERT_EQ(expected->num_rows(), actual->num_rows());
  for (int c = 0; c < expected->num_columns(); ++c) {
    SCOPED_TRACE("column " + expected->schema()->field(c).name);
    ExpectSameBytes(expected->column(c), actual->column(c));
  }
}

/// Validity bitmap of `n` bits with about `null_frac` of them cleared, or
/// nullptr when none are; `dense` keeps an all-set bitmap anyway.
inline col::BufferPtr RandomValidity(int64_t n, double null_frac, bool dense,
                                     Rng* rng) {
  auto bits = col::AllocateBitmap(n, true).ValueOrDie();
  bool any_null = false;
  for (int64_t i = 0; i < n; ++i) {
    if (rng->Bernoulli(null_frac)) {
      col::ClearBit(bits->mutable_data(), i);
      any_null = true;
    }
  }
  return any_null || dense ? bits : nullptr;
}

/// A raw `type` array of `n` rows. `hostile` fills null slots with
/// garbage: random bytes under fixed-width nulls, characters under string
/// nulls, out-of-range codes under categorical nulls, and bool bytes other
/// than 0/1 in every slot.
inline col::ArrayPtr RawArray(col::TypeId type, int64_t n, double null_frac,
                              bool hostile, const col::Dictionary& dict,
                              Rng* rng) {
  col::BufferPtr validity =
      RandomValidity(n, null_frac, rng->Bernoulli(0.3), rng);
  auto valid = [&](int64_t i) {
    return validity == nullptr || col::BitIsSet(validity->data(), i);
  };
  switch (type) {
    case col::TypeId::kString: {
      auto offsets =
          col::Buffer::Allocate(static_cast<uint64_t>(n + 1) * 8).ValueOrDie();
      std::string chars;
      int64_t* off = offsets->mutable_data_as<int64_t>();
      off[0] = 0;
      for (int64_t i = 0; i < n; ++i) {
        if (valid(i) || (hostile && rng->Bernoulli(0.5))) {
          chars += rng->AsciiString(0, 9);
        }
        off[i + 1] = static_cast<int64_t>(chars.size());
      }
      return col::Array::MakeString(
                 n, offsets,
                 col::Buffer::CopyOf(chars.data(), chars.size()).ValueOrDie(),
                 validity)
          .ValueOrDie();
    }
    case col::TypeId::kCategorical: {
      auto codes =
          col::Buffer::Allocate(static_cast<uint64_t>(n) * 4).ValueOrDie();
      for (int64_t i = 0; i < n; ++i) {
        codes->mutable_data_as<int32_t>()[i] =
            valid(i) || !hostile
                ? static_cast<int32_t>(rng->Uniform(dict->size()))
                : static_cast<int32_t>(rng->Next() >> 40) + 1000;
      }
      return col::Array::MakeCategorical(n, codes, dict, validity)
          .ValueOrDie();
    }
    default: {
      const uint64_t width = static_cast<uint64_t>(col::ByteWidth(type));
      auto data = col::Buffer::Allocate(static_cast<uint64_t>(n) * width)
                      .ValueOrDie();
      for (int64_t i = 0; i < n; ++i) {
        uint8_t* slot = data->mutable_data() + static_cast<uint64_t>(i) * width;
        if (type == col::TypeId::kBool) {
          *slot = static_cast<uint8_t>(hostile ? rng->Uniform(256)
                                               : rng->Uniform(2));
        } else if (valid(i) || hostile) {
          const uint64_t bits = type == col::TypeId::kFloat64
                                    ? std::bit_cast<uint64_t>(
                                          rng->UniformDouble(-1e6, 1e6))
                                    : rng->Next();
          std::memcpy(slot, &bits, 8);
        }
      }
      return col::Array::MakeFixed(type, n, data, validity).ValueOrDie();
    }
  }
}

/// A random dictionary of distinct values.
inline col::Dictionary RandomDictionary(Rng* rng) {
  auto dict = std::make_shared<std::vector<std::string>>();
  const int size = static_cast<int>(rng->UniformInt(1, 12));
  while (dict->size() < static_cast<size_t>(size)) {
    std::string v = "v";
    v += std::to_string(rng->Uniform(20));
    if (std::find(dict->begin(), dict->end(), v) == dict->end()) {
      dict->push_back(v);
    }
  }
  return dict;
}

/// The rows of `a` at `rows` appended one by one through the builders, null
/// slots and rows of -1 as builder nulls: the bytes every gather must
/// reproduce.
inline col::ArrayPtr BuilderGather(const col::ArrayPtr& a,
                                   const std::vector<int64_t>& rows) {
  auto valid = [&](int64_t r) { return r >= 0 && a->IsValid(r); };
  auto append_each = [&](auto builder, auto get) {
    for (int64_t r : rows) {
      if (valid(r)) {
        builder.Append(get(r));
      } else {
        builder.AppendNull();
      }
    }
    return builder.Finish().ValueOrDie();
  };
  auto ints = [&](int64_t r) { return a->int64_data()[r]; };
  switch (a->type()) {
    case col::TypeId::kInt64:
      return append_each(col::Int64Builder(), ints);
    case col::TypeId::kTimestamp:
      return append_each(col::TimestampBuilder(), ints);
    case col::TypeId::kFloat64:
      return append_each(col::Float64Builder(),
                         [&](int64_t r) { return a->float64_data()[r]; });
    case col::TypeId::kBool:
      return append_each(col::BoolBuilder(),
                         [&](int64_t r) { return a->bool_data()[r] != 0; });
    case col::TypeId::kString:
      return append_each(col::StringBuilder(),
                         [&](int64_t r) { return a->GetView(r); });
    case col::TypeId::kCategorical: {
      col::CategoricalBuilder b;
      for (int64_t r : rows) {
        if (valid(r)) {
          b.Append(a->codes_data()[r]);
        } else {
          b.AppendNull();
        }
      }
      return b.Finish(a->dictionary()).ValueOrDie();
    }
  }
  return nullptr;
}

/// BuilderGather over every column of `t`.
inline col::TablePtr BuilderGatherTable(const col::TablePtr& t,
                                        const std::vector<int64_t>& rows) {
  std::vector<col::ArrayPtr> columns;
  for (const col::ArrayPtr& c : t->columns()) {
    columns.push_back(BuilderGather(c, rows));
  }
  return col::Table::Make(t->schema(), std::move(columns)).ValueOrDie();
}

// --- CSV text references ----------------------------------------------------

/// FNV-1a over `bytes`, continuing from `h`: the digest of golden bytes.
inline uint64_t Fnv1a(std::string_view bytes,
                      uint64_t h = 0xcbf29ce484222325ULL) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Digest of everything ExpectSameTableBytes compares: field names and
/// types, row count, and per column the cached null count and the validity,
/// data and offsets bytes (each marked present or absent) and dictionary.
inline uint64_t TableDigest(const col::TablePtr& t, uint64_t h = 0) {
  auto mix = [&](std::string_view bytes) { h = Fnv1a(bytes, h); };
  auto mix_int = [&](int64_t v) {
    mix(std::string_view(reinterpret_cast<const char*>(&v), sizeof(v)));
  };
  auto mix_buffer = [&](const col::BufferPtr& b) {
    mix_int(b == nullptr ? -1 : static_cast<int64_t>(b->size()));
    if (b != nullptr && b->size() > 0) {
      mix(std::string_view(reinterpret_cast<const char*>(b->data()),
                           static_cast<size_t>(b->size())));
    }
  };
  mix_int(t->num_rows());
  for (int c = 0; c < t->num_columns(); ++c) {
    const col::ArrayPtr& a = t->column(c);
    mix(t->schema()->field(c).name);
    mix_int(static_cast<int64_t>(a->type()));
    mix_int(a->cached_null_count());
    mix_buffer(a->validity_buffer());
    mix_buffer(a->data_buffer());
    mix_buffer(a->offsets_buffer());
    if (a->type() == col::TypeId::kCategorical) {
      for (const std::string& v : *a->dictionary()) {
        mix_int(static_cast<int64_t>(v.size()));
        mix(v);
      }
    }
  }
  return h;
}

/// The CSV readers' text contract, decoded one field at a time through the
/// column builders: the reference every reader is checked against. `text`
/// is a whole file and `schema` types all of its columns; the result drops
/// `options.drop_columns`.
///
/// Records end at a newline outside quotes (each '"' toggles), lose one
/// trailing '\r', and are skipped when left empty. A field opening with
/// '"' runs to its closing quote, doubled quotes unescaping, and is
/// literal content; when the closing quote is not followed by the
/// delimiter, the record ends there. Other fields run to the next
/// delimiter and are null when they equal a null literal. Missing fields
/// are null, unparsable numbers and bools are null, categorical codes are
/// first-seen, and types without a text decoding read as strings.
inline col::TablePtr ReferenceReadCsv(std::string_view text,
                                      const io::CsvReadOptions& options,
                                      const col::SchemaPtr& schema) {
  if (options.has_header) {
    const size_t nl = text.find('\n');
    text = nl == std::string_view::npos ? std::string_view()
                                        : text.substr(nl + 1);
  }
  std::vector<std::string_view> records;
  size_t start = 0;
  bool in_quotes = false;
  for (size_t i = 0; i <= text.size(); ++i) {
    if (i < text.size() && (text[i] != '\n' || in_quotes)) {
      if (text[i] == '"') in_quotes = !in_quotes;
      continue;
    }
    std::string_view record = text.substr(start, i - start);
    if (!record.empty() && record.back() == '\r') record.remove_suffix(1);
    if (!record.empty()) records.push_back(record);
    start = i + 1;
    in_quotes = false;
  }
  struct Field {
    std::string value;
    bool quoted;
  };
  auto split = [&](std::string_view record) {
    std::vector<Field> fields;
    size_t pos = 0;
    while (true) {
      if (pos < record.size() && record[pos] == '"') {
        Field f{"", true};
        for (++pos; pos < record.size(); ++pos) {
          if (record[pos] != '"') {
            f.value += record[pos];
          } else if (pos + 1 < record.size() && record[pos + 1] == '"') {
            f.value += '"';
            ++pos;
          } else {
            ++pos;
            break;
          }
        }
        fields.push_back(std::move(f));
        if (pos < record.size() && record[pos] == options.delimiter) {
          ++pos;
          continue;
        }
        return fields;
      }
      const size_t next = record.find(options.delimiter, pos);
      fields.push_back({std::string(record.substr(pos, next - pos)), false});
      if (next == std::string_view::npos) return fields;
      pos = next + 1;
    }
  };
  std::vector<std::vector<Field>> rows;
  for (std::string_view record : records) rows.push_back(split(record));

  std::vector<col::Field> out_fields;
  std::vector<col::ArrayPtr> columns;
  for (int c = 0; c < schema->num_fields(); ++c) {
    const col::Field& field = schema->field(c);
    if (std::find(options.drop_columns.begin(), options.drop_columns.end(),
                  field.name) != options.drop_columns.end()) {
      continue;
    }
    // The cell of each row, or nullopt when it is missing or a bare null
    // literal.
    std::vector<std::optional<std::string>> cells;
    for (const std::vector<Field>& fields : rows) {
      const size_t f = static_cast<size_t>(c);
      if (f >= fields.size() ||
          (!fields[f].quoted &&
           std::find(options.null_literals.begin(), options.null_literals.end(),
                     fields[f].value) != options.null_literals.end())) {
        cells.emplace_back();
      } else {
        cells.emplace_back(fields[f].value);
      }
    }
    auto parse = [](const std::optional<std::string>& cell, auto* out) {
      if (!cell) return false;
      const char* end = cell->data() + cell->size();
      auto [p, ec] = std::from_chars(cell->data(), end, *out);
      return ec == std::errc() && p == end;
    };
    col::ArrayPtr array;
    switch (field.type) {
      case col::TypeId::kInt64: {
        col::Int64Builder b;
        for (const auto& cell : cells) {
          int64_t v = 0;
          const bool valid = parse(cell, &v);
          b.AppendMaybe(v, valid);
        }
        array = b.Finish().ValueOrDie();
        break;
      }
      case col::TypeId::kFloat64: {
        col::Float64Builder b;
        for (const auto& cell : cells) {
          double v = 0.0;
          const bool valid = parse(cell, &v);
          b.AppendMaybe(v, valid);
        }
        array = b.Finish().ValueOrDie();
        break;
      }
      case col::TypeId::kBool: {
        col::BoolBuilder b;
        for (const auto& cell : cells) {
          const bool is_true = cell && (*cell == "true" || *cell == "True");
          b.AppendMaybe(is_true, is_true || (cell && (*cell == "false" ||
                                                      *cell == "False")));
        }
        array = b.Finish().ValueOrDie();
        break;
      }
      case col::TypeId::kCategorical: {
        auto dict = std::make_shared<std::vector<std::string>>();
        col::CategoricalBuilder b;
        for (const auto& cell : cells) {
          if (!cell) {
            b.AppendNull();
            continue;
          }
          auto it = std::find(dict->begin(), dict->end(), *cell);
          b.Append(static_cast<int32_t>(it - dict->begin()));
          if (it == dict->end()) dict->push_back(*cell);
        }
        array = b.Finish(dict).ValueOrDie();
        break;
      }
      default: {
        col::StringBuilder b;
        for (const auto& cell : cells) b.AppendMaybe(cell.value_or(""), !!cell);
        array = b.Finish().ValueOrDie();
      }
    }
    out_fields.push_back({field.name, array->type()});
    columns.push_back(std::move(array));
  }
  return col::Table::Make(std::make_shared<col::Schema>(std::move(out_fields)),
                          std::move(columns))
      .ValueOrDie();
}

}  // namespace bento::test

#endif  // BENTO_TESTS_TEST_UTIL_H_
