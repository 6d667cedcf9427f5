#ifndef BENTO_TESTS_TEST_UTIL_H_
#define BENTO_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <bit>
#include <cstring>
#include <string>
#include <vector>

#include "columnar/builder.h"
#include "columnar/table.h"
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
    std::string v = "v" + std::to_string(rng->Uniform(20));
    if (std::find(dict->begin(), dict->end(), v) == dict->end()) {
      dict->push_back(v);
    }
  }
  return dict;
}

/// The rows of `a` at `rows` appended one by one through the builders, null
/// slots as builder nulls: the bytes every gather must reproduce.
inline col::ArrayPtr BuilderGather(const col::ArrayPtr& a,
                                   const std::vector<int64_t>& rows) {
  auto append_each = [&](auto builder, auto get) {
    for (int64_t r : rows) builder.AppendMaybe(get(r), a->IsValid(r));
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
        if (a->IsValid(r)) {
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

}  // namespace bento::test

#endif  // BENTO_TESTS_TEST_UTIL_H_
