#include <gtest/gtest.h>

#include <algorithm>

#include "columnar/bitmap.h"
#include "columnar/builder.h"
#include "columnar/table.h"
#include "sim/memory.h"
#include "tests/test_util.h"
#include "util/random.h"

namespace bento::col {
namespace {

using test::Bools;
using test::ExpectSameBytes;
using test::F64;
using test::I64;
using test::MakeTable;
using test::RandomDictionary;
using test::RawArray;
using test::Str;

TEST(BufferTest, AllocateZeroInitialized) {
  auto buf = Buffer::Allocate(64).ValueOrDie();
  EXPECT_EQ(buf->size(), 64u);
  for (uint64_t i = 0; i < buf->size(); ++i) EXPECT_EQ(buf->data()[i], 0);
}

TEST(BufferTest, ChargesCurrentPool) {
  sim::MemoryPool pool("buf", 0);
  {
    sim::MemoryScope scope(&pool);
    auto buf = Buffer::Allocate(1000).ValueOrDie();
    EXPECT_EQ(pool.bytes_allocated(), 1000u);
  }
  EXPECT_EQ(pool.bytes_allocated(), 0u);  // released on destruction
}

TEST(BufferTest, BudgetedPoolFailsAllocation) {
  sim::MemoryPool pool("tiny", 100);
  sim::MemoryScope scope(&pool);
  EXPECT_TRUE(Buffer::Allocate(101).status().IsOutOfMemory());
  EXPECT_EQ(pool.bytes_allocated(), 0u);
}

TEST(BufferTest, SliceKeepsParentAlive) {
  BufferPtr view;
  {
    auto parent = Buffer::CopyOf("abcdefgh", 8).ValueOrDie();
    view = Buffer::Slice(parent, 2, 3);
  }
  EXPECT_EQ(std::string(reinterpret_cast<const char*>(view->data()), 3), "cde");
}

TEST(BitmapTest, SetClearCount) {
  auto bm = AllocateBitmap(20, false).ValueOrDie();
  EXPECT_EQ(CountSetBits(bm->data(), 20), 0);
  SetBit(bm->mutable_data(), 0);
  SetBit(bm->mutable_data(), 7);
  SetBit(bm->mutable_data(), 19);
  EXPECT_EQ(CountSetBits(bm->data(), 20), 3);
  EXPECT_TRUE(BitIsSet(bm->data(), 7));
  ClearBit(bm->mutable_data(), 7);
  EXPECT_FALSE(BitIsSet(bm->data(), 7));
  EXPECT_EQ(CountSetBits(bm->data(), 20), 2);
}

TEST(BitmapTest, AllocateAllSetClearsPadding) {
  auto bm = AllocateBitmap(13, true).ValueOrDie();
  EXPECT_EQ(CountSetBits(bm->data(), 13), 13);
  // Padding bits beyond 13 must be clear.
  EXPECT_EQ(CountSetBits(bm->data(), 16), 13);
}

TEST(BitmapTest, CountLargeWordPath) {
  auto bm = AllocateBitmap(1000, false).ValueOrDie();
  int64_t expected = 0;
  for (int64_t i = 0; i < 1000; i += 3) {
    SetBit(bm->mutable_data(), i);
    ++expected;
  }
  EXPECT_EQ(CountSetBits(bm->data(), 1000), expected);
  EXPECT_EQ(CountSetBits(nullptr, 17), 17);  // null bitmap = all valid
}

TEST(BitmapTest, BitmapAnd) {
  auto a = AllocateBitmap(10, true).ValueOrDie();
  auto b = AllocateBitmap(10, true).ValueOrDie();
  ClearBit(a->mutable_data(), 2);
  ClearBit(b->mutable_data(), 5);
  auto out = BitmapAnd(a->data(), b->data(), 10).ValueOrDie();
  EXPECT_EQ(CountSetBits(out->data(), 10), 8);
  EXPECT_FALSE(BitIsSet(out->data(), 2));
  EXPECT_FALSE(BitIsSet(out->data(), 5));
}

TEST(BuilderTest, Int64WithNulls) {
  auto a = I64({1, 2, 3}, {true, false, true});
  EXPECT_EQ(a->length(), 3);
  EXPECT_EQ(a->null_count(), 1);
  EXPECT_TRUE(a->IsValid(0));
  EXPECT_TRUE(a->IsNull(1));
  EXPECT_EQ(a->int64_data()[2], 3);
}

TEST(BuilderTest, NoNullsMeansNoBitmap) {
  auto a = I64({1, 2, 3});
  EXPECT_EQ(a->validity_bits(), nullptr);
  EXPECT_EQ(a->null_count(), 0);
}

TEST(BuilderTest, Strings) {
  auto a = Str({"", "hello", "wörld"}, {true, true, true});
  EXPECT_EQ(a->GetView(0), "");
  EXPECT_EQ(a->GetView(1), "hello");
  EXPECT_EQ(a->GetView(2), "wörld");
}

TEST(BuilderTest, CategoricalValidatesCodes) {
  CategoricalBuilder b;
  b.Append(0);
  b.Append(5);  // out of range for a 2-entry dictionary
  auto dict = std::make_shared<std::vector<std::string>>(
      std::vector<std::string>{"a", "b"});
  EXPECT_FALSE(b.Finish(dict).ok());
}

TEST(ArrayTest, ValueToString) {
  EXPECT_EQ(I64({42})->ValueToString(0), "42");
  EXPECT_EQ(F64({1.5})->ValueToString(0), "1.5");
  EXPECT_EQ(Bools({true})->ValueToString(0), "true");
  EXPECT_EQ(Str({"x"})->ValueToString(0), "x");
  EXPECT_EQ(I64({1}, {false})->ValueToString(0), "null");
}

TEST(ArrayTest, GetScalarBoxes) {
  auto a = F64({2.5}, {true});
  EXPECT_EQ(a->GetScalar(0).double_value(), 2.5);
  EXPECT_TRUE(I64({1}, {false})->GetScalar(0).is_null());
}

TEST(ArrayTest, SliceFixedWidthZeroCopy) {
  auto a = I64({10, 20, 30, 40, 50});
  auto s = a->Slice(1, 3).ValueOrDie();
  EXPECT_EQ(s->length(), 3);
  EXPECT_EQ(s->int64_data()[0], 20);
  EXPECT_EQ(s->int64_data()[2], 40);
  // Zero-copy: the slice points into the parent's buffer.
  EXPECT_EQ(s->int64_data(), a->int64_data() + 1);
}

TEST(ArrayTest, SliceStringsAndValidity) {
  auto a = Str({"a", "bb", "ccc", "dddd"}, {true, false, true, true});
  auto s = a->Slice(1, 3).ValueOrDie();
  EXPECT_EQ(s->length(), 3);
  EXPECT_TRUE(s->IsNull(0));
  EXPECT_EQ(s->GetView(1), "ccc");
  EXPECT_EQ(s->GetView(2), "dddd");
  EXPECT_EQ(s->null_count(), 1);
}

TEST(ArrayTest, SliceOutOfBounds) {
  auto a = I64({1, 2, 3});
  EXPECT_FALSE(a->Slice(2, 5).ok());
  EXPECT_FALSE(a->Slice(-1, 1).ok());
  EXPECT_TRUE(a->Slice(3, 0).ok());
}

TEST(ArrayTest, MakeAllNull) {
  for (TypeId t : {TypeId::kInt64, TypeId::kFloat64, TypeId::kBool,
                   TypeId::kString, TypeId::kTimestamp}) {
    auto a = Array::MakeAllNull(t, 4).ValueOrDie();
    EXPECT_EQ(a->length(), 4);
    EXPECT_EQ(a->null_count(), 4);
    EXPECT_TRUE(a->IsNull(0));
  }
}

TEST(SchemaTest, LookupAndNames) {
  Schema schema({{"a", TypeId::kInt64}, {"b", TypeId::kString}});
  EXPECT_EQ(schema.num_fields(), 2);
  EXPECT_EQ(schema.IndexOf("b"), 1);
  EXPECT_EQ(schema.IndexOf("zz"), -1);
  EXPECT_TRUE(schema.Contains("a"));
  EXPECT_FALSE(schema.GetField("zz").ok());
  EXPECT_EQ(schema.names(), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(schema.ToString(), "a: int64, b: string");
}

TEST(TableTest, MakeValidations) {
  auto schema = std::make_shared<Schema>(
      std::vector<Field>{{"a", TypeId::kInt64}, {"b", TypeId::kString}});
  // Length mismatch.
  EXPECT_FALSE(Table::Make(schema, {I64({1, 2}), Str({"x"})}).ok());
  // Type mismatch.
  EXPECT_FALSE(Table::Make(schema, {Str({"x"}), Str({"y"})}).ok());
  // Column count mismatch.
  EXPECT_FALSE(Table::Make(schema, {I64({1})}).ok());
}

TEST(TableTest, ColumnOperations) {
  auto t = MakeTable({{"a", I64({1, 2})}, {"b", Str({"x", "y"})}});
  EXPECT_EQ(t->GetColumn("a").ValueOrDie()->int64_data()[1], 2);
  EXPECT_FALSE(t->GetColumn("zz").ok());

  auto with_c = t->SetColumn("c", F64({0.5, 1.5})).ValueOrDie();
  EXPECT_EQ(with_c->num_columns(), 3);
  auto replaced = with_c->SetColumn("a", F64({9.0, 8.0})).ValueOrDie();
  EXPECT_EQ(replaced->schema()->GetField("a").ValueOrDie().type,
            TypeId::kFloat64);

  auto dropped = with_c->DropColumns({"b"}).ValueOrDie();
  EXPECT_EQ(dropped->num_columns(), 2);
  EXPECT_FALSE(with_c->DropColumns({"zz"}).ok());

  auto selected = with_c->SelectColumns({"c", "a"}).ValueOrDie();
  EXPECT_EQ(selected->schema()->field(0).name, "c");

  auto renamed = t->RenameColumns({{"a", "alpha"}}).ValueOrDie();
  EXPECT_TRUE(renamed->schema()->Contains("alpha"));
  EXPECT_FALSE(t->RenameColumns({{"zz", "w"}}).ok());
}

TEST(TableTest, SliceAndByteSize) {
  auto t = MakeTable({{"a", I64({1, 2, 3, 4})}, {"b", Str({"p", "q", "r", "s"})}});
  auto s = t->Slice(1, 2).ValueOrDie();
  EXPECT_EQ(s->num_rows(), 2);
  EXPECT_EQ(s->column(0)->int64_data()[0], 2);
  EXPECT_GT(t->ByteSize(), 0u);
}

TEST(TableTest, ConcatTables) {
  auto t1 = MakeTable({{"a", I64({1, 2})}, {"b", Str({"x", "y"})}});
  auto t2 = MakeTable({{"a", I64({3}, {false})}, {"b", Str({"z"})}});
  auto cat = ConcatTables({t1, t2}).ValueOrDie();
  EXPECT_EQ(cat->num_rows(), 3);
  EXPECT_TRUE(cat->column(0)->IsNull(2));
  EXPECT_EQ(cat->column(1)->GetView(2), "z");
}

TEST(TableTest, ConcatRejectsSchemaMismatch) {
  auto t1 = MakeTable({{"a", I64({1})}});
  auto t2 = MakeTable({{"b", I64({1})}});
  EXPECT_FALSE(ConcatTables({t1, t2}).ok());
  EXPECT_FALSE(ConcatTables({}).ok());
}

// --- concat differential ---

/// Appends `get(part, i)` of every slot through a `Builder`, null slots as
/// builder nulls.
template <typename Builder, typename Get>
ArrayPtr AppendEach(const std::vector<ArrayPtr>& parts, Get get) {
  Builder b;
  for (const ArrayPtr& a : parts) {
    for (int64_t i = 0; i < a->length(); ++i) {
      b.AppendMaybe(get(*a, i), a->IsValid(i));
    }
  }
  return b.Finish().ValueOrDie();
}

/// Element-wise concatenation through the builders: every valid value is
/// appended, every null slot becomes a builder null. Bulk ConcatTables must
/// produce the same bytes.
ArrayPtr ReferenceConcat(const std::vector<ArrayPtr>& parts, TypeId type) {
  auto ints = [](const Array& a, int64_t i) { return a.int64_data()[i]; };
  switch (type) {
    case TypeId::kInt64:
      return AppendEach<Int64Builder>(parts, ints);
    case TypeId::kTimestamp:
      return AppendEach<TimestampBuilder>(parts, ints);
    case TypeId::kFloat64:
      return AppendEach<Float64Builder>(
          parts, [](const Array& a, int64_t i) { return a.float64_data()[i]; });
    case TypeId::kBool:
      return AppendEach<BoolBuilder>(parts, [](const Array& a, int64_t i) {
        return a.bool_data()[i] != 0;
      });
    case TypeId::kString:
      return AppendEach<StringBuilder>(
          parts, [](const Array& a, int64_t i) { return a.GetView(i); });
    case TypeId::kCategorical: {
      // Dictionaries merge by value, in first-seen order.
      auto merged = std::make_shared<std::vector<std::string>>();
      CategoricalBuilder b;
      for (const ArrayPtr& a : parts) {
        std::vector<int32_t> remap;
        for (const std::string& value : *a->dictionary()) {
          auto it = std::find(merged->begin(), merged->end(), value);
          remap.push_back(static_cast<int32_t>(it - merged->begin()));
          if (it == merged->end()) merged->push_back(value);
        }
        for (int64_t i = 0; i < a->length(); ++i) {
          if (a->IsValid(i)) {
            b.Append(remap[static_cast<size_t>(a->codes_data()[i])]);
          } else {
            b.AppendNull();
          }
        }
      }
      return b.Finish(std::move(merged)).ValueOrDie();
    }
  }
  return nullptr;
}

/// Bulk concat against the element-wise builder reference for all six
/// types: whole arrays and slices at aligned and unaligned offsets (aligned
/// slices share a bitmap whose bits run past the slice), zero-length parts,
/// parts with no bitmap, an all-set bitmap, some or only nulls, garbage in
/// null slots, and categoricals that share one dictionary or bring their
/// own.
TEST(ConcatDifferentialTest, BulkCopyMatchesElementwiseReference) {
  const TypeId kTypes[] = {TypeId::kInt64,   TypeId::kFloat64,
                           TypeId::kBool,    TypeId::kString,
                           TypeId::kTimestamp, TypeId::kCategorical};
  for (TypeId type : kTypes) {
    for (uint64_t seed = 0; seed < 60; ++seed) {
      SCOPED_TRACE(std::string(TypeName(type)) + " seed " +
                   std::to_string(seed));
      Rng rng(seed * 31 + static_cast<uint64_t>(type));
      const bool hostile = seed % 2 == 1;
      const bool shared_dict = seed % 3 != 0;
      Dictionary dict = RandomDictionary(&rng);
      std::vector<ArrayPtr> parts;
      const int n_parts = static_cast<int>(rng.UniformInt(2, 7));
      for (int p = 0; p < n_parts; ++p) {
        const double null_frac =
            std::vector<double>{0.0, 0.0, 0.3, 1.0}[rng.Uniform(4)];
        const int64_t n = rng.UniformInt(0, 300);
        ArrayPtr a = RawArray(type, n, null_frac, hostile,
                              shared_dict ? dict : RandomDictionary(&rng),
                              &rng);
        if (n > 0 && rng.Bernoulli(0.6)) {
          const int64_t offset =
              rng.Bernoulli(0.5) ? 8 * rng.UniformInt(0, n / 8)
                                 : rng.UniformInt(0, n);
          a = a->Slice(offset, rng.UniformInt(0, n - offset)).ValueOrDie();
        }
        parts.push_back(std::move(a));
      }
      std::vector<TablePtr> tables;
      for (const ArrayPtr& a : parts) tables.push_back(MakeTable({{"c", a}}));
      auto cat = ConcatTables(tables).ValueOrDie();
      ExpectSameBytes(ReferenceConcat(parts, type), cat->column(0));
    }
  }
}

/// A shared dictionary that repeats a value still merges by value: the
/// codes of the repeat fold onto the first occurrence, as element-wise
/// concatenation always did.
TEST(ConcatDifferentialTest, SharedDictionaryWithRepeatsMergesByValue) {
  Dictionary dict =
      std::make_shared<std::vector<std::string>>(std::vector<std::string>{
          "x", "y", "x"});
  CategoricalBuilder b;
  for (int32_t code : {0, 1, 2, 2}) b.Append(code);
  ArrayPtr a = b.Finish(dict).ValueOrDie();
  ArrayPtr head = a->Slice(0, 2).ValueOrDie();
  ArrayPtr tail = a->Slice(2, 2).ValueOrDie();
  auto cat = ConcatTables({MakeTable({{"c", head}}), MakeTable({{"c", tail}})})
                 .ValueOrDie();
  ExpectSameBytes(ReferenceConcat({head, tail}, TypeId::kCategorical),
                  cat->column(0));
  EXPECT_EQ(*cat->column(0)->dictionary(),
            (std::vector<std::string>{"x", "y"}));
}

TEST(TableTest, ToStringTruncates) {
  auto t = MakeTable({{"a", I64({1, 2, 3, 4, 5})}});
  std::string s = t->ToString(2);
  EXPECT_NE(s.find("(5 rows total)"), std::string::npos);
}

TEST(ScalarTest, KindsAndConversions) {
  EXPECT_TRUE(Scalar::Null().is_null());
  EXPECT_EQ(Scalar::Int(4).AsDouble().ValueOrDie(), 4.0);
  EXPECT_EQ(Scalar::Double(2.9).AsInt().ValueOrDie(), 2);
  EXPECT_EQ(Scalar::Bool(true).AsDouble().ValueOrDie(), 1.0);
  EXPECT_FALSE(Scalar::Str("x").AsDouble().ok());
  EXPECT_EQ(Scalar::Int(3), Scalar::Double(3.0));  // numeric cross-equality
  EXPECT_EQ(Scalar::Str("a"), Scalar::Str("a"));
  EXPECT_FALSE(Scalar::Str("a") == Scalar::Int(1));
}

}  // namespace
}  // namespace bento::col
