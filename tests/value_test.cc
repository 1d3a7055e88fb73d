#include "common/value.h"

#include <gtest/gtest.h>

#include <unordered_set>

#include "common/row.h"

namespace qpi {
namespace {

TEST(Value, DefaultIsNull) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_EQ(v.type(), ValueType::kNull);
  EXPECT_EQ(v.ToString(), "NULL");
}

TEST(Value, Int64RoundTrip) {
  Value v(int64_t{42});
  EXPECT_EQ(v.type(), ValueType::kInt64);
  EXPECT_EQ(v.AsInt64(), 42);
  EXPECT_EQ(v.ToString(), "42");
}

TEST(Value, DoubleRoundTrip) {
  Value v(2.5);
  EXPECT_EQ(v.type(), ValueType::kDouble);
  EXPECT_DOUBLE_EQ(v.AsDouble(), 2.5);
}

TEST(Value, StringRoundTrip) {
  Value v(std::string("hello"));
  EXPECT_EQ(v.type(), ValueType::kString);
  EXPECT_EQ(v.AsString(), "hello");
  EXPECT_EQ(v.ToString(), "hello");
}

TEST(Value, IntAsDoubleWidens) {
  Value v(int64_t{7});
  EXPECT_DOUBLE_EQ(v.AsDouble(), 7.0);
}

TEST(Value, CompareIntegers) {
  EXPECT_LT(Value(int64_t{1}), Value(int64_t{2}));
  EXPECT_EQ(Value(int64_t{5}), Value(int64_t{5}));
  EXPECT_GT(Value(int64_t{9}), Value(int64_t{-9}));
}

TEST(Value, CompareCrossNumericTypes) {
  EXPECT_EQ(Value(int64_t{3}), Value(3.0));
  EXPECT_LT(Value(int64_t{3}), Value(3.5));
  EXPECT_GT(Value(4.5), Value(int64_t{4}));
}

TEST(Value, CompareStrings) {
  EXPECT_LT(Value(std::string("abc")), Value(std::string("abd")));
  EXPECT_EQ(Value(std::string("x")), Value(std::string("x")));
}

TEST(Value, NullSortsFirstAndEqualsNull) {
  EXPECT_LT(Value::Null(), Value(int64_t{0}));
  EXPECT_LT(Value::Null(), Value(std::string("")));
  EXPECT_EQ(Value::Null(), Value::Null());
}

TEST(Value, HashEqualValuesAgree) {
  EXPECT_EQ(Value(int64_t{123}).Hash(), Value(int64_t{123}).Hash());
  EXPECT_EQ(Value(std::string("ab")).Hash(), Value(std::string("ab")).Hash());
  // Cross-type equality implies equal hash for integral doubles.
  EXPECT_EQ(Value(int64_t{9}).Hash(), Value(9.0).Hash());
}

TEST(Value, HashSpreadsOverDomain) {
  std::unordered_set<uint64_t> hashes;
  for (int64_t i = 0; i < 1000; ++i) hashes.insert(Value(i).Hash());
  EXPECT_EQ(hashes.size(), 1000u);  // no collisions on a small dense domain
}

TEST(Row, AssignConcatPreservesOrderAndReusesStorage) {
  Row a = {Value(int64_t{1}), Value(std::string("left"))};
  Row b = {Value(std::string("right")), Value(2.5)};
  Row slot;
  AssignConcat(&slot, a, b);
  ASSERT_EQ(slot.size(), 4u);
  EXPECT_EQ(slot[0].AsInt64(), 1);
  EXPECT_EQ(slot[1].AsString(), "left");
  EXPECT_EQ(slot[2].AsString(), "right");
  EXPECT_EQ(slot[3].AsDouble(), 2.5);

  // A refill of the same width writes over the same storage.
  const Value* storage = slot.data();
  Row c = {Value(int64_t{7}), Value(std::string("l2"))};
  Row d = {Value(std::string("r2")), Value(-1.0)};
  AssignConcat(&slot, c, d);
  EXPECT_EQ(slot.data(), storage);
  EXPECT_EQ(RowToString(slot), RowToString({c[0], c[1], d[0], d[1]}));
}

TEST(Row, AssignConcatLeavesNoStaleTrailingValues) {
  Row narrow_left = {Value(int64_t{1})};
  Row narrow_right = {Value(std::string("x"))};
  Row wide = {Value(int64_t{5}), Value(int64_t{6}), Value(int64_t{7})};

  // Narrower than what the slot held: truncated, no trailing Value left.
  Row slot = {Value(int64_t{9}), Value(int64_t{9}), Value(int64_t{9}),
              Value(int64_t{9}), Value(int64_t{9})};
  AssignConcat(&slot, narrow_left, narrow_right);
  EXPECT_EQ(RowToString(slot), "(1, x)");

  // Wider than what the slot held: grows to exactly the new width.
  AssignConcat(&slot, wide, wide);
  EXPECT_EQ(RowToString(slot), "(5, 6, 7, 5, 6, 7)");

  // Empty sides.
  AssignConcat(&slot, Row{}, narrow_right);
  EXPECT_EQ(RowToString(slot), "(x)");
  AssignConcat(&slot, Row{}, Row{});
  EXPECT_TRUE(slot.empty());
}

TEST(Row, ToStringRendersTuple) {
  Row r = {Value(int64_t{1}), Value(std::string("a"))};
  EXPECT_EQ(RowToString(r), "(1, a)");
}

}  // namespace
}  // namespace qpi
