#include "common/value.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common/row.h"
#include "stats/hash_histogram.h"

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

// The longest inline string and the shortest long one.
const std::string kInlineMax(Value::kInlineCapacity, 'i');
const std::string kLongMin(Value::kInlineCapacity + 1, 'l');
const std::string kLong40 = "the quick brown fox jumps over the lazy!";

TEST(Value, StringsAtTheInlineBoundary) {
  ASSERT_EQ(kLong40.size(), 40u);
  for (const std::string& s :
       {std::string(), std::string("a"), kInlineMax, kLongMin, kLong40}) {
    Value v(s);
    EXPECT_EQ(v.type(), ValueType::kString);
    EXPECT_EQ(v.AsString(), s);
    EXPECT_EQ(v.AsString().size(), s.size());
    EXPECT_EQ(v.ToString(), s);
  }
}

TEST(Value, StringsKeepEmbeddedNulBytes) {
  const std::string short_nul("a\0b", 3);
  const std::string long_nul("0123456789\0abcdefghij", 21);
  for (const std::string& s : {short_nul, long_nul}) {
    Value v(s);
    ASSERT_EQ(v.AsString().size(), s.size());
    EXPECT_EQ(v.AsString(), s);
    EXPECT_EQ(v.ToString(), s);
  }
  // A NUL orders before any other byte, and bytes after it still count.
  EXPECT_LT(Value(std::string("a\0b", 3)), Value(std::string("a\0c", 3)));
  EXPECT_LT(Value(std::string("a\0", 2)), Value(std::string("a\1", 2)));
  EXPECT_NE(Value(short_nul).Hash(), Value(std::string("a")).Hash());
}

TEST(Value, LongStringCopyMoveAndAssign) {
  Value a(kLong40);
  Value copy(a);
  EXPECT_EQ(copy.AsString(), kLong40);
  // Copies share one immutable block.
  EXPECT_EQ(copy.AsString().data(), a.AsString().data());

  Value moved(std::move(copy));
  EXPECT_EQ(moved.AsString(), kLong40);
  EXPECT_TRUE(copy.is_null());  // NOLINT(bugprone-use-after-move)

  Value assigned(int64_t{1});
  assigned = a;
  EXPECT_EQ(assigned.AsString(), kLong40);
  Value& self = assigned;
  assigned = self;  // self-assignment keeps the block alive
  EXPECT_EQ(assigned.AsString(), kLong40);
  assigned = std::move(self);
  EXPECT_EQ(assigned.AsString(), kLong40);

  // Overwrite a long string with an inline one and a long one with another.
  Value other(kLongMin);
  assigned = other;
  EXPECT_EQ(assigned.AsString(), kLongMin);
  assigned = Value(std::string("short"));
  EXPECT_EQ(assigned.AsString(), "short");
  moved = Value(int64_t{3});
  EXPECT_EQ(moved.AsInt64(), 3);

  // The original outlives the copies that were dropped or overwritten.
  EXPECT_EQ(a.AsString(), kLong40);
  {
    std::vector<Value> many(100, a);
    EXPECT_EQ(many.back().AsString(), kLong40);
  }
  EXPECT_EQ(a.AsString(), kLong40);
}

TEST(Value, InlineAndLongStringsOrderByBytes) {
  // Shared prefix: the inline string is a prefix of the long one.
  Value inline_prefix(kInlineMax);
  Value long_extension(kInlineMax + "z");
  EXPECT_LT(inline_prefix, long_extension);
  EXPECT_GT(long_extension, inline_prefix);
  // A long string that differs before the inline boundary orders by that
  // byte, not by its length.
  Value long_lower(std::string(Value::kInlineCapacity - 1, 'i') + "a" +
                   "zzzz");
  EXPECT_GT(inline_prefix, long_lower);
  EXPECT_EQ(Value(kLong40), Value(std::string(kLong40)));
  EXPECT_EQ(Value(kLong40).Hash(), Value(std::string(kLong40)).Hash());
}

// Golden values: these codes route rows to grace-join partitions and key
// ONCE's histograms, so changing one moves partitions, estimates and
// freeze points.
TEST(Value, HashAndHistogramCodesAreStable) {
  const struct {
    Value value;
    uint64_t hash;
    uint64_t code;
  } kGolden[] = {
      {Value::Null(), 0x9e3779b97f4a7c15ULL, 0x9e3779b97f4a7c15ULL},
      {Value(int64_t{123456789}), 0x8f7c29206384f886ULL,
       0x00000000075bcd15ULL},
      {Value(42.0), 0x810879608e4259ccULL, 0x000000000000002aULL},
      {Value(2.5), 0x7d2e9498d5985f4aULL, 0x7d2e9498d5985f4aULL},
      {Value(std::string("abcdefghijkl")), 0xf5c5b5d61a00b286ULL,
       0xf5c5b5d61a00b286ULL},
      {Value(kLong40), 0xd9b0a179140f75e2ULL, 0xd9b0a179140f75e2ULL},
  };
  for (const auto& g : kGolden) {
    SCOPED_TRACE(g.value.ToString());
    EXPECT_EQ(g.value.Hash(), g.hash);
    EXPECT_EQ(HistogramKeyCode(g.value), g.code);
  }
}

// An INT64 and a DOUBLE compare by exact value: rounding the INT64 to a
// double would make int 2^53+1 equal double 2^53, which equals int 2^53,
// while the two ints differ, and std::sort over such keys is undefined.
TEST(Value, CompareIntAndDoubleExactly) {
  constexpr int64_t k53 = int64_t{1} << 53;
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  EXPECT_GT(Value(k53 + 1), Value(0x1p53));
  EXPECT_EQ(Value(k53), Value(0x1p53));
  EXPECT_LT(Value(k53 - 1), Value(0x1p53));
  EXPECT_LT(Value(-k53 - 1), Value(-0x1p53));
  EXPECT_EQ(Value(-k53), Value(-0x1p53));
  EXPECT_GT(Value(-k53 + 1), Value(-0x1p53));
  EXPECT_LT(Value(k53), Value(0x1p53 + 2.0));
  EXPECT_LT(Value(kMax), Value(0x1p63));
  EXPECT_GT(Value(0x1p63), Value(kMax));
  EXPECT_EQ(Value(kMin), Value(-0x1p63));
  EXPECT_GT(Value(kMin + 1), Value(-0x1p63));
  EXPECT_GT(Value(kMin), Value(-0x1p64));
  EXPECT_LT(Value(kMax), Value(std::numeric_limits<double>::infinity()));
  EXPECT_GT(Value(kMin), Value(-std::numeric_limits<double>::infinity()));
  EXPECT_LT(Value(int64_t{-3}), Value(-2.5));
  EXPECT_GT(Value(int64_t{-2}), Value(-2.5));
  EXPECT_LT(Value(int64_t{2}), Value(2.5));
  EXPECT_GT(Value(int64_t{3}), Value(2.5));
  // NaN keeps comparing equal to every number.
  const Value nan(std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(Value(int64_t{1}).Compare(nan), 0);
  EXPECT_EQ(nan.Compare(Value(int64_t{1})), 0);
  EXPECT_EQ(nan.Compare(Value(1.0)), 0);

  // Antisymmetric and transitive over mixed keys around ±2^53 and ±2^63.
  const std::vector<Value> keys = {
      Value(k53 - 1),   Value(k53),        Value(k53 + 1),  Value(0x1p53),
      Value(0x1p53 + 2.0), Value(-k53 - 1), Value(-k53),    Value(-0x1p53),
      Value(kMax),      Value(kMin),       Value(kMin + 1), Value(0x1p63),
      Value(-0x1p63),   Value(-0x1p64),    Value(0.5),      Value(int64_t{0})};
  auto sign = [](int c) { return (c > 0) - (c < 0); };
  for (const Value& a : keys) {
    for (const Value& b : keys) {
      EXPECT_EQ(sign(a.Compare(b)), -sign(b.Compare(a)))
          << a.ToString() << " vs " << b.ToString();
      for (const Value& c : keys) {
        if (a.Compare(b) <= 0 && b.Compare(c) <= 0) {
          EXPECT_LE(a.Compare(c), 0) << a.ToString() << " <= "
                                     << b.ToString() << " <= " << c.ToString();
        }
      }
    }
  }
}

// Every number sorts before every string, and a string never compares
// equal to a number: the empty string included, in either direction.
TEST(Value, CompareStringAndNumberOrdersNumbersFirst) {
  const Value empty{std::string_view("")};
  EXPECT_GT(empty.Compare(Value(int64_t{5})), 0);
  EXPECT_LT(Value(int64_t{5}).Compare(empty), 0);
  EXPECT_NE(empty.Compare(Value(0.0)), 0);
  EXPECT_NE(Value(int64_t{0}).Compare(empty), 0);
  EXPECT_LT(Value::Null().Compare(empty), 0);
  EXPECT_FALSE(JoinKeysEqual(empty, Value(int64_t{0})));

  const std::vector<Value> keys = {
      empty,
      Value(std::string_view("0")),
      Value(std::string_view("5")),
      Value(std::string_view("a-string-longer-than-the-inline-capacity")),
      Value(int64_t{-3}),
      Value(int64_t{0}),
      Value(int64_t{5}),
      Value(int64_t{7}),
      Value(std::numeric_limits<int64_t>::max()),
      Value(-0.0),
      Value(2.5),
      Value(5.0),
      Value(1e300),
      Value(-std::numeric_limits<double>::infinity()),
      Value::Null()};
  auto sign = [](int c) { return (c > 0) - (c < 0); };
  auto is_string = [](const Value& v) {
    return v.type() == ValueType::kString;
  };
  for (const Value& a : keys) {
    for (const Value& b : keys) {
      EXPECT_EQ(sign(a.Compare(b)), -sign(b.Compare(a)))
          << a.ToString() << " vs " << b.ToString();
      if (!a.is_null() && !b.is_null() && is_string(a) != is_string(b)) {
        EXPECT_EQ(sign(a.Compare(b)), is_string(a) ? 1 : -1)
            << a.ToString() << " vs " << b.ToString();
      }
      for (const Value& c : keys) {
        if (a.Compare(b) <= 0 && b.Compare(c) <= 0) {
          EXPECT_LE(a.Compare(c), 0) << a.ToString() << " <= "
                                     << b.ToString() << " <= " << c.ToString();
        }
        if (a.Compare(b) == 0 && b.Compare(c) == 0) {
          EXPECT_EQ(a.Compare(c), 0) << a.ToString() << " == "
                                     << b.ToString() << " == " << c.ToString();
        }
      }
    }
  }
}

// An integral double equals the int64 of the same value, so the two share
// a hash and a key code; NaN, infinities and doubles outside int64_t's range
// have no equal int64 and key by their hash (the cast would be undefined;
// the undefined-behaviour sanitizer preset checks that none happens).
TEST(Value, IntegralDoublesKeyLikeTheEqualInt) {
  for (int64_t i : {int64_t{0}, int64_t{42}, int64_t{-7}, int64_t{1} << 40,
                    std::numeric_limits<int64_t>::min()}) {
    SCOPED_TRACE(i);
    const Value d(static_cast<double>(i));
    int64_t as_int = 0;
    EXPECT_TRUE(DoubleAsInt64(d.AsDouble(), &as_int));
    EXPECT_EQ(as_int, i);
    EXPECT_EQ(d.Hash(), Value(i).Hash());
    EXPECT_EQ(HistogramKeyCode(d), HistogramKeyCode(Value(i)));
  }
  EXPECT_EQ(HistogramKeyCode(Value(-0.0)), 0u);
  for (double d : {std::numeric_limits<double>::quiet_NaN(),
                   std::numeric_limits<double>::infinity(),
                   -std::numeric_limits<double>::infinity(), 0x1p63, -0x1p64,
                   1e300, 0.5, -2.5}) {
    SCOPED_TRACE(d);
    int64_t as_int = 0;
    EXPECT_FALSE(DoubleAsInt64(d, &as_int));
    EXPECT_EQ(HistogramKeyCode(Value(d)), Value(d).Hash());
  }
}

// Rows copied and dropped on several threads share long-string blocks; the
// counts must stay exact (run under the thread and address sanitizers).
TEST(Value, LongStringCopiesAcrossThreads) {
  const Row shared = {Value(kLong40), Value(kLongMin), Value(int64_t{7})};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&shared] {
      Row slot;
      for (int i = 0; i < 20000; ++i) {
        Row copy = shared;
        slot = copy;
        slot[0] = Value(kLongMin);
        QPI_CHECK(copy[0].AsString() == kLong40);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(shared[0].AsString(), kLong40);
  EXPECT_EQ(shared[1].AsString(), kLongMin);
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
