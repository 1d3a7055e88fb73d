#ifndef QPI_COMMON_VALUE_H_
#define QPI_COMMON_VALUE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <string_view>

#include "common/check.h"

namespace qpi {

/// Physical type of a column or value.
enum class ValueType : uint8_t {
  kNull = 0,
  kInt64 = 1,
  kDouble = 2,
  kString = 3,
};

/// Name of a ValueType for error messages and schema dumps.
const char* ValueTypeName(ValueType type);

/// \brief A dynamically-typed scalar: NULL, INT64, DOUBLE or STRING, in
/// 16 bytes.
///
/// The engine is row-oriented; a tuple is a vector of Values. Join and
/// grouping attributes in the reproduced experiments are integers (TPC-H
/// keys), so the integer path is kept branch-light; strings exist for
/// payload realism in the generated tables.
///
/// Layout: an 8-byte payload (int64, double or long-string pointer), then
/// a length byte and a type tag. A string of at most kInlineCapacity bytes
/// is stored inline, spilling from the payload into the bytes before the
/// length. A longer string lives in one immutable, refcounted heap block:
/// a copy shares the block, and the last Value referencing it frees it.
/// Nothing is interned, so no string storage outlives the Values using it.
class Value {
 public:
  /// Longest string stored inside the Value itself.
  static constexpr size_t kInlineCapacity = 14;

  Value() noexcept : rep_{{}, 0, ValueType::kNull} {}
  explicit Value(int64_t v) noexcept : rep_{{}, 0, ValueType::kInt64} {
    std::memcpy(rep_.data, &v, sizeof(v));
  }
  explicit Value(double v) noexcept : rep_{{}, 0, ValueType::kDouble} {
    std::memcpy(rep_.data, &v, sizeof(v));
  }
  /// Copies `v`'s bytes: inline if they fit, else into a new heap block.
  explicit Value(std::string_view v);

  /// A copy shares a long string's block; a moved-from Value is NULL.
  Value(const Value& other) noexcept : rep_(other.rep_) {
    if (is_long()) {
      long_string()->refs.fetch_add(1, std::memory_order_relaxed);
    }
  }
  Value(Value&& other) noexcept : rep_(other.rep_) { other.rep_ = Rep{}; }
  Value& operator=(const Value& other) noexcept {
    // Take the new reference before dropping the old: safe on self-assignment.
    if (other.is_long()) {
      other.long_string()->refs.fetch_add(1, std::memory_order_relaxed);
    }
    Release();
    rep_ = other.rep_;
    return *this;
  }
  Value& operator=(Value&& other) noexcept {
    if (this != &other) {
      Release();
      rep_ = other.rep_;
      other.rep_ = Rep{};
    }
    return *this;
  }
  ~Value() { Release(); }

  static Value Null() { return Value(); }

  ValueType type() const { return rep_.type; }
  bool is_null() const { return rep_.type == ValueType::kNull; }

  int64_t AsInt64() const {
    QPI_DCHECK(rep_.type == ValueType::kInt64);
    return Payload<int64_t>();
  }
  double AsDouble() const {
    QPI_DCHECK(rep_.type == ValueType::kDouble ||
               rep_.type == ValueType::kInt64);
    return rep_.type == ValueType::kDouble
               ? Payload<double>()
               : static_cast<double>(Payload<int64_t>());
  }
  /// A view of the string's bytes, valid while this Value is alive and
  /// unmodified (an inline string's bytes live inside the Value).
  std::string_view AsString() const {
    QPI_DCHECK(rep_.type == ValueType::kString);
    if (is_long()) {
      const LongString* s = long_string();
      return {s->chars(), s->size};
    }
    return {rep_.data, rep_.size};
  }

  /// Total ordering: NULL first, then every number, then every string. An
  /// INT64 and a DOUBLE compare by exact value, not after rounding the
  /// INT64 to a double. Returns <0, 0, >0.
  int Compare(const Value& other) const;

  bool operator==(const Value& other) const { return Compare(other) == 0; }
  bool operator!=(const Value& other) const { return Compare(other) != 0; }
  bool operator<(const Value& other) const { return Compare(other) < 0; }
  bool operator<=(const Value& other) const { return Compare(other) <= 0; }
  bool operator>(const Value& other) const { return Compare(other) > 0; }
  bool operator>=(const Value& other) const { return Compare(other) >= 0; }

  /// Stable 64-bit hash (used by hash joins, aggregation and histograms).
  /// An integral DOUBLE hashes like the equal INT64.
  uint64_t Hash() const;

  std::string ToString() const;

 private:
  /// Heap block of a string longer than kInlineCapacity: this header, then
  /// `size` immutable bytes.
  struct LongString {
    std::atomic<uint64_t> refs;
    size_t size;
    const char* chars() const {
      return reinterpret_cast<const char*>(this + 1);
    }
  };

  /// `size` value marking a long string; inline lengths are at most 14.
  static constexpr uint8_t kLongSize = 0xff;

  struct Rep {
    alignas(8) char data[kInlineCapacity];  // payload or inline string
    uint8_t size;  // inline string length, kLongSize, or 0 for non-strings
    ValueType type;
  };

  template <typename T>
  T Payload() const {
    T v;
    std::memcpy(&v, rep_.data, sizeof(v));
    return v;
  }
  bool is_long() const { return rep_.size == kLongSize; }
  LongString* long_string() const { return Payload<LongString*>(); }
  void Release() {
    if (is_long() &&
        long_string()->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      FreeLongString(long_string());
    }
  }
  static void FreeLongString(LongString* s);

  Rep rep_;
};

static_assert(sizeof(Value) == 16, "Value must stay 16 bytes");

/// The INT64 equal to `d`, if there is one. False for fractions, NaN,
/// infinities and values outside int64_t's range, whose cast would be
/// undefined.
inline bool DoubleAsInt64(double d, int64_t* out) {
  if (!(d >= -0x1p63 && d < 0x1p63)) return false;
  *out = static_cast<int64_t>(d);
  return static_cast<double>(*out) == d;
}

/// Join-key equality, the value check behind every match a key code
/// proposes. SQL semantics: a NULL key matches nothing, not even another
/// NULL (Compare calls two NULLs equal, which is right for grouping only).
/// A string never equals a number, even one equal to its key code.
inline bool JoinKeysEqual(const Value& a, const Value& b) {
  return !a.is_null() && !b.is_null() && a.Compare(b) == 0;
}

}  // namespace qpi

namespace std {
template <>
struct hash<qpi::Value> {
  size_t operator()(const qpi::Value& v) const noexcept {
    return static_cast<size_t>(v.Hash());
  }
};
}  // namespace std

#endif  // QPI_COMMON_VALUE_H_
