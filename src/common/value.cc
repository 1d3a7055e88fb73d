#include "common/value.h"

#include <cmath>
#include <new>

namespace qpi {

const char* ValueTypeName(ValueType type) {
  switch (type) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kInt64:
      return "INT64";
    case ValueType::kDouble:
      return "DOUBLE";
    case ValueType::kString:
      return "STRING";
  }
  return "UNKNOWN";
}

Value::Value(std::string_view v) : rep_{{}, 0, ValueType::kString} {
  if (v.size() <= kInlineCapacity) {
    if (!v.empty()) std::memcpy(rep_.data, v.data(), v.size());
    rep_.size = static_cast<uint8_t>(v.size());
    return;
  }
  auto* s = new (::operator new(sizeof(LongString) + v.size()))
      LongString{{1}, v.size()};
  std::memcpy(reinterpret_cast<char*>(s + 1), v.data(), v.size());
  std::memcpy(rep_.data, &s, sizeof(s));
  rep_.size = kLongSize;
}

void Value::FreeLongString(LongString* s) {
  s->~LongString();
  ::operator delete(s);
}

namespace {

/// Exact int64 ⋚ double: converting the int64 to double would round any
/// magnitude above 2^53, so 2^53 + 1 would equal 2^53 as a double and the
/// order would not be transitive. NaN compares equal to everything, as
/// the double-double comparison below treats it.
int CompareIntDouble(int64_t a, double b) {
  if (b != b) return 0;
  if (b >= 0x1p63) return -1;
  if (b < -0x1p63) return 1;
  // b lies in int64's range, so its truncation converts exactly.
  const double whole = std::trunc(b);
  const int64_t t = static_cast<int64_t>(whole);
  if (a != t) return a < t ? -1 : 1;
  return whole < b ? -1 : (whole > b ? 1 : 0);
}

}  // namespace

int Value::Compare(const Value& other) const {
  if (is_null() || other.is_null()) {
    // NULL sorts first; two NULLs are equal for grouping purposes.
    return static_cast<int>(!is_null()) - static_cast<int>(!other.is_null());
  }
  const bool is_string = type() == ValueType::kString;
  if (is_string || other.type() == ValueType::kString) {
    // Every number sorts before every string.
    if (is_string != (other.type() == ValueType::kString)) {
      return is_string ? 1 : -1;
    }
    return AsString().compare(other.AsString());
  }
  if (type() == ValueType::kInt64 && other.type() == ValueType::kInt64) {
    int64_t a = AsInt64();
    int64_t b = other.AsInt64();
    return (a < b) ? -1 : (a > b ? 1 : 0);
  }
  if (type() == ValueType::kInt64) {
    return CompareIntDouble(AsInt64(), other.AsDouble());
  }
  if (other.type() == ValueType::kInt64) {
    return -CompareIntDouble(other.AsInt64(), AsDouble());
  }
  double a = AsDouble();
  double b = other.AsDouble();
  return (a < b) ? -1 : (a > b ? 1 : 0);
}

namespace {

// 64-bit finalizer from MurmurHash3; cheap and well mixed.
inline uint64_t Mix64(uint64_t k) {
  k ^= k >> 33;
  k *= 0xff51afd7ed558ccdULL;
  k ^= k >> 33;
  k *= 0xc4ceb9fe1a85ec53ULL;
  k ^= k >> 33;
  return k;
}

}  // namespace

uint64_t Value::Hash() const {
  switch (type()) {
    case ValueType::kNull:
      return 0x9e3779b97f4a7c15ULL;
    case ValueType::kInt64:
      return Mix64(static_cast<uint64_t>(AsInt64()));
    case ValueType::kDouble: {
      // Hash integral doubles like the equal int64 so cross-type equality
      // implies equal hashes.
      double d = AsDouble();
      int64_t as_int;
      if (DoubleAsInt64(d, &as_int)) {
        return Mix64(static_cast<uint64_t>(as_int));
      }
      uint64_t bits;
      std::memcpy(&bits, &d, sizeof(bits));
      return Mix64(bits);
    }
    case ValueType::kString: {
      uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a
      for (char c : AsString()) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
      }
      return Mix64(h);
    }
  }
  return 0;
}

std::string Value::ToString() const {
  switch (type()) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kInt64:
      return std::to_string(AsInt64());
    case ValueType::kDouble:
      return std::to_string(AsDouble());
    case ValueType::kString:
      return std::string(AsString());
  }
  return "?";
}

}  // namespace qpi
