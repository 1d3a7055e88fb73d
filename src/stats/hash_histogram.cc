#include "stats/hash_histogram.h"

#include "common/check.h"

namespace qpi {

uint64_t HistogramKeyCode(const Value& v) {
  if (v.type() == ValueType::kInt64) {
    return static_cast<uint64_t>(v.AsInt64());
  }
  int64_t as_int;
  if (v.type() == ValueType::kDouble && DoubleAsInt64(v.AsDouble(), &as_int)) {
    return static_cast<uint64_t>(as_int);
  }
  return v.Hash();
}

HashHistogram::HashHistogram(size_t initial_capacity) {
  size_t cap = 16;
  while (cap < initial_capacity) cap <<= 1;
  slots_.resize(cap);
}

uint64_t HashHistogram::Mix(uint64_t k) {
  k ^= k >> 33;
  k *= 0xff51afd7ed558ccdULL;
  k ^= k >> 33;
  k *= 0xc4ceb9fe1a85ec53ULL;
  k ^= k >> 33;
  return k;
}

void HashHistogram::Grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.size() * 2, Slot{});
  size_t mask = slots_.size() - 1;
  for (const Slot& s : old) {
    if (s.count == 0) continue;
    size_t idx = Mix(s.key) & mask;
    while (slots_[idx].count != 0) idx = (idx + 1) & mask;
    slots_[idx] = s;
  }
}

uint64_t HashHistogram::Increment(uint64_t key, uint64_t by) {
  QPI_DCHECK(by > 0);
  // Keep load factor below 0.7 so probes stay short.
  if ((size_ + 1) * 10 > slots_.size() * 7) Grow();
  size_t mask = slots_.size() - 1;
  size_t idx = Mix(key) & mask;
  while (slots_[idx].count != 0 && slots_[idx].key != key) {
    idx = (idx + 1) & mask;
  }
  if (slots_[idx].count == 0) {
    slots_[idx].key = key;
    ++size_;
  }
  slots_[idx].count += by;
  total_ += by;
  return slots_[idx].count;
}

uint64_t HashHistogram::Count(uint64_t key) const {
  size_t mask = slots_.size() - 1;
  size_t idx = Mix(key) & mask;
  while (slots_[idx].count != 0) {
    if (slots_[idx].key == key) return slots_[idx].count;
    idx = (idx + 1) & mask;
  }
  return 0;
}

}  // namespace qpi
