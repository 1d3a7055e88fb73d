#ifndef QPI_STATS_HASH_HISTOGRAM_H_
#define QPI_STATS_HASH_HISTOGRAM_H_

#include <cstdint>
#include <vector>

#include "common/row.h"
#include "common/value.h"

namespace qpi {

/// \brief Map a Value to the 64-bit key code the estimation histograms use.
///
/// INT64 values map to themselves so counts are exact for the key/grouping
/// columns every reproduced experiment uses, and an integral DOUBLE maps to
/// the equal INT64, so keys that Compare equal share a code; other values
/// map to their hash (collisions are possible but astronomically unlikely
/// at these scales).
uint64_t HistogramKeyCode(const Value& v);

/// Fold another column's key code into a running composite key code
/// (boost::hash_combine-style, widened to 64 bits). Used for conjunctive
/// multi-attribute join keys and multi-column grouping.
inline uint64_t CombineKeyCodes(uint64_t h, uint64_t k) {
  return h ^ (k + 0x9e3779b97f4a7c15ULL + (h << 12) + (h >> 4));
}

/// Seed for composite key codes.
inline constexpr uint64_t kCompositeKeySeed = 0x51ed2701a3b5e1c7ULL;

/// Key code of `row` over the columns `indices` (join keys, grouping
/// columns): a single column's own code, else the composite fold of every
/// column's code from kCompositeKeySeed.
inline uint64_t RowKeyCode(const Row& row,
                           const std::vector<size_t>& indices) {
  if (indices.size() == 1) return HistogramKeyCode(row[indices[0]]);
  uint64_t h = kCompositeKeySeed;
  for (size_t idx : indices) {
    h = CombineKeyCodes(h, HistogramKeyCode(row[idx]));
  }
  return h;
}

/// Whether the key of `row` over `indices` has a NULL component. Such a key
/// matches nothing in an equi-join (SQL semantics), so no join statistic
/// counts it.
inline bool RowKeyHasNull(const Row& row, const std::vector<size_t>& indices) {
  for (size_t idx : indices) {
    if (row[idx].is_null()) return true;
  }
  return false;
}

/// \brief Frequency histogram: 64-bit key → occurrence count.
///
/// This is the paper's core data structure — built on join/grouping
/// attributes during the preprocessing phases of hash joins, sort-merge
/// joins and aggregations (Sections 4.1–4.2). It is an open-addressing,
/// linear-probing table sized to a power of two, storing 12 bytes per entry
/// (8-byte key + 4-byte count) with no per-entry pointers; the paper's
/// PostgreSQL prototype paid ~20 bytes of pointer overhead per entry on top
/// of the same 8 payload bytes (Table 2), which our memory accounting lets
/// us compare against directly.
class HashHistogram {
 public:
  explicit HashHistogram(size_t initial_capacity = 16);

  /// Add `by` occurrences of `key`; returns the new count.
  uint64_t Increment(uint64_t key, uint64_t by = 1);

  /// Occurrence count of `key` (0 if never seen).
  uint64_t Count(uint64_t key) const;

  /// Number of distinct keys.
  size_t num_distinct() const { return size_; }

  /// Total occurrences added over all keys.
  uint64_t total_count() const { return total_; }

  /// Bytes of payload actually used: 12 bytes per distinct entry.
  size_t UsedBytes() const { return size_ * kEntryPayloadBytes; }

  /// Bytes allocated for the backing array (capacity × entry size).
  size_t AllocatedBytes() const { return slots_.size() * sizeof(Slot); }

  /// Visit every (key, count) pair. `fn(key, count)`.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Slot& s : slots_) {
      if (s.count != 0) fn(s.key, s.count);
    }
  }

  static constexpr size_t kEntryPayloadBytes = 12;

 private:
  struct Slot {
    uint64_t key = 0;
    uint64_t count = 0;  // 0 == empty slot
  };

  void Grow();
  static uint64_t Mix(uint64_t k);

  std::vector<Slot> slots_;
  size_t size_ = 0;
  uint64_t total_ = 0;
};

}  // namespace qpi

#endif  // QPI_STATS_HASH_HISTOGRAM_H_
