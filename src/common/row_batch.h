#ifndef QPI_COMMON_ROW_BATCH_H_
#define QPI_COMMON_ROW_BATCH_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/row.h"

namespace qpi {

/// \brief A fixed-capacity vector of rows — the unit of work of the
/// execution engine (`Operator::NextBatch`).
///
/// Row storage is allocated once and reused across refills: Clear() resets
/// the logical size but keeps every Row's heap allocations alive, so a
/// steady-state scan or filter loop performs no per-tuple allocation.
///
/// A row handed from one batch (or merge buffer) to another is swapped,
/// not moved: the source slot gets the destination slot's old storage back
/// for its next refill, so neither side reallocates.
///
/// Moving a batch transfers its slots and leaves the source empty with
/// `capacity() == 0`: `full()` is true, so no slot may be taken from it
/// until a new batch is assigned to it.
///
/// `random_run()` carries the per-tuple stream-randomness property of
/// Section 4.1.4 at batch granularity: it is the number of *leading* rows
/// of the batch that were emitted while the producer's stream was still a
/// uniform random prefix (the post-emission rule: exactly the rows for
/// which `producer->ProducesRandomStream()` would still answer true if
/// asked right after that row was emitted). Estimators observe the first
/// `random_run()` rows of each batch and freeze when a batch's run ends
/// before its size — one branch per batch instead of a virtual-call chain
/// per tuple, with freeze decisions independent of the batch size. The
/// run is monotone across batches: once a batch ends with
/// `random_run() < size()`, every later batch from the same producer has a
/// run of zero.
class RowBatch {
 public:
  /// Default batch capacity; `ExecContext::batch_size` overrides per query.
  static constexpr size_t kDefaultCapacity = 1024;

  explicit RowBatch(size_t capacity = kDefaultCapacity)
      : rows_(capacity == 0 ? 1 : capacity),
        capacity_(capacity == 0 ? 1 : capacity) {}

  RowBatch(RowBatch&& other) noexcept
      : rows_(std::exchange(other.rows_, {})),
        capacity_(std::exchange(other.capacity_, 0)),
        size_(std::exchange(other.size_, 0)),
        random_run_(std::exchange(other.random_run_, 0)) {}

  RowBatch& operator=(RowBatch&& other) noexcept {
    rows_ = std::exchange(other.rows_, {});
    capacity_ = std::exchange(other.capacity_, 0);
    size_ = std::exchange(other.size_, 0);
    random_run_ = std::exchange(other.random_run_, 0);
    return *this;
  }

  size_t capacity() const { return capacity_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  bool full() const { return size_ >= capacity_; }

  Row& row(size_t i) { return rows_[i]; }
  const Row& row(size_t i) const { return rows_[i]; }

  /// Two-step append that reuses the slot's existing storage: fill the
  /// returned row in place, then CommitSlot(). Skipping the commit
  /// abandons the slot (used when a producer hits end-of-stream).
  Row* NextSlot() { return &rows_[size_]; }
  void CommitSlot() { ++size_; }

  /// Reset to empty; keeps row storage for reuse.
  void Clear() {
    size_ = 0;
    random_run_ = 0;
  }

  /// Leading rows emitted while the producer's stream was still a uniform
  /// random prefix (see class comment).
  uint64_t random_run() const { return random_run_; }
  void set_random_run(uint64_t run) { random_run_ = run; }
  void bump_random_run() { ++random_run_; }

 private:
  std::vector<Row> rows_;
  size_t capacity_;
  size_t size_ = 0;
  uint64_t random_run_ = 0;
};

}  // namespace qpi

#endif  // QPI_COMMON_ROW_BATCH_H_
