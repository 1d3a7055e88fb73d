#ifndef QPI_EXEC_ORDERED_MERGE_H_
#define QPI_EXEC_ORDERED_MERGE_H_

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "common/row_batch.h"

namespace qpi {

class ExecContext;
class TaskGroup;
class TaskScheduler;

/// \brief The ordered unit runner: the one ordered merge of intra-query
/// parallelism, shared by the fused morsel scan and the grace join phase.
///
/// A caller cuts its work into `units` ordered units and supplies a
/// producer. Subtasks on the query's TaskScheduler run units ahead of the
/// merge; the driving thread merges their output **strictly in unit
/// order** (Fill), so the row stream and its `random_run` are those of
/// the one-worker (inline) run at any worker count, and the estimators,
/// which only see the merged stream on the driving thread, freeze exactly
/// where they would at one worker (DESIGN.md §9). Where a consumer batch
/// may end is the caller's choice (Boundaries): only where a full batch
/// ends, or also at the end of every unit.
///
/// The producer, `produce(unit, batch, marks) -> done`, resumes the unit
/// from the caller's own cursor and appends to `batch` (capacity
/// ctx->batch_size) until it is full or the unit is exhausted, extending
/// the batch's `random_run` over the in-run rows it appended. It returns
/// true once the unit has nothing more to produce; a call that returns
/// false leaves the batch full. It must not block and never runs twice at
/// once for one unit. It writes no operator counter, state or tick: those
/// are the delivery callback's.
///
/// The delivery callback, `deliver(unit, rows, passed, mark)`, is the one
/// place progress is attributed. Fill calls it on the driving thread, in
/// unit order, exactly where the inline run's producer call returns: after
/// each inline call, and with a fleet at each consumer-batch end and at
/// each finished unit the merge passes. `rows` counts the unit's rows
/// delivered since the unit's previous report, and `passed` says the
/// merge has moved past the unit. `mark` is nullptr when the producer's
/// own state is the point of delivery (inline, or a passed unit, whose
/// runner has finished) or `mark_width` is 0; otherwise it points at the
/// `mark_width` marks the producer left for the last delivered row. With
/// a fleet and a nonzero `mark_width` the producer gets a `marks` vector
/// (else nullptr): under Boundaries::kSequential it appends `mark_width`
/// values per row it appends, its state right after that row; under
/// Boundaries::kUnit a consumer batch ends only where a produced one does,
/// so it appends them once per call, its state at the call's end.
///
/// At ctx->exec_workers == 1 the runner is *inline*: it creates no task
/// group and never asks the context for a scheduler, and Fill calls the
/// producer for the unit at the merge cursor straight into the consumer's
/// batch, checking cancellation before each call. The fused scan and the
/// grace join both run this way at one worker. Only with a fleet does
/// what follows apply:
///
/// At most `2·workers+2` units (the window) run past the merge cursor.
/// Each produced batch is pushed to its unit's `ready` list under the
/// runner's mutex — never a wait on the consumer, which keeps the
/// subtask-never-blocks contract the fleet's helping protocol relies on.
/// The push that leaves kReadyCap batches unmerged stalls the unit: its
/// runner returns to the fleet, and the merge requeues the unit once it
/// has drained it below the cap, so in-flight output stays within
/// window × kReadyCap batches however much one unit produces. The merge
/// hands a produced batch to the consumer whole, with one batch swap,
/// wherever the consumer's batch may end with it, and swaps rows into the
/// consumer's slots only where it may not. The batch the consumer gave up,
/// or the one drained, goes back to a spare pool of the same bound, from
/// which runners take their next batch: a steady-state run fills recycled
/// slots in place.
class OrderedMerge {
 public:
  /// Where a consumer batch may end before it is full.
  enum class Boundaries : unsigned char {
    /// Only at the end of the stream, as in the inline runner. A
    /// produced batch goes out whole only if it is full and starts the
    /// consumer's batch; any other is merged row by row. The fused scan
    /// uses this: its batch boundaries place the sample's random run.
    kSequential,
    /// Also at the end of each unit: every produced batch goes out whole,
    /// so a unit's short last batch ends a consumer batch. For output
    /// whose batch boundaries no estimator reads (the grace join phase,
    /// random_run 0). The inline runner fills the consumer's batch across
    /// unit ends either way.
    kUnit,
  };

  /// Output batches a unit may publish ahead of the merge before it
  /// stalls.
  static constexpr size_t kReadyCap = 8;

  /// The one unit sizing rule: a unit should produce about half its ready
  /// budget, kReadyCap × batch_size / 2 rows, so a unit running ahead of
  /// the merge cursor finishes without stalling; the 256 floor keeps tiny
  /// batch sizes from cutting a unit per row. 4096 rows at the default
  /// batch of 1024.
  static uint64_t UnitTarget(size_t batch_size) {
    return std::max<uint64_t>(kReadyCap * batch_size / 2, 256);
  }

  using Producer = std::function<bool(size_t unit, RowBatch* batch,
                                      std::vector<uint64_t>* marks)>;
  using Deliver = std::function<void(size_t unit, size_t rows, bool passed,
                                     const uint64_t* mark)>;

  /// Starts running units at once. Construct on the query's driving
  /// thread.
  OrderedMerge(size_t units, ExecContext* ctx, Boundaries boundaries,
               size_t mark_width, Producer produce, Deliver deliver);

  /// Stops outstanding units at their next batch and waits for their
  /// subtasks (helping the fleet meanwhile).
  ~OrderedMerge();

  OrderedMerge(const OrderedMerge&) = delete;
  OrderedMerge& operator=(const OrderedMerge&) = delete;

  /// Fill `out` (already cleared by the NextBatch wrapper; capacity
  /// ctx->batch_size), in unit order, until it is full, a unit's last
  /// batch ends it (Boundaries::kUnit) or every unit has been merged: it
  /// comes back empty only in the last case. `out`'s random_run extends
  /// over the leading rows that lie within their source batch's
  /// random_run; the first row that does not closes the run for good.
  /// Driving thread only.
  void Fill(RowBatch* out);

 private:
  /// A batch a runner produced, with the marks its producer left.
  struct Produced {
    RowBatch rows{0};
    std::vector<uint64_t> marks;
  };

  /// The in-flight state of one unit. Only the window's units are in
  /// flight, so unit u lives in slot u % window_.
  struct Unit {
    enum class State : unsigned char {
      kQueued,   ///< a task for the unit's next chunk is submitted
      kRunning,  ///< a runner is producing batches right now
      kStalled,  ///< paused at the ready cap; the merge requeues it
      kDone,     ///< nothing more will be produced
    };
    /// Produced, not yet merged, oldest first. At most kReadyCap, so
    /// with its capacity reserved up front publishing and merging a
    /// batch allocate nothing.
    std::vector<Produced> ready;
    State state = State::kQueued;
    Unit() { ready.reserve(kReadyCap); }
  };

  void SubmitUpTo(size_t limit);
  /// One chunk of unit `u`: produce and publish batches until the unit is
  /// done or stalls.
  void Run(size_t u);
  /// A batch from the spare pool, or a new one if the pool is empty.
  Produced TakeBatch();
  /// Clear a drained batch and return it to the pool unless the pool is
  /// full (the batch is then left to its owner). Requires mu_.
  void RecycleLocked(Produced* batch);
  /// Report the rows of the merge cursor's unit delivered since its last
  /// report, which ended a consumer batch; `mark` is the last one's.
  void DeliverPending(const uint64_t* mark);

  ExecContext* ctx_;
  Producer produce_;
  Deliver deliver_;
  TaskScheduler* sched_;  ///< nullptr in inline mode
  const Boundaries boundaries_;
  const size_t mark_width_;
  const size_t batch_size_;
  const size_t window_;  ///< 0 in inline mode

  std::mutex mu_;
  std::condition_variable cv_;  ///< the merge is the only waiter
  const size_t units_;
  std::vector<Unit> slots_;      ///< window_ of them; guarded by mu_
  std::vector<Produced> spare_;  ///< guarded by mu_; ≤ window × kReadyCap
  std::atomic<bool> abort_{false};

  // Merge side (driving thread only).
  size_t submitted_ = 0;
  size_t emit_unit_ = 0;
  Produced merge_;  ///< the batch being merged
  size_t emit_row_ = 0;
  size_t pending_ = 0;  ///< rows of emit_unit_ delivered, not yet reported
  bool run_open_ = true;

  // Declared last: its destructor waits for outstanding subtasks, which
  // touch every member above. Unset in inline mode.
  std::unique_ptr<TaskGroup> group_;
};

}  // namespace qpi

#endif  // QPI_EXEC_ORDERED_MERGE_H_
