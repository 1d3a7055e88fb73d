#ifndef QPI_EXEC_EXEC_CONTEXT_H_
#define QPI_EXEC_EXEC_CONTEXT_H_

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "common/status.h"
#include "stats/normal.h"
#include "storage/catalog.h"

namespace qpi {

/// A cardinality estimator. ExecContext::mode picks the one the engine
/// acts on; the ensemble runs the first kNumEstimatorCandidates values
/// concurrently off the same live counters and selects per operator. Those
/// values are dense from 0 so they index plain arrays (feedback cache,
/// trace op_selected, the wire) — do not renumber them.
enum class EstimationMode : unsigned char {
  kOnce = 0,  ///< the paper's online framework (push-down estimation)
  kDne = 1,   ///< driver-node estimator baseline (Chaudhuri et al. [9])
  kByte = 2,  ///< Luo et al. [18] baseline (optimizer-weighted blend)
  kNone = 3,  ///< no online estimation (overhead baseline; optimizer only)
};

inline constexpr size_t kNumEstimatorCandidates = 3;
static_assert(static_cast<size_t>(EstimationMode::kNone) ==
                  kNumEstimatorCandidates,
              "the ensemble's candidates are the modes before kNone");

/// Former name of EstimationMode, still spelled by perfbench/cpp; remove
/// with the next change to the benchmark harness.
using EstimatorCandidate = EstimationMode;

const char* EstimationModeName(EstimationMode mode);

/// How per-operator CLT half-widths combine into one query-level interval
/// (GnmAccountant::TotalHalfWidth). The per-operator estimators are
/// independent, so their variances add and the combined half-width is the
/// root-sum-square of the parts; the plain sum (a union bound) overstates
/// the interval and is kept only as an explicitly conservative mode.
enum class CiCombine : unsigned char { kRootSumSquare, kConservativeSum };

/// Coarse lifecycle phase of a query as a progress consumer sees it.
/// kQueued is the pre-execution phase a service-layer admission queue
/// parks a query in (progress pinned at 0 with the optimizer's T̂);
/// BeginExecution()/EndExecution() advance the phase automatically, so
/// in-process drivers that never queue report kRunning throughout.
enum class QueryPhase : unsigned char { kQueued, kRunning, kFinished };

const char* QueryPhaseName(QueryPhase phase);

/// \brief Receives the engine's progress ticks.
///
/// One OnTick(n) arrives per emitted batch with n = the batch's row count
/// (n == 1 per tuple at batch_size 1), replacing the former per-tuple
/// `std::function<void()>` indirection: observers are registered once and
/// invoked through a devirtualizable interface, and a batch of 1024 rows
/// costs one call instead of 1024. The operators a fused scan captures
/// tick where the ordered merge delivers their rows, one call per
/// delivery that counted any (OrderedMerge). Every call comes from the
/// query's driving thread, in the same sequence at every worker count.
class TickObserver {
 public:
  virtual ~TickObserver() = default;
  virtual void OnTick(uint64_t n) = 0;
};

/// Adapts a callable to the observer interface for ad-hoc hooks (examples,
/// bench harnesses) that don't want a named subclass.
///
/// Observers are registered *by pointer* (AddTickObserver), so a copy of a
/// registered observer would silently leave the original registered and the
/// copy inert — move-only makes that mistake a compile error, and a moved-
/// from observer must never remain registered (document at the call site).
class FunctionTickObserver : public TickObserver {
 public:
  explicit FunctionTickObserver(std::function<void(uint64_t)> fn)
      : fn_(std::move(fn)) {}

  FunctionTickObserver(FunctionTickObserver&&) noexcept = default;
  FunctionTickObserver& operator=(FunctionTickObserver&&) noexcept = default;
  FunctionTickObserver(const FunctionTickObserver&) = delete;
  FunctionTickObserver& operator=(const FunctionTickObserver&) = delete;

  void OnTick(uint64_t n) override { fn_(n); }

 private:
  std::function<void(uint64_t)> fn_;
};

class TaskScheduler;

/// \brief Online-aggregation (OLA) knobs for one query.
///
/// When enabled, the query's topmost aggregate streams a running
/// (estimate, CI half-width) pair per aggregate function alongside its
/// progress, and the stop condition below may end the query early through
/// the cooperative cancellation path with a distinct terminal kind. The
/// targets are optional: a query with neither target runs to completion
/// unless a watcher issues an explicit stop.
struct OlaOptions {
  bool enabled = false;
  /// Absolute CI half-width target: stop once every aggregate's half-width
  /// is at or below this value. Set iff has_abs_target.
  bool has_abs_target = false;
  double abs_target = 0.0;
  /// Relative target: stop once every aggregate's half-width is at or
  /// below rel_target * |estimate|. Set iff has_rel_target.
  bool has_rel_target = false;
  double rel_target = 0.0;
  /// Confidence level of the published intervals, in (0, 1).
  double confidence = 0.95;
  /// Never stop on a target before this many sample draws — the CLT
  /// interval is meaningless on a handful of rows.
  uint64_t min_draws = 256;
};

/// \brief Per-query execution context shared by all operators.
struct ExecContext {
  Catalog* catalog = nullptr;
  EstimationMode mode = EstimationMode::kOnce;

  /// Confidence level and query-level CI combination rule of every
  /// published snapshot (qpi-serve, trace sampling). Constants: nothing
  /// varies them per query.
  static constexpr double confidence = kDefaultConfidence;
  static constexpr CiCombine ci_combine = CiCombine::kRootSumSquare;

  /// Fraction of each base table emitted as a leading block-level random
  /// sample. 0 means plain scans, whose streams are treated as randomly
  /// ordered end to end (the generators emit i.i.d. rows); > 0 means
  /// estimation freezes once the sample prefix is consumed, as in the
  /// paper's overhead experiments.
  double sample_fraction = 0.0;

  /// Number of partitions used by grace hash joins. Normalized to the next
  /// power of two at operator Open (the partition index is a mask over the
  /// mixed key hash); 0 is rejected. The partition count is also the fan-out
  /// ceiling of the partition-parallel join phase.
  size_t hash_join_partitions = 64;

  /// Intra-query worker threads (morsel scans, grace join units). 1 (the
  /// default) runs the same units inline on the driving thread — no pool
  /// is created, no task is spawned. The driving thread merges worker
  /// output and is not counted here.
  size_t exec_workers = 1;

  /// Upper bound Validate() accepts for exec_workers: far above any real
  /// fleet, low enough that a corrupted knob cannot spawn thousands of
  /// threads.
  static constexpr size_t kMaxExecWorkers = 256;

  /// Rows per RowBatch. 1 gives tuple-granular ticks: every internal intake
  /// loop sizes its batches from this, so monitor snapshots land on single
  /// tuples (estimator freeze points are the same at every batch size).
  size_t batch_size = 1024;

  /// Online-aggregation options (src/ola). Defaults to disabled, in which
  /// case no OLA hook runs anywhere on the execution path.
  OlaOptions ola;

  Pcg32 rng{0x5eed5eedULL};

  /// Check the knobs that would otherwise misbehave at execution time: a
  /// batch_size of 0 makes every NextBatch return an empty
  /// (= end-of-stream) batch. Called by the executors before Open;
  /// service submissions surface the error on the wire instead of wedging
  /// a worker. (hash_join_partitions == 0 is rejected separately at
  /// operator Open, where the power-of-two normalization lives.)
  Status Validate() const {
    if (batch_size == 0) {
      return Status::InvalidArgument("batch_size must be >= 1");
    }
    if (exec_workers == 0) {
      return Status::InvalidArgument("exec_workers must be >= 1");
    }
    if (exec_workers > kMaxExecWorkers) {
      return Status::InvalidArgument("exec_workers must be <= 256");
    }
    if (ola.enabled) {
      if (ola.has_abs_target &&
          (!std::isfinite(ola.abs_target) || ola.abs_target <= 0.0)) {
        return Status::InvalidArgument(
            "ola target half-width must be finite and > 0");
      }
      if (ola.has_rel_target &&
          (!std::isfinite(ola.rel_target) || ola.rel_target <= 0.0)) {
        return Status::InvalidArgument(
            "ola relative target half-width must be finite and > 0");
      }
      if (!std::isfinite(ola.confidence) || ola.confidence <= 0.0 ||
          ola.confidence >= 1.0) {
        return Status::InvalidArgument(
            "ola target confidence must lie strictly inside (0, 1)");
      }
    }
    return Status::OK();
  }

  /// Observers are invoked once per emitted batch (n = rows in the batch);
  /// progress monitors and bench harnesses hook here to observe estimates
  /// mid-phase.
  ///
  /// Lifecycle contract (enforced): registration is not thread-safe and
  /// must bracket execution — add observers after compiling the plan,
  /// remove them after the drive loop returns. Drivers mark the window
  /// with BeginExecution()/EndExecution(); Add/Remove abort inside it.
  void AddTickObserver(TickObserver* observer) {
    QPI_CHECK(!executing_.load(std::memory_order_relaxed) &&
              "observer registered while the query executes");
    tick_observers_.push_back(observer);
  }
  void RemoveTickObserver(TickObserver* observer) {
    QPI_CHECK(!executing_.load(std::memory_order_relaxed) &&
              "observer removed while the query executes");
    tick_observers_.erase(
        std::remove(tick_observers_.begin(), tick_observers_.end(), observer),
        tick_observers_.end());
  }

  /// Marks the execution window during which the observer list is frozen.
  /// Called by QueryExecutor::Run and QueryRun::Execute;
  /// manual NextBatch drivers may skip it (they lose the lifecycle
  /// check, nothing else).
  void BeginExecution() {
    phase_.store(QueryPhase::kRunning, std::memory_order_relaxed);
    executing_.store(true, std::memory_order_relaxed);
  }

  /// Ends the execution window; call after every operator has Closed.
  void EndExecution() {
    executing_.store(false, std::memory_order_relaxed);
    phase_.store(QueryPhase::kFinished, std::memory_order_relaxed);
  }

  /// Lifecycle phase for progress consumers. An admission queue parks a
  /// submitted query in kQueued (set_phase) before handing it to a worker;
  /// BeginExecution/EndExecution advance it from there. Readable from any
  /// thread (relaxed atomic) — qpi-serve derives the "queued" wire state
  /// of a pre-execution snapshot from this hook.
  QueryPhase phase() const { return phase_.load(std::memory_order_relaxed); }
  void set_phase(QueryPhase phase) {
    phase_.store(phase, std::memory_order_relaxed);
  }

  /// Deliver `n` getnext ticks to the observers. Called only from the
  /// query's driving thread: by every Operator::NextBatch wrapper, and by
  /// OrderedMerge's delivery callbacks for the operators a fused scan
  /// captures, so observers always run single-threaded, in unit order.
  void Tick(uint64_t n) {
    for (TickObserver* observer : tick_observers_) observer->OnTick(n);
  }

  /// Cooperative cancellation flag, checked in the operator tick path and
  /// in every intra-query worker task loop. May be flipped from any
  /// thread; the executing query then drains as if it hit end-of-stream.
  /// Relaxed ordering suffices: the flag carries no payload, only "stop
  /// soon", and the pool join publishes final state.
  void RequestCancel() { cancelled_.store(true, std::memory_order_relaxed); }
  bool IsCancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

  /// End the query early with its current approximate answer: flags the
  /// stop as OLA-initiated (so the terminal kind is "ola_stopped", not
  /// "cancelled") and rides the cooperative cancellation drain. Flipped by
  /// the stop-condition check on the publish path or by a watcher-issued
  /// stop verb; like RequestCancel, callable from any thread.
  void RequestOlaStop() {
    ola_stopped_.store(true, std::memory_order_relaxed);
    RequestCancel();
  }
  bool OlaStopped() const {
    return ola_stopped_.load(std::memory_order_relaxed);
  }

  /// The scheduler this query's subtasks (morsels, join units) run on. A
  /// service/multi-query driver attaches its shared fleet before
  /// execution (AttachScheduler); otherwise a private fleet of
  /// exec_workers workers is created lazily on first use and destroyed
  /// with the context, after every operator has closed and waited for its
  /// task groups. Never called when exec_workers == 1: OrderedMerge then
  /// runs scan morsels and join units inline.
  TaskScheduler* scheduler();

  /// Borrow a shared fleet for this query's subtasks. The scheduler must
  /// outlive the query's execution; detach (nullptr) before it is
  /// destroyed. Not thread-safe: call between executions only. The second
  /// parameter is unused; it stays until the benchmark harness, which
  /// passes it, stops doing so (ROADMAP item 8).
  void AttachScheduler(TaskScheduler* scheduler, uint64_t /*unused*/) {
    attached_sched_ = scheduler;
  }

  ExecContext();
  ~ExecContext();
  ExecContext(const ExecContext&) = delete;
  ExecContext& operator=(const ExecContext&) = delete;

 private:
  std::vector<TickObserver*> tick_observers_;
  std::atomic<QueryPhase> phase_{QueryPhase::kRunning};
  std::atomic<bool> cancelled_{false};
  std::atomic<bool> ola_stopped_{false};
  std::atomic<bool> executing_{false};
  TaskScheduler* attached_sched_ = nullptr;
  std::unique_ptr<TaskScheduler> owned_sched_;
};

}  // namespace qpi

#endif  // QPI_EXEC_EXEC_CONTEXT_H_
