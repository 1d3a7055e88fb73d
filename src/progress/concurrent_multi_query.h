#ifndef QPI_PROGRESS_CONCURRENT_MULTI_QUERY_H_
#define QPI_PROGRESS_CONCURRENT_MULTI_QUERY_H_

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "exec/operator.h"
#include "progress/gnm.h"
#include "progress/query_run.h"

namespace qpi {

/// \brief Truly concurrent multi-query execution with live, race-free
/// progress snapshots.
///
/// The multiple-queries extension of Luo et al. [19] that the paper cites:
/// each registered query is a QueryRun executed to completion on a worker
/// of a fixed-size fleet while a dedicated monitor thread samples combined
/// gnm progress (Σ C_i / Σ T̂_i) at a configurable period — the paper's
/// "lightweight" premise taken to its concurrent conclusion (progress is
/// observed while queries run).
///
/// Threading model (see DESIGN.md, "Threading model"):
///  - per-operator `tuples_emitted` counters and operator states are
///    relaxed atomics, so `GnmAccountant::CurrentCalls()` is safe from any
///    thread at any time;
///  - estimator internals are NOT thread-safe, so full snapshots
///    (which need `TotalEstimate()`) are taken on the worker executing the
///    query — every `publish_interval` ticks, by the run's TracePublisher —
///    and published through its lock-free SnapshotSlot and trace ring;
///  - the monitor thread combines the latest published T̂(Q) with the live
///    atomic C(Q) and appends to a mutex-guarded history; UI threads read
///    the same slots lock-free.
///
/// Cancel(i) flips an atomic flag checked in the operator tick path, so a
/// runaway query drains promptly.
class ConcurrentMultiQueryExecutor {
 public:
  struct Options {
    /// Worker threads in the pool (degree of query parallelism).
    size_t num_workers = 4;
    /// Ticks between snapshot publications on the executing worker.
    uint64_t publish_interval = 1024;
    /// Monitor thread sampling period.
    std::chrono::microseconds monitor_period{2000};
  };

  ConcurrentMultiQueryExecutor() : ConcurrentMultiQueryExecutor(Options()) {}
  explicit ConcurrentMultiQueryExecutor(Options options)
      : options_(options) {}

  /// Register a query (takes ownership of the operator tree and context).
  /// `name` is the caller's label and is not retained. The context's
  /// catalog must outlive the executor and be read-only while RunAll is in
  /// flight. Must not be called during RunAll.
  Status Add(std::string name, OperatorPtr root,
             std::unique_ptr<ExecContext> ctx);

  /// Run every registered query that is not yet terminal to completion on
  /// the worker pool, with the monitor thread sampling throughout. Blocks
  /// until all queries drain (or are cancelled); returns the first
  /// per-query error, if any.
  Status RunAll();

  /// Request cancellation of query i. Safe from any thread, before or
  /// during RunAll; the query drains as if it hit end-of-stream.
  void Cancel(size_t i);

  size_t num_queries() const { return runs_.size(); }
  /// Query i's run: live counters, terminal state, and its progress curve
  /// (`trace`, decimated like every other query's).
  const QueryRun& entry(size_t i) const { return *runs_[i]; }
  bool AllDone() const;

  /// Estimated progress of query i, clamped to [0,1] and monotone; 1.0
  /// once the query is terminal, whether it finished or was cancelled.
  /// Safe from any thread while the query runs.
  double QueryProgress(size_t i) const;

  /// Combined progress Σ C_i / Σ T̂_i over all queries, clamped to [0,1].
  /// Safe from any thread.
  double CombinedProgress() const;

  /// Latest published snapshot of query i (lock-free read).
  GnmSnapshot LatestSnapshot(size_t i) const;

  /// Combined-progress trajectory recorded by the monitor thread (copy;
  /// safe to call while RunAll is in flight).
  std::vector<double> combined_history() const;

 private:
  void MonitorLoop();
  void Sample();

  Options options_;
  std::vector<std::unique_ptr<QueryRun>> runs_;
  std::atomic<bool> monitor_stop_{false};

  mutable std::mutex history_mu_;
  std::vector<double> combined_history_;
};

}  // namespace qpi

#endif  // QPI_PROGRESS_CONCURRENT_MULTI_QUERY_H_
