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
#include "progress/snapshot_slot.h"

namespace qpi {

/// \brief Truly concurrent multi-query execution with live, race-free
/// progress snapshots.
///
/// The multiple-queries extension of Luo et al. [19] that the paper cites:
/// each registered query runs to completion on a worker of a fixed-size
/// fleet while a dedicated monitor thread samples per-query and combined
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
///    query — every `publish_interval` ticks — and published through a
///    lock-free single-writer SnapshotSlot per query;
///  - the monitor thread combines the latest published T̂(Q) with the live
///    atomic C(Q) and appends to a mutex-guarded history; UI threads read
///    the latest combined snapshot from another lock-free slot.
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

  /// One query's slot.
  struct Entry {
    std::string name;
    OperatorPtr root;
    std::unique_ptr<ExecContext> ctx;
    std::unique_ptr<GnmAccountant> accountant;
    SnapshotSlot slot;                      ///< latest published snapshot
    std::atomic<uint64_t> rows_emitted{0};  ///< root rows, readable live
    std::atomic<bool> done{false};
    Status status;      ///< worker-written; read after RunAll returns
    uint64_t ticks = 0; ///< worker-local tick count (not shared)
    /// Monotone floor under QueryProgress(): counters advance by whole
    /// batches between T̂ publications, and a freshly published (larger)
    /// T̂ must not make already-reported progress run backwards.
    std::atomic<double> progress_floor{0.0};
  };

  ConcurrentMultiQueryExecutor() : ConcurrentMultiQueryExecutor(Options()) {}
  explicit ConcurrentMultiQueryExecutor(Options options)
      : options_(options) {}

  /// Register a query (takes ownership of the operator tree and context).
  /// The context's catalog must outlive the executor and be read-only
  /// while RunAll is in flight. Must not be called during RunAll.
  Status Add(std::string name, OperatorPtr root,
             std::unique_ptr<ExecContext> ctx);

  /// Run every registered query to completion on the worker pool, with the
  /// monitor thread sampling throughout. Blocks until all queries drain
  /// (or are cancelled); returns the first per-query error, if any.
  Status RunAll();

  /// Request cancellation of query i. Safe from any thread, before or
  /// during RunAll; the query drains as if it hit end-of-stream.
  void Cancel(size_t i);

  size_t num_queries() const { return entries_.size(); }
  const Entry& entry(size_t i) const { return *entries_[i]; }
  bool AllDone() const;

  /// Estimated progress of query i, clamped to [0,1]. Safe from any
  /// thread while the query runs: combines the latest published T̂ with
  /// the live atomic C(Q).
  double QueryProgress(size_t i) const;

  /// Combined progress Σ C_i / Σ T̂_i over all queries, clamped to [0,1].
  /// Safe from any thread.
  double CombinedProgress() const;

  /// Latest published snapshot of query i (lock-free read).
  GnmSnapshot LatestSnapshot(size_t i) const;

  /// Combined-progress trajectory recorded by the monitor thread (copy;
  /// safe to call while RunAll is in flight).
  std::vector<double> combined_history() const;

  /// Per-query snapshot trajectory recorded by the monitor thread (copy).
  std::vector<GnmSnapshot> query_history(size_t i) const;

 private:
  void RunOne(Entry* entry);
  void MonitorLoop();
  void Sample();
  /// Combined progress from the published slots + live counters; fills
  /// `per_query` (when non-null) with the per-query snapshots used.
  double CombinedFromSlots(std::vector<GnmSnapshot>* per_query) const;

  Options options_;
  std::vector<std::unique_ptr<Entry>> entries_;
  SnapshotSlot combined_slot_;
  std::atomic<bool> monitor_stop_{false};

  mutable std::mutex history_mu_;
  std::vector<double> combined_history_;
  std::vector<std::vector<GnmSnapshot>> query_histories_;
};

}  // namespace qpi

#endif  // QPI_PROGRESS_CONCURRENT_MULTI_QUERY_H_
