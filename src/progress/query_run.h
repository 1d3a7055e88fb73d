#ifndef QPI_PROGRESS_QUERY_RUN_H_
#define QPI_PROGRESS_QUERY_RUN_H_

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "progress/accuracy_audit.h"
#include "progress/ensemble.h"
#include "progress/trace_ring.h"

namespace qpi {

/// \brief One query from its seeded snapshot to its terminal: the compiled
/// tree and context, the gnm accountant (optionally with the estimator
/// ensemble), the published-snapshot slot, the progress-curve ring, and
/// the end-of-query sequence that makes the last estimate exact (T̂ = C).
/// qpi-serve (QueryHandle) and the concurrent multi-query executor both
/// run their queries through Execute().
///
/// Threading: the executing worker owns the estimator internals; every
/// field another thread reads is an atomic, the seqlock slot, or the
/// internally locked ring. `status` and `audit_json` are written before
/// the terminal release-store, so they are readable once IsTerminal().
struct QueryRun {
  /// Stored with release ordering *after* the final snapshot lands in
  /// `slot`: an acquire reader that observes a terminal value finds the
  /// final snapshot, OLA answer, terminal trace sample and audit in place.
  /// kOlaStopped is an OLA early termination — an accepted approximate
  /// answer, a success, not a cancellation.
  enum class Terminal : int {
    kNone = 0,
    kFinished,
    kFailed,
    kCancelled,
    kOlaStopped,
  };

  /// Runs on the terminalizing thread just before the terminal store, so
  /// accounting done here is visible to anyone who has seen the terminal.
  /// `report` is the audit of a finished query, empty (invalid) otherwise.
  using OutcomeFn = std::function<void(Terminal, const AccuracyReport&)>;

  /// Builds the accountant, attaches an ensemble fed by `feedback` (may be
  /// null; must outlive the run) when `with_ensemble`, parks the context in
  /// QueryPhase::kQueued, and seeds `slot` and the ring with the
  /// optimizer-based snapshot (progress 0).
  QueryRun(OperatorPtr root, std::unique_ptr<ExecContext> ctx,
           size_t trace_capacity = TraceRing::kDefaultCapacity,
           bool with_ensemble = false, FeedbackCache* feedback = nullptr);

  /// Run the query to its terminal on the calling thread, at most once:
  /// attach `scheduler` (null: the context's own fleet); Open →
  /// BeginExecution → drain → Close → EndExecution with a TracePublisher
  /// every `publish_interval` ticks; final ensemble Observe; final snapshot
  /// into `slot`; final OLA answer; terminal trace sample; for a finished
  /// query the audit and ensemble Finalize; `on_outcome` (may be empty);
  /// terminal release-store; detach the scheduler.
  void Execute(TaskScheduler* scheduler, uint64_t publish_interval,
               const OutcomeFn& on_outcome);

  /// Terminalize a query that never ran (cancelled while queued): close
  /// the trace with the seeded snapshot, then `on_outcome` and the store as
  /// in Execute. The caller guarantees no worker will run this query.
  void TerminalizeQueued(const OutcomeFn& on_outcome);

  bool IsTerminal() const {
    return terminal.load(std::memory_order_acquire) != Terminal::kNone;
  }

  /// Terminal name if set, else queued/running off the context's phase.
  const char* WireState() const;

  /// The published snapshot, with C(Q) refreshed from the live counters
  /// while the query runs and T̂ clamped to at least C. Any thread.
  GnmSnapshot LiveSnapshot() const;

  /// Progress in [0,1], monotone per query (CAS-max floor). A finished
  /// query reads 1.0; a cancelled or failed one its final snapshot (0 when
  /// cancelled while queued). Any thread.
  double Progress();

  OperatorPtr root;
  std::unique_ptr<ExecContext> ctx;
  std::unique_ptr<GnmAccountant> accountant;
  std::unique_ptr<EstimatorEnsemble> ensemble;  ///< null unless requested
  SnapshotSlot slot;                            ///< latest GnmSnapshot
  std::unique_ptr<TraceRing> trace;             ///< the progress curve
  std::vector<std::string> op_labels;  ///< pre-order, names sample arrays
  /// Non-owning OLA hook, attached by the owner before Execute.
  OlaFeed* ola_feed = nullptr;
  std::atomic<uint64_t> rows_emitted{0};  ///< root rows, readable live
  /// Floor under Progress(): a freshly published, larger T̂ must not make
  /// already-reported progress run backwards.
  std::atomic<double> progress_floor{0.0};
  std::atomic<Terminal> terminal{Terminal::kNone};
  Status status;                    ///< Open's error for a failed query
  std::string audit_json = "null";  ///< AccuracyReportJson once finished

 private:
  /// Both terminal paths end here: record the terminal sample, audit a
  /// finished query, run `on_outcome`, release the terminal.
  void Terminate(TraceSample terminal_sample, Terminal outcome,
                 const OutcomeFn& on_outcome);
};

}  // namespace qpi

#endif  // QPI_PROGRESS_QUERY_RUN_H_
