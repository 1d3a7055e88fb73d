#ifndef QPI_PROGRESS_MONITOR_H_
#define QPI_PROGRESS_MONITOR_H_

#include <cstdint>
#include <vector>

#include "exec/exec_context.h"
#include "exec/operator.h"
#include "progress/gnm.h"

namespace qpi {

/// \brief Samples gnm progress while a query runs.
///
/// Observes the engine's tick stream (one OnTick(n) per emitted batch) and
/// takes a GnmSnapshot whenever the cumulative tick count crosses a
/// `tick_interval` boundary (plus one at the very end via Finalize()).
/// After the run, the true T(Q) is known — it equals the final C(Q) — so
/// each snapshot can be rendered as (actual progress, estimated progress),
/// the two curves of the paper's Figure 8, or as the ratio error
/// R = T(Q) / T̂(Q) of Section 5.1.
class ProgressMonitor : public TickObserver {
 public:
  ProgressMonitor(Operator* root, uint64_t tick_interval);

  /// Register on the context's tick-observer list (coexists with any other
  /// observers already installed).
  void InstallOn(ExecContext* ctx);

  /// Take the terminal snapshot (call after the query drains). A no-op
  /// when OnTick already snapshotted at the current tick, so the terminal
  /// observation is never duplicated.
  void Finalize();

  const std::vector<GnmSnapshot>& snapshots() const { return snapshots_; }

  /// True total getnext() calls — valid after the run completes.
  double TrueTotalCalls() const;

  /// Actual progress at snapshot i (C_i / C_final); valid after Finalize.
  double ActualProgressAt(size_t i) const;

  /// Ratio error R = T(Q) / T̂(Q) of the paper's Section 5.1, computed via
  /// the identity R = estimated_progress / actual_progress; R > 1 means
  /// progress was overestimated at snapshot i. Valid after Finalize.
  double RatioErrorAt(size_t i) const;

  /// Ticks arrive on the query's driving thread in batch-sized jumps, or
  /// unit-sized ones where the ordered merge delivers a fused scan
  /// chain's rows (DESIGN.md §8), in the same sequence at every worker
  /// count; a snapshot is taken whenever the count crosses an interval
  /// boundary (at most one per delivery, so the sampling lag is bounded
  /// by one delivery).
  void OnTick(uint64_t n) override;

 private:
  Operator* root_;
  GnmAccountant accountant_;
  uint64_t tick_interval_;
  uint64_t ticks_ = 0;
  uint64_t last_snapshot_tick_ = 0;
  std::vector<GnmSnapshot> snapshots_;
};

}  // namespace qpi

#endif  // QPI_PROGRESS_MONITOR_H_
