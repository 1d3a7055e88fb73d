#ifndef QPI_PROGRESS_GNM_H_
#define QPI_PROGRESS_GNM_H_

#include <vector>

#include "exec/operator.h"

namespace qpi {

/// One observation of query progress under the getnext() model.
struct GnmSnapshot {
  uint64_t tick = 0;          ///< engine ticks when taken
  double current_calls = 0;   ///< C(Q) — getnext() calls made so far
  double total_estimate = 0;  ///< live estimate of T(Q)
  /// Half-width of the confidence interval around total_estimate, combined
  /// from the per-operator CLT half-widths of every *running* estimator —
  /// root-sum-square by default (independent estimators: variances add),
  /// or the conservative union-bound sum under CiCombine::kConservativeSum.
  /// 0 once every contribution is exact. Streamed to qpi-serve watchers
  /// alongside T̂.
  double ci_half_width = 0;
  /// Estimated progress C(Q) / T̂(Q), clamped to [0, 1].
  double EstimatedProgress() const {
    if (total_estimate <= 0) return 0.0;
    double p = current_calls / total_estimate;
    return p > 1.0 ? 1.0 : p;
  }
};

/// \brief Accounts the getnext() model of progress (paper Section 3):
/// gnm = C(Q) / T(Q) with C(Q) = Σ K_i and T(Q) = Σ N_i over all operators.
///
/// Per-operator N_i classification (Section 4.4):
///  - finished operator → exact (its emitted count);
///  - running operator → its live estimate (ONCE / dne / byte per mode);
///  - not-yet-started operator → the optimizer estimate *refined* by the
///    ratio between its inputs' live estimates and their optimizer
///    estimates — the simplified form of the future-pipeline bound
///    refinement of Chaudhuri et al. [9] (see DESIGN.md).
/// RefineEstimate below is that classification; the accountant and the
/// ensemble's per-candidate totals differ only in the running estimate.
/// Thread-safety: CurrentCalls() only reads the per-operator atomic
/// counters (relaxed loads) and is safe from any thread while the query
/// executes — this is the monitor thread's "relaxed-read path".
/// TotalEstimate() / Snapshot() additionally read live estimator
/// internals, which only the thread executing the query may touch; a
/// concurrent executor publishes those snapshots from the worker's tick
/// path through a SnapshotSlot (see DESIGN.md, "Threading model").
class EstimatorEnsemble;

/// N_i for `op` under the classification above, with `running(op)`
/// supplying a running operator's live estimate. Recurses into the
/// inputs of a not-yet-started operator. Executing thread only.
template <typename RunningEstimate>
double RefineEstimate(const Operator* op, const RunningEstimate& running) {
  switch (op->state()) {
    case OpState::kFinished:
      return static_cast<double>(op->tuples_emitted());
    case OpState::kRunning:
      return running(op);
    case OpState::kNotStarted: {
      // Future operator: scale the optimizer estimate by how much the live
      // estimates of its inputs have moved relative to their own optimizer
      // estimates.
      double est = op->optimizer_estimate();
      for (size_t i = 0; i < op->num_children(); ++i) {
        const Operator* c = op->child(i);
        double opt = c->optimizer_estimate();
        if (opt > 0) est *= RefineEstimate(c, running) / opt;
      }
      return est;
    }
  }
  return op->optimizer_estimate();
}

class GnmAccountant {
 public:
  explicit GnmAccountant(Operator* root);

  /// Route running-operator N_i estimates through an ensemble selector:
  /// once attached, RefinedEstimate answers the selector's published
  /// per-operator choice (refreshed by EstimatorEnsemble::Observe on the
  /// publish path) instead of CurrentCardinalityEstimate() — the context
  /// mode's estimator — which stays the fallback until the ensemble has
  /// observed once.
  /// The ensemble must outlive this accountant or be detached (nullptr).
  void AttachEnsemble(const EstimatorEnsemble* ensemble) {
    ensemble_ = ensemble;
  }
  const EstimatorEnsemble* ensemble() const { return ensemble_; }

  /// C(Q) right now. Safe from any thread (relaxed atomic loads).
  uint64_t CurrentCalls() const;

  /// Live estimate of T(Q). Executing thread only.
  double TotalEstimate() const;

  /// Take a snapshot (tick recorded for plotting). Executing thread only.
  GnmSnapshot Snapshot(uint64_t tick = 0) const;

  /// Snapshot that additionally fills ci_half_width at confidence level
  /// `confidence` — the form qpi-serve publishes. Executing thread only.
  GnmSnapshot SnapshotWithConfidence(
      uint64_t tick, double confidence,
      CiCombine combine = CiCombine::kRootSumSquare) const;

  /// Live N_i estimate for one operator under the classification above.
  double RefinedEstimate(const Operator* op) const;

  /// Combined confidence half-width over every running operator (finished
  /// and not-started ones contribute 0). The per-operator estimators
  /// observe disjoint inputs, so their errors are independent and the
  /// CLT-correct combination adds variances: the default returns
  /// sqrt(Σ w_i²). kConservativeSum returns the plain Σ w_i union bound —
  /// always ≥ the root-sum-square — for consumers that want a guaranteed
  /// over-cover. Executing thread only, like TotalEstimate().
  double TotalHalfWidth(double confidence,
                        CiCombine combine = CiCombine::kRootSumSquare) const;

  /// The flattened operator tree (pre-order). Per-operator counters and
  /// states read off these pointers are relaxed atomics — safe from any
  /// thread — which is how qpi-serve assembles per-operator counters for
  /// the wire without touching estimator internals.
  const std::vector<const Operator*>& operators() const { return ops_; }

 private:
  Operator* root_;
  std::vector<const Operator*> ops_;  // flattened tree
  const EstimatorEnsemble* ensemble_ = nullptr;
};

}  // namespace qpi

#endif  // QPI_PROGRESS_GNM_H_
