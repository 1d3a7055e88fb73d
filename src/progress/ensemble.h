#ifndef QPI_PROGRESS_ENSEMBLE_H_
#define QPI_PROGRESS_ENSEMBLE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "estimators/feedback_cache.h"
#include "progress/accuracy_audit.h"
#include "progress/gnm.h"
#include "progress/trace_ring.h"

namespace qpi {

/// Structural fingerprint of a compiled plan: a hash over the pre-order
/// operator labels and arities. Two submissions of the same SQL against the
/// same catalog collide (labels embed table names, join keys, and predicate
/// text), which is exactly the granularity the feedback cache wants —
/// "the next structurally similar plan". Never returns 0 (0 is the cache's
/// kind-level fallback namespace).
uint64_t PlanFingerprint(const GnmAccountant& accountant);

/// The operator-kind component of the feedback-cache key: the label up to
/// its first '(' or '[' — "HashJoin[a=b]" → "HashJoin", "SeqScan(t)" →
/// "SeqScan" — so accuracy learned on one join transfers to joins over
/// other tables.
std::string OperatorKindFromLabel(const std::string& label);

/// \brief Online per-operator selection among concurrent candidate
/// estimators (the König et al. robust-progress-estimation idea, PAPERS.md).
///
/// Every publish interval, Observe() reads each running operator's estimate
/// under all candidates (ONCE / dne / byte) off the same live counters and
/// scores every candidate with an EWMA of a two-part loss computed against
/// *realized* progress only — no oracle:
///
///  - instability: |log(E_t / E_{t-1})| — a candidate that rewrites its
///    story every interval (dne under join-phase skew, Figures 4–6) is a
///    bad progress denominator even if its time-average is right;
///  - violation: max(0, log((emitted+1)/(E+1))) — an estimate *below* the
///    output already produced is provably wrong, weighted heavier.
///
/// The operator's published N̂_i is its currently selected candidate's
/// estimate; selection is argmin score with hysteresis (a challenger must
/// beat the incumbent by `switch_margin`) so the published curve doesn't
/// flap between near-tied candidates. Candidate order breaks exact ties in
/// ONCE's favor — the paper's framework stays the default until the data
/// argues otherwise.
///
/// A FeedbackCache (optional) seeds each operator's scores from audited
/// accuracy of *previous* queries with the same plan fingerprint (or, cold,
/// the same operator kind), and Finalize() deposits this query's audited
/// per-candidate accuracy back — the Glue/"Breadbox" feedback loop.
///
/// Threading: Observe/FillTraceSample/Finalize run on the thread executing
/// the query (they read live estimator internals); PublishedEstimate is
/// called from the same thread via GnmAccountant::RefinedEstimate. The
/// FeedbackCache is internally locked and shared across queries.
class EstimatorEnsemble {
 public:
  struct Options {
    double instability_weight = 1.0;
    double violation_weight = 4.0;
    /// EWMA smoothing of the per-candidate loss.
    double ewma_alpha = 0.2;
    /// A challenger's score must be below margin × incumbent's to take
    /// over (hysteresis; 1.0 disables).
    double switch_margin = 0.9;
    /// Scale applied to cached |log R| priors when seeding scores.
    double prior_scale = 0.5;
    /// Loss charged to a candidate whose estimate is non-finite or ≤ 0.
    double unavailable_loss = 1.0;
    /// Blend the published estimate across candidates weighted by
    /// 1/(score+ε) instead of hard selection. Off by default: selection
    /// keeps the published curve equal to the winning candidate's curve,
    /// which is easier to audit (and what the tests pin).
    bool blend = false;
    double blend_epsilon = 0.05;
  };

  /// `accountant` and `ctx` must outlive the ensemble; `cache` may be null
  /// (no cross-query feedback). Does not attach itself: callers decide via
  /// GnmAccountant::AttachEnsemble whether published snapshots route
  /// through the selector.
  EstimatorEnsemble(const GnmAccountant* accountant, const ExecContext* ctx,
                    FeedbackCache* cache, Options options);
  /// Default-options overload (a default argument can't reference the
  /// nested Options' member initializers from inside the class).
  EstimatorEnsemble(const GnmAccountant* accountant, const ExecContext* ctx,
                    FeedbackCache* cache);

  /// Refresh candidate estimates and selections from the live counters.
  /// Executing thread only; called on the publish path (TracePublisher)
  /// before the snapshot is taken.
  void Observe(uint64_t tick);

  /// The selected (or blended) N̂ for `op` as of the last Observe; NaN when
  /// the operator is unknown or nothing has been observed yet (callers
  /// fall back to the operator's own estimate).
  double PublishedEstimate(const Operator* op) const;

  /// The selector's current choice for `op` (kOnce before any observation
  /// or for unknown operators).
  EstimationMode SelectedFor(const Operator* op) const;

  /// Current EWMA score of one candidate at one operator (NaN before any
  /// observation and when no prior seeded it). Exposed for tests and the
  /// trace surface.
  double Score(const Operator* op, EstimationMode candidate) const;

  /// Copy the last Observe's candidate columns into a trace sample
  /// (total_candidate / op_candidate / op_selected). No-op before the
  /// first observation.
  void FillTraceSample(TraceSample* sample) const;

  /// Audit-time feedback: deposit each operator's per-candidate accuracy
  /// (mean |log R| over the report's non-degenerate checkpoints) into the
  /// cache under (fingerprint, kind). Call once, after the query finished
  /// and the accuracy report was computed. Safe without a cache (no-op).
  void Finalize(const AccuracyReport& report);

  /// How many operators currently select each candidate, indexed by
  /// EstimationMode — only operators the selector actually scored
  /// (running at some observation) are counted. Feeds
  /// qpi_estimator_selected_total at query end.
  std::vector<uint64_t> SelectedCounts() const;

  uint64_t fingerprint() const { return fingerprint_; }
  uint64_t observations() const { return observations_; }
  const Options& options() const { return options_; }

 private:
  struct PerOp {
    const Operator* op = nullptr;
    std::string kind;
    double score[kNumEstimatorCandidates];
    double estimate[kNumEstimatorCandidates];
    double prev_estimate[kNumEstimatorCandidates];
    size_t selected = 0;  // EstimationMode value
    uint64_t scored_observations = 0;
  };

  double LossFor(const PerOp& state, size_t candidate, double estimate,
                 double emitted) const;

  const GnmAccountant* accountant_;
  const ExecContext* ctx_;
  FeedbackCache* cache_;
  Options options_;
  uint64_t fingerprint_ = 0;
  uint64_t observations_ = 0;
  std::vector<PerOp> ops_;
  std::unordered_map<const Operator*, size_t> index_;
  double totals_[kNumEstimatorCandidates] = {0, 0, 0};
};

}  // namespace qpi

#endif  // QPI_PROGRESS_ENSEMBLE_H_
