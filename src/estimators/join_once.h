#ifndef QPI_ESTIMATORS_JOIN_ONCE_H_
#define QPI_ESTIMATORS_JOIN_ONCE_H_

#include <cstdint>
#include <functional>

#include "common/thread_guard.h"
#include "plan/plan_node.h"
#include "stats/hash_histogram.h"
#include "stats/normal.h"
#include "stats/running_moments.h"

namespace qpi {

/// \brief ONCE — the paper's online binary equijoin cardinality estimator
/// (Section 4.1.1 / 4.1.2).
///
/// During the preprocessing pass over the build input R (hash partitioning,
/// or the sort intake of a sort-merge join) it builds the exact histogram
/// N^R_i of join-key frequencies. During the *first* pass over the probe
/// input S — the partitioning/sort pass, before any join processing — each
/// probe key i contributes N^R_i, maintaining
///     D_{t+1} = (D_t · t + N^R_i · |S|) / (t + 1)
/// incrementally (we keep the running sum; the two forms are identical).
/// The estimate is unbiased on a random probe prefix and equals the exact
/// join cardinality once the whole probe input has been partitioned.
///
/// The confidence interval is the CLT interval on the sample mean of the
/// probed counts: D_t ± Z_α · |S| · stdev(N^R) / sqrt(t), shrinking as
/// 1/sqrt(t) exactly as the paper's β-bound does.
class OnceBinaryJoinEstimator {
 public:
  /// \param probe_total_provider returns |S|, the (possibly estimated)
  ///        total size of the probe input.
  /// \param flavor how each probe key contributes to the estimated output
  ///        (Section 4.1.1 notes the construction extends to semijoins and
  ///        outer joins):
  ///          inner:       N^R_i          (matches emitted)
  ///          semi:        1 if N^R_i > 0 (probe row emitted at most once)
  ///          anti:        1 if N^R_i == 0
  ///          probe-outer: max(N^R_i, 1)  (unmatched probe rows NULL-padded)
  explicit OnceBinaryJoinEstimator(
      std::function<double()> probe_total_provider,
      JoinFlavor flavor = JoinFlavor::kInner);

  /// One build-input tuple's join key. Callers skip NULL keys: they match
  /// nothing.
  void ObserveBuildKey(uint64_t key) { build_hist_.Increment(key); }

  /// Mark the build pass finished (histogram is now exact).
  void BuildComplete() {
    guard_.Check();
    build_complete_ = true;
  }

  /// One probe-input tuple's join key, seen in the partitioning/sort pass.
  void ObserveProbeKey(uint64_t key) { ObserveProbeKeys(&key, 1); }

  /// Batched form: observe `n` probe keys in one call. Equivalent to n
  /// ObserveProbeKey calls but amortizes the frozen check and member
  /// loads across the batch — the hot path of the batch-at-a-time probe
  /// partitioning phase.
  void ObserveProbeKeys(const uint64_t* keys, size_t n);

  /// One probe tuple whose join key is NULL: it matches no build row, so
  /// it contributes as a key with N^R_i = 0 under the flavor rule.
  void ObserveNullProbeKey();

  /// Mark the probe partitioning pass finished: the estimate is now exact
  /// provided estimation was never frozen early.
  void ProbeComplete() { probe_complete_ = true; }

  /// Stop refining (the random sample of the probe input is exhausted; the
  /// rest of the stream may not be random). Further ObserveProbeKey calls
  /// are ignored.
  void Freeze() { frozen_ = true; }
  bool frozen() const { return frozen_; }

  /// Current estimate D_t of |R ⋈ S|.
  double Estimate() const;

  /// Half-width of the α confidence interval around Estimate().
  double ConfidenceHalfWidth(double alpha = kDefaultConfidence) const;

  /// True once the estimate is exact (full probe pass, never frozen).
  bool Exact() const { return probe_complete_ && !frozen_; }

  uint64_t probe_tuples_seen() const { return probe_seen_; }

  /// The build-side histogram (shared with pipeline push-down, sort-merge
  /// reuse and aggregation push-down).
  const HashHistogram& build_histogram() const { return build_hist_; }

 private:
  /// The estimation windows (build pass, probe-partition pass) are
  /// sequential phases of the intra-query parallel design; this asserts
  /// nobody moves observation onto a worker thread. Checked once per
  /// observed batch, not per tuple.
  ThreadAffinityGuard guard_;

  /// The flavor rule: the output a probe key with `matches` build rows
  /// contributes.
  double Contribution(double matches) const {
    switch (flavor_) {
      case JoinFlavor::kInner:
        return matches;
      case JoinFlavor::kSemi:
        return matches > 0 ? 1.0 : 0.0;
      case JoinFlavor::kAnti:
        return matches > 0 ? 0.0 : 1.0;
      case JoinFlavor::kProbeOuter:
        return matches > 0 ? matches : 1.0;
    }
    return 0.0;
  }

  std::function<double()> probe_total_provider_;
  JoinFlavor flavor_;
  HashHistogram build_hist_;
  RunningMoments contribution_moments_;
  double contribution_sum_ = 0.0;
  uint64_t probe_seen_ = 0;
  bool build_complete_ = false;
  bool probe_complete_ = false;
  bool frozen_ = false;
};

}  // namespace qpi

#endif  // QPI_ESTIMATORS_JOIN_ONCE_H_
