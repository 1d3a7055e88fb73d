#ifndef QPI_ESTIMATORS_THETA_JOIN_H_
#define QPI_ESTIMATORS_THETA_JOIN_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/value.h"
#include "plan/expr.h"
#include "stats/normal.h"
#include "stats/running_moments.h"

namespace qpi {

/// \brief ONCE-style estimator for inequality join predicates
/// (Section 4.1.1: "similar estimators can be constructed for other kinds
/// of join predicates (e.g., R.x > S.y)").
///
/// Instead of a frequency histogram, the preprocessing pass over the inner
/// input collects its join keys into a sorted array (order statistics).
/// Each outer tuple's exact match count under <, <=, >, >=, = or != is
/// then one binary search: e.g. for `outer.x > inner.y` it is the number
/// of inner keys strictly below x. The incremental average and CLT
/// interval are identical to the equijoin estimator's.
class OnceInequalityJoinEstimator {
 public:
  /// \param op the comparison applied as `outer_value <op> inner_value`.
  /// \param outer_total_provider returns the (possibly estimated) total
  ///        size of the outer input.
  OnceInequalityJoinEstimator(CompareOp op,
                              std::function<double()> outer_total_provider);

  /// One inner-input tuple's join key (preprocessing pass). A NULL key
  /// matches nothing and is not kept.
  void ObserveInnerKey(const Value& key);
  /// Mark the inner pass finished; sorts the collected keys.
  void InnerComplete();

  /// One outer tuple's join key; contributes its exact match count.
  void ObserveOuterKey(const Value& key);
  void OuterComplete() { outer_complete_ = true; }

  void Freeze() { frozen_ = true; }
  bool frozen() const { return frozen_; }

  /// Exact number of inner keys matching `key` under the operator.
  uint64_t MatchCount(const Value& key) const;

  double Estimate() const;
  double ConfidenceHalfWidth(double alpha = kDefaultConfidence) const;
  bool Exact() const { return outer_complete_ && !frozen_; }
  uint64_t outer_tuples_seen() const { return outer_seen_; }

 private:
  CompareOp op_;
  std::function<double()> outer_total_provider_;
  std::vector<Value> sorted_inner_;
  bool inner_complete_ = false;
  RunningMoments moments_;
  double contribution_sum_ = 0.0;
  uint64_t outer_seen_ = 0;
  bool outer_complete_ = false;
  bool frozen_ = false;
};

}  // namespace qpi

#endif  // QPI_ESTIMATORS_THETA_JOIN_H_
