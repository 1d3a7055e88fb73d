#include "estimators/theta_join.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace qpi {

OnceInequalityJoinEstimator::OnceInequalityJoinEstimator(
    CompareOp op, std::function<double()> outer_total_provider)
    : op_(op), outer_total_provider_(std::move(outer_total_provider)) {
  QPI_CHECK(outer_total_provider_ != nullptr);
}

void OnceInequalityJoinEstimator::ObserveInnerKey(const Value& key) {
  QPI_DCHECK(!inner_complete_);
  if (key.is_null()) return;
  sorted_inner_.push_back(key);
}

void OnceInequalityJoinEstimator::InnerComplete() {
  std::sort(sorted_inner_.begin(), sorted_inner_.end());
  inner_complete_ = true;
}

uint64_t OnceInequalityJoinEstimator::MatchCount(const Value& key) const {
  QPI_DCHECK(inner_complete_);
  // SQL semantics: a comparison with NULL holds for no inner key.
  if (key.is_null()) return 0;
  auto lower = std::lower_bound(sorted_inner_.begin(), sorted_inner_.end(),
                                key);
  auto upper = std::upper_bound(lower, sorted_inner_.end(), key);
  uint64_t below = static_cast<uint64_t>(lower - sorted_inner_.begin());
  uint64_t equal = static_cast<uint64_t>(upper - lower);
  uint64_t n = sorted_inner_.size();
  // The predicate is outer <op> inner: e.g. kGt matches inner keys
  // strictly below the outer key.
  switch (op_) {
    case CompareOp::kEq:
      return equal;
    case CompareOp::kNe:
      return n - equal;
    case CompareOp::kGt:
      return below;
    case CompareOp::kGe:
      return below + equal;
    case CompareOp::kLt:
      return n - below - equal;
    case CompareOp::kLe:
      return n - below;
  }
  return 0;
}

void OnceInequalityJoinEstimator::ObserveOuterKey(const Value& key) {
  if (frozen_) return;
  double n = static_cast<double>(MatchCount(key));
  contribution_sum_ += n;
  moments_.Observe(n);
  ++outer_seen_;
}

double OnceInequalityJoinEstimator::Estimate() const {
  if (outer_seen_ == 0) return 0.0;
  if (Exact()) return contribution_sum_;
  double mean = contribution_sum_ / static_cast<double>(outer_seen_);
  return mean * outer_total_provider_();
}

double OnceInequalityJoinEstimator::ConfidenceHalfWidth(double alpha) const {
  if (outer_seen_ == 0 || Exact()) return 0.0;
  double z = ZAlpha(alpha);
  return z * outer_total_provider_() * moments_.StdDev() /
         std::sqrt(static_cast<double>(outer_seen_));
}

}  // namespace qpi
