#include "estimators/join_once.h"

#include <cmath>

#include "common/check.h"

namespace qpi {

OnceBinaryJoinEstimator::OnceBinaryJoinEstimator(
    std::function<double()> probe_total_provider, JoinFlavor flavor)
    : probe_total_provider_(std::move(probe_total_provider)),
      flavor_(flavor) {
  QPI_CHECK(probe_total_provider_ != nullptr);
}

void OnceBinaryJoinEstimator::ObserveProbeKeys(const uint64_t* keys,
                                               size_t n) {
  if (frozen_ || n == 0) return;
  guard_.Check();
  QPI_DCHECK(build_complete_);
  double sum = contribution_sum_;
  for (size_t i = 0; i < n; ++i) {
    double matches = static_cast<double>(build_hist_.Count(keys[i]));
    double c = 0.0;
    switch (flavor_) {
      case JoinFlavor::kInner:
        c = matches;
        break;
      case JoinFlavor::kSemi:
        c = matches > 0 ? 1.0 : 0.0;
        break;
      case JoinFlavor::kAnti:
        c = matches > 0 ? 0.0 : 1.0;
        break;
      case JoinFlavor::kProbeOuter:
        c = matches > 0 ? matches : 1.0;
        break;
    }
    sum += c;
    contribution_moments_.Observe(c);
  }
  contribution_sum_ = sum;
  probe_seen_ += n;
}

double OnceBinaryJoinEstimator::Estimate() const {
  if (probe_seen_ == 0) return 0.0;
  double mean = contribution_sum_ / static_cast<double>(probe_seen_);
  if (probe_complete_ && !frozen_) {
    // Whole probe input partitioned: D equals the exact join size.
    return contribution_sum_;
  }
  return mean * probe_total_provider_();
}

double OnceBinaryJoinEstimator::ConfidenceHalfWidth(double alpha) const {
  if (probe_seen_ == 0) return 0.0;
  if (Exact()) return 0.0;
  double z = ZAlpha(alpha);
  return z * probe_total_provider_() * contribution_moments_.StdDev() /
         std::sqrt(static_cast<double>(probe_seen_));
}

}  // namespace qpi
