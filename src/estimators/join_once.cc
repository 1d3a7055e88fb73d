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
    double c = Contribution(static_cast<double>(build_hist_.Count(keys[i])));
    sum += c;
    contribution_moments_.Observe(c);
  }
  contribution_sum_ = sum;
  probe_seen_ += n;
}

void OnceBinaryJoinEstimator::ObserveNullProbeKey() {
  if (frozen_) return;
  guard_.Check();
  double c = Contribution(0.0);
  contribution_sum_ += c;
  contribution_moments_.Observe(c);
  ++probe_seen_;
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
