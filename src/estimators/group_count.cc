#include "estimators/group_count.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace qpi {

double GeeEstimate(const FrequencyStats& stats, double total_size) {
  uint64_t t = stats.num_observed();
  if (t == 0) return 0.0;
  double scale = std::sqrt(std::max(total_size, static_cast<double>(t)) /
                           static_cast<double>(t));
  double est = scale * static_cast<double>(stats.singletons()) +
               static_cast<double>(stats.non_singletons());
  // Never report more groups than tuples in the stream.
  return std::min(est, total_size);
}

double MleEstimate(const FrequencyStats& stats, double total_size) {
  double t = static_cast<double>(stats.num_observed());
  if (t == 0) return 0.0;
  double d = static_cast<double>(stats.num_distinct());
  double remaining = std::max(total_size - t, 0.0);
  if (remaining == 0.0) return d;

  double unseen_expected = 0.0;
  stats.ForEachFrequencyClass([&](uint64_t j, uint64_t f_j) {
    double p = static_cast<double>(j) / t;
    if (p >= 1.0) return;
    // log-space for numerical stability at large t.
    double log1mp = std::log1p(-p);
    double miss_t = std::exp(t * log1mp);  // P(group of this class unseen)
    if (miss_t < 1e-12) return;            // class fully covered
    double u_j = static_cast<double>(f_j) * miss_t / (1.0 - miss_t);
    double appear_r = 1.0 - std::exp(remaining * log1mp);
    unseen_expected += u_j * appear_r;
  });
  return std::min(d + unseen_expected, total_size);
}

AdaptiveGroupEstimator::AdaptiveGroupEstimator(
    std::function<double()> total_size_provider, GroupPolicy policy)
    : total_provider_(std::move(total_size_provider)), policy_(policy) {
  QPI_CHECK(total_provider_ != nullptr);
}

void AdaptiveGroupEstimator::Observe(uint64_t key) {
  stats_.Observe(key);
  // GEE-only runs never pay the MLE recomputation cost.
  if (policy_ != GroupPolicy::kGee) MaybeRecomputeMle();
}

void AdaptiveGroupEstimator::MaybeRecomputeMle() {
  uint64_t t = stats_.num_observed();
  if (interval_ == 0) {
    // First tuple: derive the interval bounds from the input size.
    double total = std::max(total_provider_(), 1.0);
    uint64_t lower = static_cast<uint64_t>(
        std::max(1.0, kMleLowerIntervalFraction * total));
    interval_ = lower;
    next_recompute_ = lower;
  }
  if (t < next_recompute_) return;

  double total = std::max(total_provider_(), static_cast<double>(t));
  double old_estimate = cached_mle_;
  cached_mle_ = MleEstimate(stats_, total);
  ++mle_recomputes_;

  // Algorithm 3: double the interval while estimates are stable (and below
  // the upper bound); reset to the lower bound when they move.
  uint64_t lower = static_cast<uint64_t>(
      std::max(1.0, kMleLowerIntervalFraction * total));
  uint64_t upper = static_cast<uint64_t>(
      std::max(1.0, kMleUpperIntervalFraction * total));
  bool stable = cached_mle_ > 0.0 &&
                old_estimate / cached_mle_ > 1.0 - kMleStabilityK &&
                old_estimate / cached_mle_ < 1.0 + kMleStabilityK;
  if (stable && interval_ * 2 <= upper) {
    interval_ *= 2;
  } else if (!stable) {
    interval_ = lower;
  }
  next_recompute_ = t + interval_;
}

double AdaptiveGroupEstimator::Estimate() const {
  double total = std::max(total_provider_(),
                          static_cast<double>(stats_.num_observed()));
  if (ChosenEstimator() == "MLE") {
    // MLE may lag by up to one interval; it is the price of its cost.
    return cached_mle_ > 0.0 ? cached_mle_ : MleEstimate(stats_, total);
  }
  return GeeEstimate(stats_, total);
}

std::string AdaptiveGroupEstimator::ChosenEstimator() const {
  switch (policy_) {
    case GroupPolicy::kGee:
      return "GEE";
    case GroupPolicy::kMle:
      return "MLE";
    case GroupPolicy::kAdaptive:
      break;
  }
  return Gamma2() < kGamma2Threshold ? "MLE" : "GEE";
}

}  // namespace qpi
