#ifndef QPI_ESTIMATORS_BASELINES_H_
#define QPI_ESTIMATORS_BASELINES_H_

#include <cstdint>

#include "common/check.h"

namespace qpi {

/// \brief dne — the driver-node estimator of Chaudhuri et al. [9].
///
/// The driver node of a pipeline is the (blocking-operator or base-table)
/// input that feeds tuples into it. Once the pipeline is executing, dne
/// discards the optimizer estimate entirely and linearly extrapolates the
/// tuples an operator has emitted by the fraction of the driver input
/// consumed:  E = emitted · driver_total / driver_seen.
///
/// On a grace/hybrid hash join the driver input is re-read *partition-wise*
/// in the join phase, so the stream is clustered by join key and the
/// extrapolation fluctuates badly under skew — the effect Figures 4–6
/// demonstrate and the ONCE estimators sidestep.
class DneEstimator {
 public:
  explicit DneEstimator(double optimizer_estimate = 0.0)
      : optimizer_estimate_(optimizer_estimate) {}

  /// Record progress: `driver_seen` driver tuples consumed, `emitted`
  /// output tuples produced so far.
  void Update(uint64_t driver_seen, uint64_t emitted) {
    driver_seen_ = driver_seen;
    emitted_ = emitted;
  }

  /// Current cardinality estimate given the driver input's total size.
  ///
  /// `driver_total` must be ≥ the consumed count recorded by Update(): a
  /// grace-join join phase re-reads its driver partition-wise, and a total
  /// measured against a stale or per-partition counter can fall below the
  /// tuples already seen, which would silently *deflate* the extrapolation
  /// below the output already produced. Debug builds assert; release
  /// builds clamp the total up to driver_seen so E ≥ emitted always holds.
  double Estimate(double driver_total) const {
    if (driver_seen_ == 0) return optimizer_estimate_;
    QPI_DCHECK(driver_total >= static_cast<double>(driver_seen_) &&
               "dne driver_total below consumed driver tuples");
    if (driver_total < static_cast<double>(driver_seen_)) {
      driver_total = static_cast<double>(driver_seen_);
    }
    return static_cast<double>(emitted_) * driver_total /
           static_cast<double>(driver_seen_);
  }

  uint64_t driver_seen() const { return driver_seen_; }
  uint64_t emitted() const { return emitted_; }

 private:
  double optimizer_estimate_;
  uint64_t driver_seen_ = 0;
  uint64_t emitted_ = 0;
};

/// \brief byte — the estimator of Luo et al. [18].
///
/// Luo et al. measure work in bytes processed at segment boundaries, which
/// is proportional to tuple counts at those boundaries (Section 2), and
/// refine the total-output estimate by blending the optimizer estimate with
/// the observed rate, weighted by how much of the driver input has been
/// processed:
///     E = f · (emitted / driver_seen) · driver_total + (1 − f) · opt,
/// with f = driver_seen / driver_total. The weighted-average pull toward
/// the (possibly very wrong) optimizer estimate is why it converges slowly
/// in Figure 4 when the optimizer is off by ~13x.
class ByteEstimator {
 public:
  explicit ByteEstimator(double optimizer_estimate)
      : optimizer_estimate_(optimizer_estimate) {}

  void Update(uint64_t driver_seen, uint64_t emitted) {
    driver_seen_ = driver_seen;
    emitted_ = emitted;
  }

  double Estimate(double driver_total) const {
    if (driver_seen_ == 0 || driver_total <= 0.0) return optimizer_estimate_;
    // Same validity contract as DneEstimator::Estimate: a driver_total
    // below the consumed count deflates the observed-rate term.
    QPI_DCHECK(driver_total >= static_cast<double>(driver_seen_) &&
               "byte driver_total below consumed driver tuples");
    if (driver_total < static_cast<double>(driver_seen_)) {
      driver_total = static_cast<double>(driver_seen_);
    }
    double f = static_cast<double>(driver_seen_) / driver_total;
    if (f > 1.0) f = 1.0;
    double observed = static_cast<double>(emitted_) * driver_total /
                      static_cast<double>(driver_seen_);
    return f * observed + (1.0 - f) * optimizer_estimate_;
  }

 private:
  double optimizer_estimate_;
  uint64_t driver_seen_ = 0;
  uint64_t emitted_ = 0;
};

/// A driver input's progress: rows consumed so far and its (possibly
/// estimated) total, what dne and byte extrapolate from.
struct DriverCounts {
  uint64_t consumed = 0;
  double total = 0.0;
};

/// dne or byte (`Baseline`) for an operator whose optimizer estimate is
/// `optimizer_estimate` and which has emitted `emitted` rows.
template <typename Baseline>
double DriverEstimate(double optimizer_estimate, uint64_t emitted,
                      DriverCounts driver) {
  Baseline baseline(optimizer_estimate);
  baseline.Update(driver.consumed, emitted);
  return baseline.Estimate(driver.total);
}

}  // namespace qpi

#endif  // QPI_ESTIMATORS_BASELINES_H_
