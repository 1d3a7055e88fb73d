#ifndef QPI_ESTIMATORS_GROUP_COUNT_H_
#define QPI_ESTIMATORS_GROUP_COUNT_H_

#include <cstdint>
#include <functional>
#include <string>

#include "stats/frequency_stats.h"

namespace qpi {

/// \brief GEE — the Guaranteed Error Estimator of Charikar et al. [5]
/// (paper Section 4.2, Algorithm 2).
///
/// With f_1 singletons among t observed tuples of a stream of size
/// `total_size`:  D = sqrt(total_size / t) · f_1  +  Σ_{j≥2} f_j.
/// Maintained in O(1) per tuple from the S1/Sn counters; works best on
/// high-skew data, overestimates on low-skew data with many groups.
double GeeEstimate(const FrequencyStats& stats, double total_size);

/// \brief The paper's new MLE-based estimator (Section 4.2).
///
/// Reconstruction of the paper's estimator (the source text's formula is
/// OCR-garbled; see DESIGN.md): for every observed frequency class j with
/// f_j groups, the MLE for each such group's probability is p̂ = j/t. Under
/// the low-variance assumption those same probabilities describe the
/// not-yet-seen groups, so the expected number of groups of that class that
/// exist but were missed is
///     u_j = f_j · (1−p̂)^t / (1 − (1−p̂)^t),
/// of which a fraction 1 − (1−p̂)^r appears in the remaining r =
/// total_size − t tuples. The estimate is
///     D = d + Σ_j u_j · (1 − (1−p̂)^r).
/// Converges monotonically to the true count as t → total_size, rarely
/// overestimates, and is strongest on low-skew data — the regime where GEE
/// fails. Cost: one pass over the (small) set of non-empty frequency
/// classes; classes with j ≳ 50 contribute nothing ((1−j/t)^t ≈ e^−j).
double MleEstimate(const FrequencyStats& stats, double total_size);

/// Which component estimator AdaptiveGroupEstimator reports (the γ² chooser
/// is the paper's default; the pinned policies are the ablation points of
/// Tables 1 and 4(b)).
enum class GroupPolicy {
  kAdaptive,  ///< γ²-threshold chooser (Section 5.1.4)
  kGee,       ///< always GEE (skips MLE recomputation entirely)
  kMle,       ///< always MLE
};

/// The paper's published operating points for the group-count estimators.
/// MLE recomputation interval bounds as fractions of the input size
/// (Section 5.2.3: l = 0.1%, u = 3.2%).
constexpr double kMleLowerIntervalFraction = 0.001;
constexpr double kMleUpperIntervalFraction = 0.032;
/// Algorithm 3 doubles the interval when the new MLE is within ±k of the
/// old one (paper: 1%).
constexpr double kMleStabilityK = 0.01;
/// The γ² chooser uses MLE when γ² < τ, GEE otherwise (Section 5.1.4).
constexpr double kGamma2Threshold = 10.0;

/// \brief Online distinct-group estimator combining GEE and MLE.
///
/// Implements the paper's full aggregation-estimation machinery: the
/// incrementally-maintained GEE, the MLE recomputed on the adaptive
/// doubling interval of Algorithm 3, and the γ²-threshold chooser of
/// Section 5.1.4 that picks between them online.
class AdaptiveGroupEstimator {
 public:
  /// \param total_size_provider returns the (possibly still-estimated) size
  ///        |T| of the full input stream.
  AdaptiveGroupEstimator(std::function<double()> total_size_provider,
                         GroupPolicy policy = GroupPolicy::kAdaptive);

  /// Observe one input tuple's grouping key.
  void Observe(uint64_t key);

  /// Current estimate of the total number of groups in the full input.
  double Estimate() const;

  /// Which estimator the chooser currently selects ("MLE" or "GEE").
  std::string ChosenEstimator() const;

  /// Current γ² of the observed group frequencies.
  double Gamma2() const { return stats_.SquaredCoefficientOfVariation(); }

  /// Estimates from each component individually (Table 1 reporting and the
  /// always-GEE / always-MLE ablations).
  double GeeOnly() const { return GeeEstimate(stats_, total_provider_()); }
  double MleOnly() const { return cached_mle_; }

  /// Total MLE recomputations performed so far (overhead accounting).
  uint64_t mle_recompute_count() const { return mle_recomputes_; }

  const FrequencyStats& stats() const { return stats_; }

 private:
  void MaybeRecomputeMle();

  std::function<double()> total_provider_;
  GroupPolicy policy_;
  FrequencyStats stats_;
  double cached_mle_ = 0.0;
  uint64_t interval_ = 0;      // current recomputation interval I (tuples)
  uint64_t next_recompute_ = 0;
  uint64_t mle_recomputes_ = 0;
};

}  // namespace qpi

#endif  // QPI_ESTIMATORS_GROUP_COUNT_H_
