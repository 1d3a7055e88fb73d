#ifndef QPI_ESTIMATORS_PIPELINE_JOIN_H_
#define QPI_ESTIMATORS_PIPELINE_JOIN_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "common/row.h"
#include "common/schema.h"
#include "common/status.h"
#include "common/thread_guard.h"
#include "stats/frequency_stats.h"
#include "stats/hash_histogram.h"
#include "stats/normal.h"
#include "stats/running_moments.h"

namespace qpi {

/// \brief Push-down cardinality estimation for a pipeline (chain) of hash
/// joins — the paper's Section 4.1.4 / Algorithm 1.
///
/// The chain is indexed bottom-up: join 0 is the lowermost join, whose
/// probe input is the *driver* relation C; join k's probe input is join
/// k−1's output. Hash-join builds execute top-down (the top join reads its
/// build input first), so by the time the driver pass runs, every build
/// histogram in the chain exists, and each driver tuple's total fan-out
/// through every prefix of the chain can be computed — giving converging
/// estimates for *all* joins by the end of the first pass over C.
///
/// Per join k the estimator resolves where its probe-side attribute comes
/// from (its *locator*), mirroring the paper's histList/joinList labels:
///
///  - **Driver-direct** — the attribute is a column of the driver relation
///    (covers "joins on the same attribute" and Case 1 of "different
///    attributes"): probe join k's own build histogram with the driver
///    tuple's value.
///  - **From a lower build relation B_j (Case 2)** — the attribute belongs
///    to the build input of some lower join j; while join j's build input
///    is read, a *derived* histogram keyed on B_j's join key is
///    accumulated, folding in join k's build counts
///    (derived_k[b.key] += N^{build_k}[b.attr_k]); at driver time it is
///    probed with join j's driver value. Multiple dependents of the same
///    B_j fold cumulatively so every prefix product stays available.
///  - **Unresolved** — configurations beyond the paper's covered cases
///    (e.g. a Case-2 dependency on a join that is itself Case 2). The
///    affected join reports !Resolved() and the engine falls back to dne
///    for it, exactly as the paper defaults when push-down does not apply.
class PipelineJoinEstimator {
 public:
  /// Static description of one join in the chain (bottom-up order).
  struct JoinSpec {
    Schema build_schema;         ///< schema of this join's build input
    size_t build_key_index = 0;  ///< join key column within build_schema
    Column probe_attr;           ///< provenance of the probe-side join attr
  };

  /// \param driver_schema schema of join 0's probe input.
  /// \param joins the chain, bottom-up.
  /// \param driver_total_provider returns |C| (exact for base tables,
  ///        estimated when the driver is filtered).
  PipelineJoinEstimator(Schema driver_schema, std::vector<JoinSpec> joins,
                        std::function<double()> driver_total_provider);

  size_t num_joins() const { return joins_.size(); }

  /// Schema of the driver relation (join 0's probe input).
  const Schema& driver_schema() const { return driver_schema_; }

  /// Whether join k's estimation could be resolved to a push-down rule.
  bool Resolved(size_t k) const { return locators_[k].kind != Locator::kNone; }

  /// Build-input tuples. Joins build top-down; each join's build rows must
  /// be complete before any lower join's build rows arrive.
  void ObserveBuildRow(size_t k, const Row& row);
  void BuildComplete(size_t k);

  /// One driver tuple from the probe-partitioning pass of join 0.
  void ObserveDriverRow(const Row& row);

  /// Stop refining (driver sample exhausted).
  void Freeze() { frozen_ = true; }
  bool frozen() const { return frozen_; }

  /// Mark the driver pass finished (estimates exact if never frozen).
  void DriverComplete() { driver_complete_ = true; }

  /// Current output-cardinality estimate of join k (0 ≤ k < num_joins).
  double EstimateForJoin(size_t k) const;

  /// CLT confidence half-width for join k.
  double ConfidenceHalfWidth(size_t k,
                             double alpha = kDefaultConfidence) const;

  bool Exact() const { return driver_complete_ && !frozen_; }
  uint64_t driver_rows_seen() const { return driver_seen_; }

  /// Build histogram of join k (exposed for aggregation push-down).
  const HashHistogram& build_histogram(size_t k) const {
    return own_hist_[k];
  }

  // ---- aggregation push-down (Section 4.2, last paragraph) -----------------

  /// Additionally maintain the frequency distribution of the *top join's
  /// output* on the driver column `driver_column` (which must carry the
  /// grouping attribute): each driver tuple adds its full fan-out weight.
  /// GEE/MLE then estimate the distinct-group count of the join output
  /// before the aggregation above has consumed anything.
  void EnableGroupPushDown(size_t driver_column);
  bool group_pushdown_enabled() const { return group_pushdown_; }

  /// Estimated number of distinct groups in the top join's output (exact
  /// once the driver pass completes un-frozen). Chooses GEE or MLE by the
  /// γ² of the output distribution against kGamma2Threshold, as in
  /// Section 5.1.4.
  double GroupCountEstimate() const;

  /// The join-output frequency distribution accumulated so far.
  const FrequencyStats& output_stats() const { return output_stats_; }

  /// Total bytes used by all histograms (own + derived), for the overhead
  /// accounting of Section 5.2.
  size_t HistogramBytesUsed() const;

 private:
  struct Locator {
    enum Kind { kNone, kDriverDirect, kFromBuild };
    Kind kind = kNone;
    size_t driver_col = 0;  ///< kDriverDirect: column index in driver schema
    size_t lower_join = 0;  ///< kFromBuild: index j of the lower join
    size_t build_attr_col = 0;  ///< kFromBuild: attr index in B_j's schema
  };

  void ResolveLocators();

  /// Estimation observation happens only in the sequential build and
  /// driver (probe-partition) phases; this asserts the contract holds
  /// under the intra-query parallel layer (see common/thread_guard.h).
  ThreadAffinityGuard guard_;

  Schema driver_schema_;
  std::vector<JoinSpec> joins_;
  std::function<double()> driver_total_provider_;

  std::vector<Locator> locators_;
  std::vector<HashHistogram> own_hist_;
  std::vector<bool> build_complete_;
  /// pending_[j] = dependent joins k (ascending) whose locator is
  /// kFromBuild on join j.
  std::vector<std::vector<size_t>> pending_;
  /// derived_[j][k] = folded histogram for dependent k of join j.
  std::vector<std::map<size_t, HashHistogram>> derived_;

  std::vector<double> contribution_sum_;
  std::vector<RunningMoments> moments_;
  // Per-driver-row scratch (members to keep the hot path allocation-free).
  std::vector<double> scratch_last_factor_;
  std::vector<uint64_t> scratch_driver_key_;
  uint64_t driver_seen_ = 0;
  bool driver_complete_ = false;
  bool frozen_ = false;

  bool group_pushdown_ = false;
  size_t group_driver_column_ = 0;
  FrequencyStats output_stats_;
};

}  // namespace qpi

#endif  // QPI_ESTIMATORS_PIPELINE_JOIN_H_
