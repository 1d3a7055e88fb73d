#ifndef QPI_EXEC_MERGE_JOIN_H_
#define QPI_EXEC_MERGE_JOIN_H_

#include <memory>
#include <vector>

#include "exec/join_estimation.h"
#include "exec/operator.h"

namespace qpi {

/// \brief Sort-merge join with the sorting folded into the join operator
/// (paper Section 4.1.2 explicitly covers this layout).
///
/// Phases:
///  1. **Left intake/sort** — the left input is read completely and sorted;
///     the ONCE histogram on the left join key is built during intake.
///  2. **Right intake/sort** — the right input is read and sorted; during
///     intake, each right key probes the left histogram, so the estimate is
///     exact by the end of this phase, before the merge begins.
///  3. **Merge** — equal-key runs are cross-producted. The output is
///     ordered by join key, i.e. clustered — the dne/byte baselines refine
///     here and fluctuate under skew exactly as in hash joins.
///
/// Estimation in phases 1 and 2 is the JoinEstimation protocol the grace
/// hash join shares: the left intake is the build pass, the right intake
/// the probe pass, and the right rows the merge has passed are dne's and
/// byte's driver consumption. Same-attribute merge chains share one
/// push-down estimator, like hash-join pipelines (Section 4.1.4.3).
class MergeJoinOp : public Operator {
 public:
  MergeJoinOp(OperatorPtr left, OperatorPtr right, size_t left_key_index,
              size_t right_key_index, std::string label);

  /// Where the compiler attaches binary ONCE (for a right input that
  /// starts random) or a merge chain's estimator.
  JoinEstimation& estimation() { return estimation_; }

  size_t left_key_index() const { return left_key_index_; }
  size_t right_key_index() const { return right_key_index_; }
  const PipelineJoinEstimator* pipeline_estimator() const {
    return estimation_.pipeline().get();
  }
  const OnceBinaryJoinEstimator* once_estimator() const {
    return estimation_.once();
  }

  double CardinalityEstimate(EstimationMode mode) const override;
  double CurrentCardinalityHalfWidth(double confidence) const override;
  bool CardinalityExact() const override;

 protected:
  void NextBatchImpl(RowBatch* out) override;
  void CloseImpl() override;

 private:
  enum class Phase { kInit, kMerge, kDone };

  void RunIntakePhases();
  bool AdvanceMerge(Row* out);

  size_t left_key_index_;
  size_t right_key_index_;

  Phase phase_ = Phase::kInit;
  std::vector<Row> left_rows_;
  std::vector<Row> right_rows_;

  // Merge cursor: while in_run_, the equal-key run [left_pos_, left_hi_) ×
  // [right_pos_, right_hi_), emitting pair (run_left_, run_right_).
  size_t left_pos_ = 0;
  size_t right_pos_ = 0;
  size_t left_hi_ = 0;
  size_t right_hi_ = 0;
  size_t run_left_ = 0;
  size_t run_right_ = 0;
  bool in_run_ = false;

  uint64_t merge_right_consumed_ = 0;

  JoinEstimation estimation_;
};

}  // namespace qpi

#endif  // QPI_EXEC_MERGE_JOIN_H_
