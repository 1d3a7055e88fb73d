#ifndef QPI_EXEC_MERGE_JOIN_H_
#define QPI_EXEC_MERGE_JOIN_H_

#include <memory>
#include <vector>

#include "estimators/join_once.h"
#include "estimators/pipeline_join.h"
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
class MergeJoinOp : public Operator {
 public:
  MergeJoinOp(OperatorPtr left, OperatorPtr right, size_t left_key_index,
              size_t right_key_index, std::string label);

  /// Attach the ONCE estimator (requires a right input that starts random).
  void EnableOnceEstimation();

  /// Enlist in a chain of sort-merge joins sharing one push-down estimator
  /// (Section 4.1.4.3: same-attribute merge chains estimate exactly like
  /// hash-join pipelines — the left intakes build the histograms top-down,
  /// the lowest right intake is the driver pass).
  void EnlistInPipeline(std::shared_ptr<PipelineJoinEstimator> pipeline,
                        size_t index, bool is_lowest);

  size_t left_key_index() const { return left_key_index_; }
  size_t right_key_index() const { return right_key_index_; }
  const PipelineJoinEstimator* pipeline_estimator() const {
    return pipeline_.get();
  }

  double CurrentCardinalityEstimate() const override;
  double CandidateCardinalityEstimate(
      EstimatorCandidate candidate) const override;
  bool CardinalityExact() const override;

  double DneEstimate() const;
  double ByteEstimate() const;
  /// The ONCE-path estimate (pipeline → binary → dne fallback),
  /// independent of ctx->mode.
  double OnceEstimate() const;

  uint64_t merge_right_consumed() const { return merge_right_consumed_; }
  const OnceBinaryJoinEstimator* once_estimator() const { return once_.get(); }
  size_t EstimationBytesUsed() const {
    return once_ != nullptr ? once_->build_histogram().UsedBytes() : 0;
  }

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

  // Merge cursor: current equal-key run [left_lo_, left_hi_) ×
  // [right_lo_, right_hi_), emitting pair (run_left_, run_right_).
  size_t left_pos_ = 0;
  size_t right_pos_ = 0;
  size_t left_hi_ = 0;
  size_t right_hi_ = 0;
  size_t run_left_ = 0;
  size_t run_right_ = 0;
  bool in_run_ = false;

  uint64_t merge_right_consumed_ = 0;

  std::unique_ptr<OnceBinaryJoinEstimator> once_;
  std::shared_ptr<PipelineJoinEstimator> pipeline_;
  size_t pipeline_index_ = 0;
  bool pipeline_lowest_ = false;
};

}  // namespace qpi

#endif  // QPI_EXEC_MERGE_JOIN_H_
