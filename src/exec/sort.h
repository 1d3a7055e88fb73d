#ifndef QPI_EXEC_SORT_H_
#define QPI_EXEC_SORT_H_

#include <memory>
#include <vector>

#include "estimators/theta_join.h"
#include "exec/operator.h"
#include "plan/expr.h"

namespace qpi {

/// \brief Blocking sort on a list of key column indices (ascending,
/// lexicographic). A pipeline delimiter in the paper's plan decomposition.
class SortOp : public Operator {
 public:
  SortOp(OperatorPtr child, std::vector<size_t> key_indices);

  double CurrentCardinalityEstimate() const override {
    // A sort emits exactly its input; before/while consuming, that is the
    // child's live estimate.
    if (intake_done_) return static_cast<double>(rows_.size());
    return child(0)->CurrentCardinalityEstimate();
  }
  bool CardinalityExact() const override {
    return intake_done_ || child(0)->CardinalityExact();
  }

 protected:
  void NextBatchImpl(RowBatch* out) override;
  void CloseImpl() override;

 private:
  std::vector<size_t> key_indices_;
  std::vector<Row> rows_;
  size_t pos_ = 0;
  bool intake_done_ = false;
};

/// \brief Nested-loops join; children[0] is the outer (driver) input,
/// children[1] the inner, which is materialized once and rescanned. The
/// join predicate is `outer.key <op> inner.key` for any comparison
/// operator (kEq gives the classic equijoin).
///
/// Per Section 4.1.3 a plain NL join has no preprocessing pass over the
/// outer input, so the equijoin estimate *is* the dne estimate. For
/// inequality predicates, however, the inner materialization pass is a
/// preprocessing phase: the inner keys are sorted there, and each outer
/// tuple's exact match count is one binary search — the ONCE construction
/// of Section 4.1.1 for "other kinds of join predicates (e.g., R.x > S.y)".
class NestedLoopsJoinOp : public Operator {
 public:
  NestedLoopsJoinOp(OperatorPtr outer, OperatorPtr inner,
                    size_t outer_key_index, size_t inner_key_index,
                    std::string label, CompareOp join_op = CompareOp::kEq);

  /// Attach the order-statistics ONCE estimator (inequality predicates,
  /// random-capable outer input).
  void EnableThetaOnceEstimation();

  double CurrentCardinalityEstimate() const override;
  double CandidateCardinalityEstimate(
      EstimatorCandidate candidate) const override;
  double CurrentCardinalityHalfWidth(double confidence) const override;
  bool CardinalityExact() const override;

  double DneEstimate() const;
  double ByteEstimate() const;

  uint64_t outer_consumed() const { return outer_consumed_; }
  CompareOp join_op() const { return join_op_; }
  const OnceInequalityJoinEstimator* theta_estimator() const {
    return theta_.get();
  }

 protected:
  Status OpenImpl() override;
  void NextBatchImpl(RowBatch* out) override;
  void CloseImpl() override;

 private:
  bool Matches(const Value& outer, const Value& inner) const;

  size_t outer_key_index_;
  size_t inner_key_index_;
  CompareOp join_op_;

  std::vector<Row> inner_rows_;
  bool inner_materialized_ = false;
  // Outer input, pulled a batch at a time (sized at Open); while
  // have_outer_, outer_.row(outer_pos_) is the row being joined.
  RowBatch outer_{0};
  size_t outer_pos_ = 0;
  bool have_outer_ = false;
  size_t inner_pos_ = 0;
  uint64_t outer_consumed_ = 0;

  std::unique_ptr<OnceInequalityJoinEstimator> theta_;
};

}  // namespace qpi

#endif  // QPI_EXEC_SORT_H_
