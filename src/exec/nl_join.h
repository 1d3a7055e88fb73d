#ifndef QPI_EXEC_NL_JOIN_H_
#define QPI_EXEC_NL_JOIN_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "estimators/join_once.h"
#include "estimators/theta_join.h"
#include "exec/operator.h"
#include "plan/expr.h"

namespace qpi {

/// \brief Nested-loops join (paper Section 4.1.3); children[0] is the
/// outer (driver) input, children[1] the inner, which is materialized
/// once before the first outer tuple. The join predicate is
/// `outer.key <op> inner.key`; output rows are outer ⧺ inner.
///
/// The one thing its two modes differ in is where an outer tuple's
/// candidate matches come from:
///  - indexed (`kIndexNestedLoopsJoin`): the inner pass also builds a
///    temporary hash index on the inner key codes, and the candidates are
///    the inner rows sharing the outer key's code;
///  - rescan (`kNestedLoopsJoin`): every inner row is a candidate.
/// Either way each candidate is checked by value (JoinKeysEqual for an
/// equijoin, so colliding key codes never join).
///
/// Estimation. A plain NL join has no preprocessing pass over the outer
/// input, so its estimate is dne. The inner pass is one when something
/// reads it: the index build admits the hash join's binary ONCE (the
/// inner's key histogram rides along), and an inequality rescan the
/// order-statistics ONCE of Section 4.1.1 (the inner keys, sorted, give
/// each outer tuple's exact match count by binary search). Either
/// estimator reads each outer tuple when it is taken, before its matches
/// are emitted, and freezes at the first tuple outside the batch's random
/// run; before it has read a tuple the estimate is dne.
class NestedLoopsJoinOp : public Operator {
 public:
  NestedLoopsJoinOp(OperatorPtr outer, OperatorPtr inner,
                    size_t outer_key_index, size_t inner_key_index,
                    std::string label, CompareOp join_op, bool indexed);

  /// Attach the ONCE estimator the inner pass admits (binary when
  /// indexed, order statistics for an inequality rescan, none for an
  /// equality rescan); requires an outer input that starts random.
  void EnableOnceEstimation();

  double CardinalityEstimate(EstimationMode mode) const override;
  double CurrentCardinalityHalfWidth(double confidence) const override;
  bool CardinalityExact() const override;

  uint64_t outer_consumed() const { return outer_consumed_; }
  const OnceBinaryJoinEstimator* once_estimator() const { return once_.get(); }
  const OnceInequalityJoinEstimator* theta_estimator() const {
    return theta_.get();
  }

 protected:
  Status OpenImpl() override;
  void NextBatchImpl(RowBatch* out) override;
  void CloseImpl() override;

 private:
  void MaterializeInner();
  /// Take the outer tuple at outer_pos_: count it, let the ONCE estimator
  /// observe it or freeze, and set its candidate range.
  void TakeOuter();
  /// Outer tuples the ONCE estimator has read (0 with none attached).
  uint64_t OnceSeen() const;

  size_t outer_key_index_;
  size_t inner_key_index_;
  CompareOp join_op_;
  bool indexed_;

  std::vector<Row> inner_rows_;
  // Indexed only: inner key code → positions in inner_rows_, in order.
  std::unordered_map<uint64_t, std::vector<size_t>> index_;
  bool inner_materialized_ = false;

  // Outer input, pulled a batch at a time (sized at Open); while
  // have_outer_, outer_.row(outer_pos_) is the row being joined and its
  // candidates are bucket_[match_pos_, match_end_) when indexed, else
  // inner_rows_[match_pos_, match_end_).
  RowBatch outer_{0};
  size_t outer_pos_ = 0;
  bool have_outer_ = false;
  const size_t* bucket_ = nullptr;
  size_t match_pos_ = 0;
  size_t match_end_ = 0;
  uint64_t outer_consumed_ = 0;

  std::unique_ptr<OnceBinaryJoinEstimator> once_;
  std::unique_ptr<OnceInequalityJoinEstimator> theta_;
};

}  // namespace qpi

#endif  // QPI_EXEC_NL_JOIN_H_
