#ifndef QPI_EXEC_INDEX_NL_JOIN_H_
#define QPI_EXEC_INDEX_NL_JOIN_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "estimators/join_once.h"
#include "exec/operator.h"

namespace qpi {

/// \brief Nested-loops join optimized with a temporary hash index on the
/// inner input (paper Section 4.1.3).
///
/// A plain nested-loops join has no preprocessing phase, so its estimation
/// degenerates to dne. The paper notes that in practice NL joins build a
/// temporary index on the inner input first — and that preprocessing pass
/// admits exactly the hash-join-style estimator: the inner's join-key
/// histogram is built while the index is built, and every outer tuple's
/// fan-out is known the moment the tuple is *read*, before its matches are
/// emitted, with the usual CLT interval on a random outer prefix.
///
/// Its estimation is its own, not the JoinEstimation protocol of the grace
/// and sort-merge joins: it probes per outer tuple during output, and it
/// answers dne (not the optimizer's number) before its first probe, so
/// shared code would have to branch on its caller.
///
/// children[0] is the outer (driver) input, children[1] the inner
/// (indexed) input. Output rows are outer ⧺ inner.
class IndexNestedLoopsJoinOp : public Operator {
 public:
  IndexNestedLoopsJoinOp(OperatorPtr outer, OperatorPtr inner,
                         size_t outer_key_index, size_t inner_key_index,
                         std::string label);

  /// Attach the ONCE estimator (requires an outer input that starts as a
  /// random stream).
  void EnableOnceEstimation();

  double CardinalityEstimate(EstimationMode mode) const override;
  double CurrentCardinalityHalfWidth(double confidence) const override;
  bool CardinalityExact() const override;

  const OnceBinaryJoinEstimator* once_estimator() const { return once_.get(); }
  uint64_t outer_consumed() const { return outer_consumed_; }
  double DneEstimate() const;
  double ByteEstimate() const;
  /// The ONCE-path estimate (binary → dne fallback), independent of
  /// ctx->mode.
  double OnceEstimate() const;

 protected:
  Status OpenImpl() override;
  void NextBatchImpl(RowBatch* out) override;
  void CloseImpl() override;

 private:
  size_t outer_key_index_;
  size_t inner_key_index_;

  std::vector<Row> inner_rows_;
  std::unordered_map<uint64_t, std::vector<size_t>> index_;
  bool index_built_ = false;

  // Outer input, pulled a batch at a time (sized at Open); while
  // outer_matches_ is set, outer_.row(outer_pos_) is the row being joined.
  RowBatch outer_{0};
  size_t outer_pos_ = 0;
  const std::vector<size_t>* outer_matches_ = nullptr;
  size_t match_idx_ = 0;
  uint64_t outer_consumed_ = 0;

  std::unique_ptr<OnceBinaryJoinEstimator> once_;
};

}  // namespace qpi

#endif  // QPI_EXEC_INDEX_NL_JOIN_H_
