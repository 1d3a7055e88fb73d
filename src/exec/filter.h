#ifndef QPI_EXEC_FILTER_H_
#define QPI_EXEC_FILTER_H_

#include <memory>

#include "exec/morsel_scan.h"
#include "exec/operator.h"
#include "plan/expr.h"

namespace qpi {

/// \brief Selection (σ). Estimation follows the paper's Section 4.3:
/// selections have no preprocessing phase, and on a random input prefix the
/// dne extrapolation is unbiased, so the live cardinality estimate is
///     emitted · input_estimate / input_consumed.
class FilterOp : public Operator {
 public:
  FilterOp(OperatorPtr child, std::unique_ptr<BoundPredicate> predicate,
           std::string predicate_text);

  double CardinalityEstimate(EstimationMode mode) const override;
  bool ProducesRandomStream() const override {
    return child(0)->ProducesRandomStream();
  }

  /// Morsel-fusion support.
  const BoundPredicate* bound_predicate() const { return predicate_.get(); }

 protected:
  Status OpenImpl() override;
  void NextBatchImpl(RowBatch* out) override;
  void CloseImpl() override;

 private:
  std::unique_ptr<BoundPredicate> predicate_;
  RowBatch in_;
  size_t in_pos_ = 0;
  bool in_valid_ = false;
  bool random_over_ = false;
  // Runs whenever this operator tops a fusable scan chain; the loop in
  // NextBatchImpl serves every other child (a join, an aggregate).
  FusedScan fused_;
};

/// \brief Projection (π) down to a fixed set of column indices.
class ProjectOp : public Operator {
 public:
  ProjectOp(OperatorPtr child, std::vector<size_t> indices,
            Schema output_schema);

  double CardinalityEstimate(EstimationMode mode) const override {
    return child(0)->CardinalityEstimate(mode);
  }
  bool CardinalityExact() const override {
    return child(0)->CardinalityExact();
  }
  bool ProducesRandomStream() const override {
    return child(0)->ProducesRandomStream();
  }

  /// Copy the projected columns of `in` into `out`, reusing its storage:
  /// the one per-row projection, shared with the fused morsel scan.
  void ProjectRow(const Row& in, Row* out) const;

 protected:
  Status OpenImpl() override;
  void NextBatchImpl(RowBatch* out) override;
  void CloseImpl() override;

 private:
  std::vector<size_t> indices_;
  RowBatch in_;
  size_t in_pos_ = 0;
  bool in_valid_ = false;
  bool random_over_ = false;
  FusedScan fused_;
};

}  // namespace qpi

#endif  // QPI_EXEC_FILTER_H_
