#ifndef QPI_EXEC_FILTER_H_
#define QPI_EXEC_FILTER_H_

#include <memory>

#include "exec/operator.h"
#include "plan/expr.h"

namespace qpi {

class MorselScanDriver;

/// \brief Selection (σ). Estimation follows the paper's Section 4.3:
/// selections have no preprocessing phase, and on a random input prefix the
/// dne extrapolation is unbiased, so the live cardinality estimate is
///     emitted · input_estimate / input_consumed.
class FilterOp : public Operator {
 public:
  FilterOp(OperatorPtr child, std::unique_ptr<BoundPredicate> predicate,
           std::string predicate_text);
  ~FilterOp() override;

  double CurrentCardinalityEstimate() const override;
  double CandidateCardinalityEstimate(
      EstimatorCandidate candidate) const override;
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
  // Engaged when this operator tops a fusable scan chain and
  // ctx->exec_workers > 1 (see morsel_scan.h).
  std::unique_ptr<MorselScanDriver> driver_;
  bool fusion_checked_ = false;
};

/// \brief Projection (π) down to a fixed set of column indices.
class ProjectOp : public Operator {
 public:
  ProjectOp(OperatorPtr child, std::vector<size_t> indices,
            Schema output_schema);
  ~ProjectOp() override;

  double CurrentCardinalityEstimate() const override {
    return child(0)->CurrentCardinalityEstimate();
  }
  double CandidateCardinalityEstimate(
      EstimatorCandidate candidate) const override {
    return child(0)->CandidateCardinalityEstimate(candidate);
  }
  bool CardinalityExact() const override {
    return child(0)->CardinalityExact();
  }
  bool ProducesRandomStream() const override {
    return child(0)->ProducesRandomStream();
  }

  /// Morsel-fusion support.
  const std::vector<size_t>& project_indices() const { return indices_; }

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
  std::unique_ptr<MorselScanDriver> driver_;
  bool fusion_checked_ = false;
};

}  // namespace qpi

#endif  // QPI_EXEC_FILTER_H_
