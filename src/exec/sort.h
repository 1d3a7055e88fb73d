#ifndef QPI_EXEC_SORT_H_
#define QPI_EXEC_SORT_H_

#include <vector>

#include "exec/operator.h"

namespace qpi {

/// \brief Blocking sort on a list of key column indices (ascending,
/// lexicographic). A pipeline delimiter in the paper's plan decomposition.
class SortOp : public Operator {
 public:
  SortOp(OperatorPtr child, std::vector<size_t> key_indices);

  double CardinalityEstimate(EstimationMode mode) const override {
    // A sort emits exactly its input; before/while consuming, that is the
    // child's live estimate under the same estimator.
    if (intake_done_) return static_cast<double>(rows_.size());
    return child(0)->CardinalityEstimate(mode);
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

}  // namespace qpi

#endif  // QPI_EXEC_SORT_H_
