#ifndef QPI_EXEC_SEQ_SCAN_H_
#define QPI_EXEC_SEQ_SCAN_H_

#include <memory>

#include "exec/operator.h"
#include "storage/block_sampler.h"
#include "storage/table.h"

namespace qpi {

class MorselScanDriver;

/// \brief Sequential scan with optional sample-first ordering.
///
/// With `sample_fraction > 0`, emits a block-level random sample of the
/// table first and then the remaining blocks (the paper's modified table
/// scan; the remaining scan excludes sampled blocks, i.e. the prototype's
/// anti-join on block ids). `ProducesRandomStream()` is true exactly while
/// the stream can be treated as a uniform random prefix: the sample part,
/// or the whole scan when no sampling was requested (generated tables store
/// rows in random order).
class SeqScanOp : public Operator {
 public:
  SeqScanOp(TablePtr table, double sample_fraction);
  ~SeqScanOp() override;

  double CardinalityEstimate(EstimationMode /*mode*/) const override {
    return static_cast<double>(table_->num_rows());
  }
  bool CardinalityExact() const override { return true; }
  bool ProducesRandomStream() const override;

  /// Rows in the leading random prefix (table size when unsampled).
  uint64_t random_prefix_rows() const;

  /// Morsel-parallel scan support: the resolved scan order and backing
  /// table (valid after Open).
  const ScanOrder& scan_order() const { return order_; }
  const Table& scan_table() const { return *table_; }

 protected:
  Status OpenImpl() override;
  void NextBatchImpl(RowBatch* out) override;
  void CloseImpl() override;

 private:
  TablePtr table_;
  double sample_fraction_;
  ScanOrder order_;
  size_t block_pos_ = 0;
  size_t row_pos_ = 0;
  // Engaged when ctx->exec_workers > 1 and no fused
  // ancestor captured this scan (their NextBatch then never reaches us).
  std::unique_ptr<MorselScanDriver> driver_;
  bool parallel_checked_ = false;
};

}  // namespace qpi

#endif  // QPI_EXEC_SEQ_SCAN_H_
