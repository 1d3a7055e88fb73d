#ifndef QPI_EXEC_SEQ_SCAN_H_
#define QPI_EXEC_SEQ_SCAN_H_

#include <memory>

#include "exec/morsel_scan.h"
#include "exec/operator.h"
#include "storage/block_sampler.h"
#include "storage/table.h"

namespace qpi {

/// \brief Sequential scan with optional sample-first ordering.
///
/// With `sample_fraction > 0`, emits a block-level random sample of the
/// table first and then the remaining blocks (the paper's modified table
/// scan; the remaining scan excludes sampled blocks, i.e. the prototype's
/// anti-join on block ids). `ProducesRandomStream()` is true exactly while
/// the stream can be treated as a uniform random prefix: the sample part,
/// or the whole scan when no sampling was requested (generated tables store
/// rows in random order).
///
/// The rows come from the fused morsel scan (FusedScan, morsel_scan.h) at
/// every worker count; when a Filter or Project above captures this scan,
/// the chain is driven from there and this operator's NextBatch is never
/// called.
class SeqScanOp : public Operator {
 public:
  SeqScanOp(TablePtr table, double sample_fraction);

  double CardinalityEstimate(EstimationMode /*mode*/) const override {
    return static_cast<double>(table_->num_rows());
  }
  bool CardinalityExact() const override { return true; }
  bool ProducesRandomStream() const override;

  /// The resolved scan order and backing table (valid after Open), which
  /// the fused morsel scan walks.
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
  FusedScan fused_;
};

}  // namespace qpi

#endif  // QPI_EXEC_SEQ_SCAN_H_
