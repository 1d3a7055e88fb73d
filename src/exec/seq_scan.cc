#include "exec/seq_scan.h"

namespace qpi {

SeqScanOp::SeqScanOp(TablePtr table, double sample_fraction)
    : Operator("SeqScan(" + table->name() + ")", {}),
      table_(std::move(table)),
      sample_fraction_(sample_fraction) {
  SetSchema(table_->schema());
}

Status SeqScanOp::OpenImpl() {
  double fraction = sample_fraction_;
  if (fraction == 0.0) fraction = ctx_->sample_fraction;
  order_ = BlockSampler::MakeOrder(*table_, fraction, &ctx_->rng);
  fused_.Reset();
  return Status::OK();
}

void SeqScanOp::CloseImpl() {
  // Joins the morsel tasks before the table can go away.
  fused_.Reset();
}

void SeqScanOp::NextBatchImpl(RowBatch* out) {
  // The morsel producer sets the batch's random run; only the counting
  // stays here.
  fused_.Fill(this, ctx_, out);
  CountEmitted(out->size());
}

bool SeqScanOp::ProducesRandomStream() const {
  if (order_.sample_block_count == 0) {
    // Unsampled scan: stored order is the generators' i.i.d. order.
    return true;
  }
  return tuples_emitted() < order_.sample_row_count;
}

}  // namespace qpi
