#include "exec/seq_scan.h"

#include "common/check.h"

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
  block_pos_ = 0;
  row_pos_ = 0;
  fused_.Reset();
  return Status::OK();
}

void SeqScanOp::CloseImpl() {
  // Joins the morsel tasks before the table can go away.
  fused_.Reset();
}

void SeqScanOp::NextBatchImpl(RowBatch* out) {
  if (fused_.Fill(this, ctx_, out)) {
    // The ordered morsel merge reproduces the sequential row stream and
    // random-run boundaries exactly; only the counting stays here.
    CountEmitted(out->size());
    return;
  }
  uint64_t start = tuples_emitted();
  while (!out->full() && block_pos_ < order_.block_order.size()) {
    const Block& block = table_->block(order_.block_order[block_pos_]);
    if (row_pos_ < block.num_rows()) {
      *out->NextSlot() = block.row(row_pos_);
      out->CommitSlot();
      ++row_pos_;
    } else {
      ++block_pos_;
      row_pos_ = 0;
    }
  }
  uint64_t n = out->size();
  CountEmitted(n);
  if (order_.sample_block_count == 0) {
    out->set_random_run(n);
  } else {
    // Post-emission rule (see RowBatch): 0-based row k of this batch is
    // random iff the emitted count after it, start + k + 1, is still below
    // sample_row_count.
    uint64_t src = order_.sample_row_count;
    uint64_t run = (src > start + 1) ? src - 1 - start : 0;
    out->set_random_run(run < n ? run : n);
  }
}

uint64_t SeqScanOp::random_prefix_rows() const {
  if (order_.sample_block_count == 0) return table_->num_rows();
  return order_.sample_row_count;
}

bool SeqScanOp::ProducesRandomStream() const {
  if (order_.sample_block_count == 0) {
    // Unsampled scan: stored order is the generators' i.i.d. order.
    return true;
  }
  return tuples_emitted() < order_.sample_row_count;
}

}  // namespace qpi
