#include "exec/sort.h"

#include <algorithm>

namespace qpi {

namespace {
std::vector<OperatorPtr> OneChild(OperatorPtr child) {
  std::vector<OperatorPtr> v;
  v.push_back(std::move(child));
  return v;
}
}  // namespace

SortOp::SortOp(OperatorPtr child, std::vector<size_t> key_indices)
    : Operator("Sort", OneChild(std::move(child))),
      key_indices_(std::move(key_indices)) {
  SetSchema(this->child(0)->schema());
}

void SortOp::NextBatchImpl(RowBatch* out) {
  if (!intake_done_) {
    RowBatch batch(ctx_->batch_size);
    while (child(0)->NextBatch(&batch)) {
      for (size_t i = 0; i < batch.size(); ++i) {
        rows_.push_back(std::move(batch.row(i)));
      }
    }
    std::sort(rows_.begin(), rows_.end(), [&](const Row& a, const Row& b) {
      for (size_t k : key_indices_) {
        int cmp = a[k].Compare(b[k]);
        if (cmp != 0) return cmp < 0;
      }
      return false;
    });
    intake_done_ = true;
    pos_ = 0;
  }
  // Swap, not copy: each sorted row moves into the slot, and the slot's
  // previous storage is parked in rows_ until Close.
  while (!out->full() && pos_ < rows_.size()) {
    out->NextSlot()->swap(rows_[pos_++]);
    out->CommitSlot();
  }
  CountEmitted(out->size());
}

void SortOp::CloseImpl() { rows_.clear(); }

}  // namespace qpi
