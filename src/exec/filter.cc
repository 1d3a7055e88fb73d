#include "exec/filter.h"

#include <utility>

namespace qpi {

namespace {
std::vector<OperatorPtr> OneChild(OperatorPtr child) {
  std::vector<OperatorPtr> v;
  v.push_back(std::move(child));
  return v;
}
}  // namespace

FilterOp::FilterOp(OperatorPtr child, std::unique_ptr<BoundPredicate> predicate,
                   std::string predicate_text)
    : Operator("Filter[" + predicate_text + "]", OneChild(std::move(child))),
      predicate_(std::move(predicate)) {
  SetSchema(this->child(0)->schema());
}

Status FilterOp::OpenImpl() {
  in_ = RowBatch(ctx_->batch_size);
  in_pos_ = 0;
  in_valid_ = false;
  random_over_ = false;
  fused_.Reset();
  return Status::OK();
}

void FilterOp::CloseImpl() { fused_.Reset(); }

void FilterOp::NextBatchImpl(RowBatch* out) {
  if (fused_.Fill(this, ctx_, out)) {
    CountEmitted(out->size());
    return;
  }
  while (!out->full()) {
    if (!in_valid_ || in_pos_ >= in_.size()) {
      if (!child(0)->NextBatch(&in_)) break;
      in_valid_ = true;
      in_pos_ = 0;
    }
    while (in_pos_ < in_.size() && !out->full()) {
      size_t i = in_pos_++;
      // The first consumed row past the child's run ends this run too,
      // whether or not it passes the predicate.
      if (i >= in_.random_run()) random_over_ = true;
      if (predicate_->Evaluate(in_.row(i))) {
        std::swap(*out->NextSlot(), in_.row(i));
        out->CommitSlot();
        if (!random_over_) out->bump_random_run();
      }
    }
  }
  CountEmitted(out->size());
}

double FilterOp::CardinalityEstimate(EstimationMode mode) const {
  if (state() == OpState::kFinished) {
    return static_cast<double>(tuples_emitted());
  }
  uint64_t consumed = child(0)->tuples_emitted();
  if (consumed == 0) return optimizer_estimate();
  double pass_rate = static_cast<double>(tuples_emitted()) /
                     static_cast<double>(consumed);
  return pass_rate * child(0)->CardinalityEstimate(mode);
}

ProjectOp::ProjectOp(OperatorPtr child, std::vector<size_t> indices,
                     Schema output_schema)
    : Operator("Project", OneChild(std::move(child))),
      indices_(std::move(indices)) {
  SetSchema(std::move(output_schema));
}

Status ProjectOp::OpenImpl() {
  in_ = RowBatch(ctx_->batch_size);
  in_pos_ = 0;
  in_valid_ = false;
  random_over_ = false;
  fused_.Reset();
  return Status::OK();
}

void ProjectOp::CloseImpl() { fused_.Reset(); }

void ProjectOp::NextBatchImpl(RowBatch* out) {
  if (fused_.Fill(this, ctx_, out)) {
    CountEmitted(out->size());
    return;
  }
  while (!out->full()) {
    if (!in_valid_ || in_pos_ >= in_.size()) {
      if (!child(0)->NextBatch(&in_)) break;
      in_valid_ = true;
      in_pos_ = 0;
    }
    while (in_pos_ < in_.size() && !out->full()) {
      size_t i = in_pos_++;
      if (i >= in_.random_run()) random_over_ = true;
      ProjectRow(in_.row(i), out->NextSlot());
      out->CommitSlot();
      if (!random_over_) out->bump_random_run();
    }
  }
  CountEmitted(out->size());
}

void ProjectOp::ProjectRow(const Row& in, Row* out) const {
  out->clear();
  out->reserve(indices_.size());
  // Copy, not move: a column may be projected more than once.
  for (size_t idx : indices_) out->push_back(in[idx]);
}

}  // namespace qpi
