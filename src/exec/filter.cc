#include "exec/filter.h"

#include <utility>

#include "exec/morsel_scan.h"

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

FilterOp::~FilterOp() = default;

Status FilterOp::OpenImpl() {
  in_ = RowBatch(ctx_->batch_size);
  in_pos_ = 0;
  in_valid_ = false;
  random_over_ = false;
  driver_.reset();
  fusion_checked_ = false;
  return Status::OK();
}

void FilterOp::CloseImpl() { driver_.reset(); }

void FilterOp::NextBatchImpl(RowBatch* out) {
  if (!fusion_checked_) {
    fusion_checked_ = true;
    if (ctx_->exec_workers > 1) {
      driver_ = TryBuildFusedScanDriver(this, ctx_);
    }
  }
  if (driver_ != nullptr) {
    driver_->Fill(out);
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

ProjectOp::~ProjectOp() = default;

Status ProjectOp::OpenImpl() {
  in_ = RowBatch(ctx_->batch_size);
  in_pos_ = 0;
  in_valid_ = false;
  random_over_ = false;
  driver_.reset();
  fusion_checked_ = false;
  return Status::OK();
}

void ProjectOp::CloseImpl() { driver_.reset(); }

void ProjectOp::NextBatchImpl(RowBatch* out) {
  if (!fusion_checked_) {
    fusion_checked_ = true;
    if (ctx_->exec_workers > 1) {
      driver_ = TryBuildFusedScanDriver(this, ctx_);
    }
  }
  if (driver_ != nullptr) {
    driver_->Fill(out);
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
      Row& input = in_.row(i);
      Row* slot = out->NextSlot();
      slot->clear();
      slot->reserve(indices_.size());
      // Copy, not move: a column may be projected more than once.
      for (size_t idx : indices_) slot->push_back(input[idx]);
      out->CommitSlot();
      if (!random_over_) out->bump_random_run();
    }
  }
  CountEmitted(out->size());
}

}  // namespace qpi
