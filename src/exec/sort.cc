#include "exec/sort.h"

#include <algorithm>

#include "estimators/baselines.h"

namespace qpi {

namespace {
std::vector<OperatorPtr> OneChild(OperatorPtr child) {
  std::vector<OperatorPtr> v;
  v.push_back(std::move(child));
  return v;
}
std::vector<OperatorPtr> TwoChildren(OperatorPtr a, OperatorPtr b) {
  std::vector<OperatorPtr> v;
  v.push_back(std::move(a));
  v.push_back(std::move(b));
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

NestedLoopsJoinOp::NestedLoopsJoinOp(OperatorPtr outer, OperatorPtr inner,
                                     size_t outer_key_index,
                                     size_t inner_key_index, std::string label,
                                     CompareOp join_op)
    : Operator(std::move(label),
               TwoChildren(std::move(outer), std::move(inner))),
      outer_key_index_(outer_key_index),
      inner_key_index_(inner_key_index),
      join_op_(join_op) {
  SetSchema(Schema::Concat(child(0)->schema(), child(1)->schema()));
}

void NestedLoopsJoinOp::EnableThetaOnceEstimation() {
  Operator* outer = child(0);
  theta_ = std::make_unique<OnceInequalityJoinEstimator>(
      join_op_, [outer] { return outer->CurrentCardinalityEstimate(); });
}

bool NestedLoopsJoinOp::Matches(const Value& outer, const Value& inner) const {
  int cmp = outer.Compare(inner);
  switch (join_op_) {
    case CompareOp::kEq:
      return cmp == 0;
    case CompareOp::kNe:
      return cmp != 0;
    case CompareOp::kLt:
      return cmp < 0;
    case CompareOp::kLe:
      return cmp <= 0;
    case CompareOp::kGt:
      return cmp > 0;
    case CompareOp::kGe:
      return cmp >= 0;
  }
  return false;
}

Status NestedLoopsJoinOp::OpenImpl() {
  outer_ = RowBatch(ctx_->batch_size);
  outer_pos_ = 0;
  have_outer_ = false;
  return Status::OK();
}

void NestedLoopsJoinOp::NextBatchImpl(RowBatch* out) {
  if (!inner_materialized_) {
    RowBatch batch(ctx_->batch_size);
    while (child(1)->NextBatch(&batch)) {
      for (size_t i = 0; i < batch.size(); ++i) {
        Row& row = batch.row(i);
        if (theta_ != nullptr) theta_->ObserveInnerKey(row[inner_key_index_]);
        inner_rows_.push_back(std::move(row));
      }
    }
    if (theta_ != nullptr) theta_->InnerComplete();
    inner_materialized_ = true;
  }
  while (!out->full()) {
    if (!have_outer_) {
      if (outer_pos_ >= outer_.size()) {
        if (!child(0)->NextBatch(&outer_)) {
          if (theta_ != nullptr) theta_->OuterComplete();
          break;
        }
        outer_pos_ = 0;
      }
      // outer_consumed_ and the observe-or-freeze decision advance per
      // processed outer tuple, so they match batch size 1 exactly.
      ++outer_consumed_;
      if (theta_ != nullptr && !theta_->frozen()) {
        if (outer_pos_ < outer_.random_run()) {
          theta_->ObserveOuterKey(outer_.row(outer_pos_)[outer_key_index_]);
        } else {
          theta_->Freeze();
        }
      }
      have_outer_ = true;
      inner_pos_ = 0;
    }
    const Row& outer_row = outer_.row(outer_pos_);
    const Value& outer_key = outer_row[outer_key_index_];
    while (inner_pos_ < inner_rows_.size() && !out->full()) {
      const Row& inner_row = inner_rows_[inner_pos_++];
      if (Matches(outer_key, inner_row[inner_key_index_])) {
        AssignConcat(out->NextSlot(), outer_row, inner_row);
        out->CommitSlot();
      }
    }
    if (inner_pos_ == inner_rows_.size()) {
      have_outer_ = false;
      ++outer_pos_;
    }
  }
  CountEmitted(out->size());
}

void NestedLoopsJoinOp::CloseImpl() { inner_rows_.clear(); }

double NestedLoopsJoinOp::DneEstimate() const {
  if (state() == OpState::kFinished) {
    return static_cast<double>(tuples_emitted());
  }
  DneEstimator dne(optimizer_estimate());
  dne.Update(outer_consumed_, tuples_emitted());
  return dne.Estimate(child(0)->CurrentCardinalityEstimate());
}

double NestedLoopsJoinOp::ByteEstimate() const {
  if (state() == OpState::kFinished) {
    return static_cast<double>(tuples_emitted());
  }
  ByteEstimator byte(optimizer_estimate());
  byte.Update(outer_consumed_, tuples_emitted());
  return byte.Estimate(child(0)->CurrentCardinalityEstimate());
}

double NestedLoopsJoinOp::CardinalityEstimate(EstimationMode mode) const {
  switch (mode) {
    case EstimationMode::kOnce:
      if (state() != OpState::kFinished && theta_ != nullptr &&
          theta_->outer_tuples_seen() > 0) {
        return theta_->Estimate();
      }
      // Equijoin NL (no preprocessing): ONCE degenerates to dne
      // (Section 4.1.3).
      return DneEstimate();
    case EstimationMode::kDne:
      return DneEstimate();
    case EstimationMode::kByte:
      return ByteEstimate();
    case EstimationMode::kNone:
      break;
  }
  return state() == OpState::kFinished ? static_cast<double>(tuples_emitted())
                                       : optimizer_estimate();
}

double NestedLoopsJoinOp::CurrentCardinalityHalfWidth(
    double confidence) const {
  if (state() == OpState::kFinished) return 0.0;
  if (!OnceMode()) return 0.0;
  if (theta_ != nullptr && theta_->outer_tuples_seen() > 0) {
    return theta_->ConfidenceHalfWidth(confidence);
  }
  return 0.0;
}

bool NestedLoopsJoinOp::CardinalityExact() const {
  if (state() == OpState::kFinished) return true;
  if (!OnceMode()) return false;
  return theta_ != nullptr && theta_->Exact();
}

}  // namespace qpi
