#include "exec/index_nl_join.h"

#include "estimators/baselines.h"
#include "stats/hash_histogram.h"

namespace qpi {

namespace {
std::vector<OperatorPtr> TwoChildren(OperatorPtr a, OperatorPtr b) {
  std::vector<OperatorPtr> v;
  v.push_back(std::move(a));
  v.push_back(std::move(b));
  return v;
}
}  // namespace

IndexNestedLoopsJoinOp::IndexNestedLoopsJoinOp(OperatorPtr outer,
                                               OperatorPtr inner,
                                               size_t outer_key_index,
                                               size_t inner_key_index,
                                               std::string label)
    : Operator(std::move(label),
               TwoChildren(std::move(outer), std::move(inner))),
      outer_key_index_(outer_key_index),
      inner_key_index_(inner_key_index) {
  SetSchema(Schema::Concat(child(0)->schema(), child(1)->schema()));
}

void IndexNestedLoopsJoinOp::EnableOnceEstimation() {
  Operator* outer = child(0);
  once_ = std::make_unique<OnceBinaryJoinEstimator>(
      [outer] { return outer->CurrentCardinalityEstimate(); });
}

Status IndexNestedLoopsJoinOp::OpenImpl() {
  outer_ = RowBatch(ctx_ != nullptr ? ctx_->batch_size
                                    : RowBatch::kDefaultCapacity);
  outer_pos_ = 0;
  current_matches_ = nullptr;
  return Status::OK();
}

void IndexNestedLoopsJoinOp::NextBatchImpl(RowBatch* out) {
  if (!index_built_) {
    // Preprocessing: materialize the inner input and build the temporary
    // index; the estimation histogram rides along, as in a hash join build.
    RowBatch batch(ctx_ != nullptr ? ctx_->batch_size
                                   : RowBatch::kDefaultCapacity);
    while (child(1)->NextBatch(&batch)) {
      for (size_t i = 0; i < batch.size(); ++i) {
        Row& row = batch.row(i);
        uint64_t key = HistogramKeyCode(row[inner_key_index_]);
        if (once_ != nullptr) once_->ObserveBuildKey(key);
        index_[key].push_back(inner_rows_.size());
        inner_rows_.push_back(std::move(row));
      }
    }
    if (once_ != nullptr) once_->BuildComplete();
    index_built_ = true;
  }
  while (!out->full()) {
    if (current_matches_ == nullptr) {
      if (outer_pos_ >= outer_.size()) {
        if (!child(0)->NextBatch(&outer_)) {
          if (once_ != nullptr) once_->ProbeComplete();
          break;
        }
        outer_pos_ = 0;
      }
      // outer_consumed_ and the observe-or-freeze decision advance per
      // processed outer tuple, so they match batch size 1 exactly.
      ++outer_consumed_;
      uint64_t key =
          HistogramKeyCode(outer_.row(outer_pos_)[outer_key_index_]);
      if (once_ != nullptr && !once_->frozen()) {
        if (outer_pos_ < outer_.random_run()) {
          once_->ObserveProbeKey(key);
        } else {
          once_->Freeze();
        }
      }
      auto it = index_.find(key);
      if (it == index_.end()) {
        ++outer_pos_;
        continue;
      }
      current_matches_ = &it->second;
      match_idx_ = 0;
    }
    const Row& outer_row = outer_.row(outer_pos_);
    while (match_idx_ < current_matches_->size() && !out->full()) {
      AssignConcat(out->NextSlot(), outer_row,
                   inner_rows_[(*current_matches_)[match_idx_++]]);
      out->CommitSlot();
    }
    if (match_idx_ == current_matches_->size()) {
      current_matches_ = nullptr;
      ++outer_pos_;
    }
  }
  CountEmitted(out->size());
}

void IndexNestedLoopsJoinOp::CloseImpl() {
  inner_rows_.clear();
  index_.clear();
}

double IndexNestedLoopsJoinOp::DneEstimate() const {
  if (state() == OpState::kFinished) {
    return static_cast<double>(tuples_emitted());
  }
  DneEstimator dne(optimizer_estimate());
  dne.Update(outer_consumed_, tuples_emitted());
  // The outer total is itself a live estimate and may transiently lag the
  // consumed count mid-batch; DneEstimator clamps.
  return dne.Estimate(child(0)->CurrentCardinalityEstimate());
}

double IndexNestedLoopsJoinOp::ByteEstimate() const {
  if (state() == OpState::kFinished) {
    return static_cast<double>(tuples_emitted());
  }
  ByteEstimator byte(optimizer_estimate());
  byte.Update(outer_consumed_, tuples_emitted());
  return byte.Estimate(child(0)->CurrentCardinalityEstimate());
}

double IndexNestedLoopsJoinOp::OnceEstimate() const {
  if (state() == OpState::kFinished) {
    return static_cast<double>(tuples_emitted());
  }
  if (once_ != nullptr && once_->probe_tuples_seen() > 0) {
    return once_->Estimate();
  }
  return DneEstimate();
}

double IndexNestedLoopsJoinOp::CardinalityEstimate(EstimationMode mode) const {
  switch (mode) {
    case EstimationMode::kOnce:
      return OnceEstimate();
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

double IndexNestedLoopsJoinOp::CurrentCardinalityHalfWidth(
    double confidence) const {
  if (state() == OpState::kFinished) return 0.0;
  if (!OnceMode()) return 0.0;
  if (once_ != nullptr && once_->probe_tuples_seen() > 0) {
    return once_->ConfidenceHalfWidth(confidence);
  }
  return 0.0;
}

bool IndexNestedLoopsJoinOp::CardinalityExact() const {
  if (state() == OpState::kFinished) return true;
  if (!OnceMode()) return false;
  return once_ != nullptr && once_->Exact();
}

}  // namespace qpi
