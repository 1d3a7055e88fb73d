#include "exec/merge_join.h"

#include <algorithm>

#include "common/check.h"
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

MergeJoinOp::MergeJoinOp(OperatorPtr left, OperatorPtr right,
                         size_t left_key_index, size_t right_key_index,
                         std::string label)
    : Operator(std::move(label),
               TwoChildren(std::move(left), std::move(right))),
      left_key_index_(left_key_index),
      right_key_index_(right_key_index) {
  SetSchema(Schema::Concat(child(0)->schema(), child(1)->schema()));
}

void MergeJoinOp::EnableOnceEstimation() {
  QPI_CHECK(pipeline_ == nullptr);
  Operator* right = child(1);
  once_ = std::make_unique<OnceBinaryJoinEstimator>(
      [right] { return right->CurrentCardinalityEstimate(); });
}

void MergeJoinOp::EnlistInPipeline(
    std::shared_ptr<PipelineJoinEstimator> pipeline, size_t index,
    bool is_lowest) {
  QPI_CHECK(once_ == nullptr);
  pipeline_ = std::move(pipeline);
  pipeline_index_ = index;
  pipeline_lowest_ = is_lowest;
}

void MergeJoinOp::RunIntakePhases() {
  RowBatch batch(ctx_ != nullptr ? ctx_->batch_size
                                 : RowBatch::kDefaultCapacity);
  // Left intake: the sort sees every left tuple, so the histogram can be
  // built before any output is produced.
  while (child(0)->NextBatch(&batch)) {
    for (size_t i = 0; i < batch.size(); ++i) {
      Row& row = batch.row(i);
      if (once_ != nullptr) {
        once_->ObserveBuildKey(HistogramKeyCode(row[left_key_index_]));
      }
      if (pipeline_ != nullptr) {
        pipeline_->ObserveBuildRow(pipeline_index_, row);
      }
      left_rows_.push_back(std::move(row));
    }
  }
  if (once_ != nullptr) once_->BuildComplete();
  if (pipeline_ != nullptr) pipeline_->BuildComplete(pipeline_index_);
  std::sort(left_rows_.begin(), left_rows_.end(), [&](const Row& a,
                                                      const Row& b) {
    return a[left_key_index_] < b[left_key_index_];
  });

  // Right intake: probe the left histogram while the input is still in
  // random order, before sorting destroys that property. The batch's
  // random_run marks the per-tuple freeze boundary.
  bool feed_pipeline = pipeline_ != nullptr && pipeline_lowest_;
  std::vector<uint64_t> keys;
  keys.reserve(batch.capacity());
  while (child(1)->NextBatch(&batch)) {
    size_t n = batch.size();
    size_t run = static_cast<size_t>(batch.random_run());
    if (run > n) run = n;
    if (once_ != nullptr && !once_->frozen()) {
      keys.clear();
      for (size_t i = 0; i < run; ++i) {
        keys.push_back(HistogramKeyCode(batch.row(i)[right_key_index_]));
      }
      once_->ObserveProbeKeys(keys.data(), run);
      if (run < n) once_->Freeze();
    }
    if (feed_pipeline && !pipeline_->frozen()) {
      for (size_t i = 0; i < run; ++i) {
        pipeline_->ObserveDriverRow(batch.row(i));
      }
      if (run < n) pipeline_->Freeze();
    }
    for (size_t i = 0; i < n; ++i) {
      right_rows_.push_back(std::move(batch.row(i)));
    }
  }
  if (once_ != nullptr) once_->ProbeComplete();
  if (feed_pipeline) pipeline_->DriverComplete();
  std::sort(right_rows_.begin(), right_rows_.end(), [&](const Row& a,
                                                        const Row& b) {
    return a[right_key_index_] < b[right_key_index_];
  });
}

void MergeJoinOp::NextBatchImpl(RowBatch* out) {
  if (phase_ == Phase::kInit) {
    RunIntakePhases();
    phase_ = Phase::kMerge;
  }
  while (phase_ == Phase::kMerge && !out->full()) {
    if (!AdvanceMerge(out->NextSlot())) {
      phase_ = Phase::kDone;
      break;
    }
    out->CommitSlot();
  }
  CountEmitted(out->size());
}

bool MergeJoinOp::AdvanceMerge(Row* out) {
  while (true) {
    if (in_run_) {
      if (run_right_ < right_hi_) {
        AssignConcat(out, left_rows_[run_left_], right_rows_[run_right_]);
        ++run_right_;
        return true;
      }
      ++run_left_;
      if (run_left_ < left_hi_) {
        run_right_ = right_pos_;
        continue;
      }
      // Run exhausted.
      in_run_ = false;
      merge_right_consumed_ += right_hi_ - right_pos_;
      left_pos_ = left_hi_;
      right_pos_ = right_hi_;
    }
    if (left_pos_ >= left_rows_.size() || right_pos_ >= right_rows_.size()) {
      merge_right_consumed_ = right_rows_.size();
      return false;
    }
    const Value& lk = left_rows_[left_pos_][left_key_index_];
    const Value& rk = right_rows_[right_pos_][right_key_index_];
    int cmp = lk.Compare(rk);
    if (cmp < 0) {
      ++left_pos_;
      continue;
    }
    if (cmp > 0) {
      ++right_pos_;
      ++merge_right_consumed_;
      continue;
    }
    // Found an equal-key run on both sides.
    left_hi_ = left_pos_;
    while (left_hi_ < left_rows_.size() &&
           left_rows_[left_hi_][left_key_index_].Compare(lk) == 0) {
      ++left_hi_;
    }
    right_hi_ = right_pos_;
    while (right_hi_ < right_rows_.size() &&
           right_rows_[right_hi_][right_key_index_].Compare(rk) == 0) {
      ++right_hi_;
    }
    run_left_ = left_pos_;
    run_right_ = right_pos_;
    in_run_ = true;
  }
}

void MergeJoinOp::CloseImpl() {
  left_rows_.clear();
  right_rows_.clear();
}

double MergeJoinOp::DneEstimate() const {
  if (state() == OpState::kFinished) {
    return static_cast<double>(tuples_emitted());
  }
  DneEstimator dne(optimizer_estimate());
  dne.Update(merge_right_consumed_, tuples_emitted());
  return dne.Estimate(static_cast<double>(right_rows_.size()));
}

double MergeJoinOp::ByteEstimate() const {
  if (state() == OpState::kFinished) {
    return static_cast<double>(tuples_emitted());
  }
  ByteEstimator byte(optimizer_estimate());
  byte.Update(merge_right_consumed_, tuples_emitted());
  return byte.Estimate(static_cast<double>(right_rows_.size()));
}

double MergeJoinOp::OnceEstimate() const {
  if (state() == OpState::kFinished) {
    return static_cast<double>(tuples_emitted());
  }
  if (pipeline_ != nullptr && pipeline_->Resolved(pipeline_index_)) {
    if (pipeline_->driver_rows_seen() == 0) return optimizer_estimate();
    return pipeline_->EstimateForJoin(pipeline_index_);
  }
  if (once_ != nullptr) {
    if (once_->probe_tuples_seen() == 0) return optimizer_estimate();
    return once_->Estimate();
  }
  return DneEstimate();
}

double MergeJoinOp::CardinalityEstimate(EstimationMode mode) const {
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

bool MergeJoinOp::CardinalityExact() const {
  if (state() == OpState::kFinished) return true;
  if (!OnceMode()) return false;
  if (pipeline_ != nullptr && pipeline_->Resolved(pipeline_index_)) {
    return pipeline_->Exact();
  }
  return once_ != nullptr && once_->Exact();
}

}  // namespace qpi
