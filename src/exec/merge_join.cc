#include "exec/merge_join.h"

#include <algorithm>
#include <utility>

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

void MergeJoinOp::RunIntakePhases() {
  RowBatch batch(ctx_->batch_size);
  // Left intake: the sort sees every left tuple, so the histogram can be
  // built before any output is produced.
  while (child(0)->NextBatch(&batch)) {
    estimation_.ObserveBuild(
        batch,
        [&](size_t i) {
          return HistogramKeyCode(batch.row(i)[left_key_index_]);
        },
        [&](size_t i) { return batch.row(i)[left_key_index_].is_null(); });
    for (size_t i = 0; i < batch.size(); ++i) {
      left_rows_.push_back(std::move(batch.row(i)));
    }
  }
  estimation_.BuildComplete();
  std::sort(left_rows_.begin(), left_rows_.end(), [&](const Row& a,
                                                      const Row& b) {
    return a[left_key_index_] < b[left_key_index_];
  });

  // Right intake: probe the left histogram while the input is still in
  // random order, before sorting destroys that property.
  std::vector<uint64_t> keys;
  while (child(1)->NextBatch(&batch)) {
    estimation_.ObserveProbe(
        batch,
        [&](size_t run) {
          keys.clear();
          for (size_t i = 0; i < run; ++i) {
            keys.push_back(HistogramKeyCode(batch.row(i)[right_key_index_]));
          }
          return keys.data();
        },
        [&](size_t i) { return batch.row(i)[right_key_index_].is_null(); });
    for (size_t i = 0; i < batch.size(); ++i) {
      right_rows_.push_back(std::move(batch.row(i)));
    }
  }
  estimation_.ProbeComplete();
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
    // NULL keys sort first and match nothing, not even each other: step
    // over them instead of forming a run.
    if (lk.is_null()) {
      ++left_pos_;
      continue;
    }
    if (rk.is_null()) {
      ++right_pos_;
      ++merge_right_consumed_;
      continue;
    }
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

double MergeJoinOp::CardinalityEstimate(EstimationMode mode) const {
  return estimation_.Estimate(
      *this, mode,
      {merge_right_consumed_, static_cast<double>(right_rows_.size())});
}

double MergeJoinOp::CurrentCardinalityHalfWidth(double confidence) const {
  return estimation_.HalfWidth(*this, OnceMode(), confidence);
}

bool MergeJoinOp::CardinalityExact() const {
  return estimation_.Exact(*this, OnceMode());
}

}  // namespace qpi
