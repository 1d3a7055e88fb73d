#include "exec/nl_join.h"

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

NestedLoopsJoinOp::NestedLoopsJoinOp(OperatorPtr outer, OperatorPtr inner,
                                     size_t outer_key_index,
                                     size_t inner_key_index, std::string label,
                                     CompareOp join_op, bool indexed)
    : Operator(std::move(label),
               TwoChildren(std::move(outer), std::move(inner))),
      outer_key_index_(outer_key_index),
      inner_key_index_(inner_key_index),
      join_op_(join_op),
      indexed_(indexed) {
  QPI_CHECK(!indexed_ || join_op_ == CompareOp::kEq);
  SetSchema(Schema::Concat(child(0)->schema(), child(1)->schema()));
}

void NestedLoopsJoinOp::EnableOnceEstimation() {
  Operator* outer = child(0);
  auto outer_total = [outer] { return outer->CurrentCardinalityEstimate(); };
  if (indexed_) {
    once_ = std::make_unique<OnceBinaryJoinEstimator>(outer_total);
  } else if (join_op_ != CompareOp::kEq) {
    theta_ =
        std::make_unique<OnceInequalityJoinEstimator>(join_op_, outer_total);
  }
}

Status NestedLoopsJoinOp::OpenImpl() {
  outer_ = RowBatch(ctx_->batch_size);
  outer_pos_ = 0;
  have_outer_ = false;
  return Status::OK();
}

void NestedLoopsJoinOp::MaterializeInner() {
  // The preprocessing pass: the ONCE estimator reads every inner key, as
  // in a hash join's build.
  RowBatch batch(ctx_->batch_size);
  while (child(1)->NextBatch(&batch)) {
    for (size_t i = 0; i < batch.size(); ++i) {
      Row& row = batch.row(i);
      const Value& key = row[inner_key_index_];
      // A NULL inner key matches nothing: it gets no index entry and no
      // estimator counts it.
      if (indexed_ && !key.is_null()) {
        uint64_t code = HistogramKeyCode(key);
        if (once_ != nullptr) once_->ObserveBuildKey(code);
        index_[code].push_back(inner_rows_.size());
      }
      if (theta_ != nullptr) theta_->ObserveInnerKey(key);
      inner_rows_.push_back(std::move(row));
    }
  }
  if (once_ != nullptr) once_->BuildComplete();
  if (theta_ != nullptr) theta_->InnerComplete();
  inner_materialized_ = true;
}

void NestedLoopsJoinOp::TakeOuter() {
  // outer_consumed_ and the observe-or-freeze decision advance per
  // processed outer tuple, so they match batch size 1 exactly.
  ++outer_consumed_;
  const Value& key = outer_.row(outer_pos_)[outer_key_index_];
  const bool null_key = key.is_null();
  bool in_run = outer_pos_ < outer_.random_run();
  uint64_t code = indexed_ ? HistogramKeyCode(key) : 0;
  if (once_ != nullptr && !once_->frozen()) {
    if (!in_run) {
      once_->Freeze();
    } else if (null_key) {
      once_->ObserveNullProbeKey();
    } else {
      once_->ObserveProbeKey(code);
    }
  }
  if (theta_ != nullptr && !theta_->frozen()) {
    if (in_run) {
      theta_->ObserveOuterKey(key);
    } else {
      theta_->Freeze();
    }
  }
  match_pos_ = 0;
  // A NULL outer key matches no inner row: it has no candidates.
  match_end_ = null_key ? 0 : inner_rows_.size();
  if (indexed_ && !null_key) {
    auto it = index_.find(code);
    bucket_ = it == index_.end() ? nullptr : it->second.data();
    match_end_ = it == index_.end() ? 0 : it->second.size();
  }
  have_outer_ = true;
}

void NestedLoopsJoinOp::NextBatchImpl(RowBatch* out) {
  if (!inner_materialized_) MaterializeInner();
  while (!out->full()) {
    if (!have_outer_) {
      if (outer_pos_ >= outer_.size()) {
        if (!child(0)->NextBatch(&outer_)) {
          if (once_ != nullptr) once_->ProbeComplete();
          if (theta_ != nullptr) theta_->OuterComplete();
          break;
        }
        outer_pos_ = 0;
      }
      // A cancelled query stops at the next outer tuple, not at the end
      // of the outer batch: a rescan pays the whole inner per tuple.
      if (ctx_->IsCancelled()) break;
      TakeOuter();
    }
    const Row& outer_row = outer_.row(outer_pos_);
    const Value& outer_key = outer_row[outer_key_index_];
    while (match_pos_ < match_end_ && !out->full()) {
      const Row& inner_row =
          inner_rows_[indexed_ ? bucket_[match_pos_] : match_pos_];
      ++match_pos_;
      const Value& inner_key = inner_row[inner_key_index_];
      if (join_op_ == CompareOp::kEq
              ? JoinKeysEqual(outer_key, inner_key)
              : !inner_key.is_null() &&
                    CompareOpHolds(join_op_, outer_key.Compare(inner_key))) {
        AssignConcat(out->NextSlot(), outer_row, inner_row);
        out->CommitSlot();
      }
    }
    if (match_pos_ == match_end_) {
      have_outer_ = false;
      ++outer_pos_;
    }
  }
  CountEmitted(out->size());
}

void NestedLoopsJoinOp::CloseImpl() {
  inner_rows_.clear();
  index_.clear();
}

uint64_t NestedLoopsJoinOp::OnceSeen() const {
  if (once_ != nullptr) return once_->probe_tuples_seen();
  return theta_ != nullptr ? theta_->outer_tuples_seen() : 0;
}

double NestedLoopsJoinOp::CardinalityEstimate(EstimationMode mode) const {
  if (state() == OpState::kFinished) {
    return static_cast<double>(tuples_emitted());
  }
  auto outer = [this] {
    return DriverCounts{outer_consumed_,
                        child(0)->CurrentCardinalityEstimate()};
  };
  switch (mode) {
    case EstimationMode::kOnce:
      if (OnceSeen() > 0) {
        return once_ != nullptr ? once_->Estimate() : theta_->Estimate();
      }
      // No estimator has read an outer tuple, or none applies (an
      // equality rescan has no preprocessing pass): dne (Section 4.1.3).
      [[fallthrough]];
    case EstimationMode::kDne:
      return DriverEstimate<DneEstimator>(optimizer_estimate(),
                                          tuples_emitted(), outer());
    case EstimationMode::kByte:
      return DriverEstimate<ByteEstimator>(optimizer_estimate(),
                                           tuples_emitted(), outer());
    case EstimationMode::kNone:
      break;
  }
  return optimizer_estimate();
}

double NestedLoopsJoinOp::CurrentCardinalityHalfWidth(
    double confidence) const {
  if (state() == OpState::kFinished || !OnceMode() || OnceSeen() == 0) {
    return 0.0;
  }
  return once_ != nullptr ? once_->ConfidenceHalfWidth(confidence)
                          : theta_->ConfidenceHalfWidth(confidence);
}

bool NestedLoopsJoinOp::CardinalityExact() const {
  if (state() == OpState::kFinished) return true;
  if (!OnceMode()) return false;
  if (once_ != nullptr) return once_->Exact();
  return theta_ != nullptr && theta_->Exact();
}

}  // namespace qpi
