#include "exec/aggregate.h"

#include <algorithm>

#include "common/check.h"
#include "stats/hash_histogram.h"

namespace qpi {

namespace {
std::vector<OperatorPtr> OneChild(OperatorPtr child) {
  std::vector<OperatorPtr> v;
  v.push_back(std::move(child));
  return v;
}

}  // namespace

AggregateBaseOp::AggregateBaseOp(OperatorPtr child,
                                 std::vector<size_t> group_indices,
                                 std::vector<BoundAggregate> aggregates,
                                 Schema output_schema, std::string label)
    : Operator(std::move(label), OneChild(std::move(child))),
      group_indices_(std::move(group_indices)),
      aggregates_(std::move(aggregates)) {
  SetSchema(std::move(output_schema));
}

void AggregateBaseOp::EnableOnceEstimation(GroupPolicy policy,
                                           AdaptiveGroupConfig config) {
  config.policy = policy;
  Operator* input = child(0);
  estimator_ = std::make_unique<AdaptiveGroupEstimator>(
      [input] { return input->CurrentCardinalityEstimate(); }, config);
}

void AggregateBaseOp::EnableJoinPushDownEstimation(
    std::shared_ptr<PipelineJoinEstimator> pipeline) {
  QPI_CHECK(pipeline != nullptr && pipeline->group_pushdown_enabled());
  pushdown_ = std::move(pipeline);
}

uint64_t AggregateBaseOp::GroupKeyCode(const Row& row) const {
  if (group_indices_.size() == 1) {
    return HistogramKeyCode(row[group_indices_[0]]);
  }
  uint64_t h = kCompositeKeySeed;
  for (size_t idx : group_indices_) {
    h = CombineKeyCodes(h, HistogramKeyCode(row[idx]));
  }
  return h;
}

void AggregateBaseOp::ObserveIntakeBatch(const RowBatch& batch) {
  input_consumed_ += batch.size();
  if (ola_observer_ != nullptr) ola_observer_->OnIntakeBatch(batch);
  if (estimator_ == nullptr || estimation_frozen_) return;
  size_t run = static_cast<size_t>(batch.random_run());
  if (run > batch.size()) run = batch.size();
  for (size_t i = 0; i < run; ++i) {
    estimator_->Observe(GroupKeyCode(batch.row(i)));
  }
  if (run < batch.size()) estimation_frozen_ = true;
}

void AggregateBaseOp::IntakeComplete(uint64_t exact_groups) {
  intake_done_ = true;
  exact_groups_ = exact_groups;
  // A cancelled drain reaches here with only part of the input consumed;
  // never present that as a complete (exact) pass to the OLA side.
  if (ola_observer_ != nullptr && (ctx_ == nullptr || !ctx_->IsCancelled())) {
    ola_observer_->OnIntakeComplete();
  }
}

// Aggregates have no per-candidate machinery: every candidate gets the
// number the context's mode yields. Handing dne/byte the constant
// optimizer guess instead would give them zero instability, and the
// selector's loss would then prefer them over a moving ONCE estimate.
double AggregateBaseOp::CardinalityEstimate(EstimationMode /*mode*/) const {
  if (state() == OpState::kFinished) {
    return static_cast<double>(tuples_emitted());
  }
  if (intake_done_) {
    // The hashing/sorting phase has seen every input tuple: exact count.
    return static_cast<double>(exact_groups_);
  }
  if (OnceMode()) {
    if (pushdown_ != nullptr && pushdown_->output_stats().num_observed() > 0) {
      return pushdown_->GroupCountEstimate();
    }
    if (estimator_ != nullptr && estimator_->stats().num_observed() > 0) {
      return estimator_->Estimate();
    }
  }
  // dne/byte have no getnext()-level signal before the aggregate emits.
  return optimizer_estimate();
}

bool AggregateBaseOp::CardinalityExact() const {
  if (state() == OpState::kFinished || intake_done_) return true;
  // Push-down delivers the exact group count once the driver pass over the
  // feeding pipeline finished un-frozen.
  return OnceMode() && pushdown_ != nullptr && pushdown_->Exact();
}

// ---- hash aggregation -------------------------------------------------------

HashAggregateOp::HashAggregateOp(OperatorPtr child,
                                 std::vector<size_t> group_indices,
                                 std::vector<BoundAggregate> aggregates,
                                 Schema output_schema)
    : AggregateBaseOp(std::move(child), std::move(group_indices),
                      std::move(aggregates), std::move(output_schema),
                      "HashAggregate") {}

void HashAggregateOp::DoIntake() {
  RowBatch batch(ctx_ != nullptr ? ctx_->batch_size
                                 : RowBatch::kDefaultCapacity);
  uint64_t num_groups = 0;
  while (child(0)->NextBatch(&batch)) {
    ObserveIntakeBatch(batch);
    for (size_t i = 0; i < batch.size(); ++i) {
      const Row& row = batch.row(i);
      uint64_t code = GroupKeyCode(row);
      std::vector<Accumulator>& bucket = groups_[code];
      Accumulator* acc = nullptr;
      for (Accumulator& cand : bucket) {
        bool same = true;
        for (size_t g = 0; g < group_indices_.size(); ++g) {
          if (cand.group_values[g].Compare(row[group_indices_[g]]) != 0) {
            same = false;
            break;
          }
        }
        if (same) {
          acc = &cand;
          break;
        }
      }
      if (acc == nullptr) {
        bucket.emplace_back();
        acc = &bucket.back();
        acc->group_values.reserve(group_indices_.size());
        for (size_t idx : group_indices_) acc->group_values.push_back(row[idx]);
        acc->sums.assign(aggregates_.size(), 0.0);
        ++num_groups;
      }
      ++acc->count;
      for (size_t a = 0; a < aggregates_.size(); ++a) {
        if (aggregates_[a].kind != AggregateSpec::Kind::kCountStar) {
          acc->sums[a] += row[aggregates_[a].column_index].AsDouble();
        }
      }
    }
  }
  if (group_indices_.empty() && num_groups == 0) {
    // Global aggregation over an empty input still yields one row
    // (COUNT(*)=0, SUM/AVG=0).
    Accumulator& acc = groups_[0].emplace_back();
    acc.sums.assign(aggregates_.size(), 0.0);
    num_groups = 1;
  }
  IntakeComplete(num_groups);
  emit_order_.reserve(num_groups);
  for (const auto& [code, bucket] : groups_) {
    (void)code;
    for (const Accumulator& acc : bucket) emit_order_.push_back(&acc);
  }
  emit_pos_ = 0;
}

void HashAggregateOp::FillOutputRow(const Accumulator& acc, Row* out) const {
  out->clear();
  out->reserve(group_indices_.size() + aggregates_.size());
  for (const Value& v : acc.group_values) out->push_back(v);
  for (size_t a = 0; a < aggregates_.size(); ++a) {
    if (aggregates_[a].kind == AggregateSpec::Kind::kCountStar) {
      out->emplace_back(static_cast<int64_t>(acc.count));
    } else if (aggregates_[a].kind == AggregateSpec::Kind::kAvg) {
      out->emplace_back(acc.count ? acc.sums[a] / acc.count : 0.0);
    } else {
      out->emplace_back(acc.sums[a]);
    }
  }
}

void HashAggregateOp::NextBatchImpl(RowBatch* out) {
  if (!intake_done_) DoIntake();
  while (!out->full() && emit_pos_ < emit_order_.size()) {
    FillOutputRow(*emit_order_[emit_pos_], out->NextSlot());
    out->CommitSlot();
    ++emit_pos_;
  }
  CountEmitted(out->size());
}

void HashAggregateOp::CloseImpl() {
  groups_.clear();
  emit_order_.clear();
}

// ---- sort aggregation -------------------------------------------------------

SortAggregateOp::SortAggregateOp(OperatorPtr child,
                                 std::vector<size_t> group_indices,
                                 std::vector<BoundAggregate> aggregates,
                                 Schema output_schema)
    : AggregateBaseOp(std::move(child), std::move(group_indices),
                      std::move(aggregates), std::move(output_schema),
                      "SortAggregate") {}

void SortAggregateOp::DoIntake() {
  RowBatch batch(ctx_ != nullptr ? ctx_->batch_size
                                 : RowBatch::kDefaultCapacity);
  while (child(0)->NextBatch(&batch)) {
    ObserveIntakeBatch(batch);
    for (size_t i = 0; i < batch.size(); ++i) {
      rows_.push_back(std::move(batch.row(i)));
    }
  }
  std::sort(rows_.begin(), rows_.end(), [&](const Row& a, const Row& b) {
    for (size_t g : group_indices_) {
      int cmp = a[g].Compare(b[g]);
      if (cmp != 0) return cmp < 0;
    }
    return false;
  });
  // Count groups exactly: one per equal-key run.
  uint64_t num_groups = 0;
  for (size_t i = 0; i < rows_.size(); ++i) {
    if (i == 0) {
      ++num_groups;
      continue;
    }
    for (size_t g : group_indices_) {
      if (rows_[i][g].Compare(rows_[i - 1][g]) != 0) {
        ++num_groups;
        break;
      }
    }
  }
  if (group_indices_.empty() && num_groups == 0) {
    pending_global_zero_ = true;  // empty input still yields one global row
    num_groups = 1;
  }
  IntakeComplete(num_groups);
  pos_ = 0;
}

void SortAggregateOp::NextBatchImpl(RowBatch* out) {
  if (!intake_done_) DoIntake();
  while (!out->full()) {
    Row* slot = out->NextSlot();
    if (!EmitGroup(slot)) break;
    out->CommitSlot();
  }
  CountEmitted(out->size());
}

bool SortAggregateOp::EmitGroup(Row* out) {
  if (pending_global_zero_) {
    pending_global_zero_ = false;
    out->clear();
    out->reserve(aggregates_.size());
    for (const BoundAggregate& agg : aggregates_) {
      if (agg.kind == AggregateSpec::Kind::kCountStar) {
        out->emplace_back(static_cast<int64_t>(0));
      } else {
        out->emplace_back(0.0);
      }
    }
    return true;
  }
  if (pos_ >= rows_.size()) return false;
  // Fold the current equal-key run.
  size_t start = pos_;
  uint64_t count = 0;
  std::vector<double> sums(aggregates_.size(), 0.0);
  while (pos_ < rows_.size()) {
    bool same = true;
    for (size_t g : group_indices_) {
      if (rows_[pos_][g].Compare(rows_[start][g]) != 0) {
        same = false;
        break;
      }
    }
    if (!same) break;
    ++count;
    for (size_t a = 0; a < aggregates_.size(); ++a) {
      if (aggregates_[a].kind != AggregateSpec::Kind::kCountStar) {
        sums[a] += rows_[pos_][aggregates_[a].column_index].AsDouble();
      }
    }
    ++pos_;
  }
  out->clear();
  out->reserve(group_indices_.size() + aggregates_.size());
  for (size_t g : group_indices_) out->push_back(rows_[start][g]);
  for (size_t a = 0; a < aggregates_.size(); ++a) {
    if (aggregates_[a].kind == AggregateSpec::Kind::kCountStar) {
      out->emplace_back(static_cast<int64_t>(count));
    } else if (aggregates_[a].kind == AggregateSpec::Kind::kAvg) {
      out->emplace_back(count ? sums[a] / count : 0.0);
    } else {
      out->emplace_back(sums[a]);
    }
  }
  return true;
}

void SortAggregateOp::CloseImpl() { rows_.clear(); }

}  // namespace qpi
