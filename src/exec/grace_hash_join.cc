#include "exec/grace_hash_join.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/check.h"
#include "common/task_scheduler.h"

namespace qpi {

namespace {

std::vector<OperatorPtr> TwoChildren(OperatorPtr a, OperatorPtr b) {
  std::vector<OperatorPtr> v;
  v.push_back(std::move(a));
  v.push_back(std::move(b));
  return v;
}

inline uint64_t PartitionMix(uint64_t k) {
  k ^= k >> 33;
  k *= 0xc4ceb9fe1a85ec53ULL;
  k ^= k >> 29;
  return k;
}

inline size_t NextPowerOfTwo(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

/// The ONCE output contribution of each join flavor. No default case, so
/// -Wswitch flags a JoinFlavor added without one; an out-of-range value
/// aborts instead of reaching the estimator uninitialized.
OnceBinaryJoinEstimator::Contribution OnceContribution(JoinFlavor flavor) {
  using Contribution = OnceBinaryJoinEstimator::Contribution;
  switch (flavor) {
    case JoinFlavor::kInner:
      return Contribution::kInner;
    case JoinFlavor::kSemi:
      return Contribution::kSemi;
    case JoinFlavor::kAnti:
      return Contribution::kAnti;
    case JoinFlavor::kProbeOuter:
      return Contribution::kProbeOuter;
  }
  std::abort();
}

}  // namespace

GraceHashJoinOp::GraceHashJoinOp(OperatorPtr build, OperatorPtr probe,
                                 size_t build_key_index,
                                 size_t probe_key_index, std::string label,
                                 JoinFlavor join_type)
    : GraceHashJoinOp(std::move(build), std::move(probe),
                      std::vector<size_t>{build_key_index},
                      std::vector<size_t>{probe_key_index}, std::move(label),
                      join_type) {}

GraceHashJoinOp::GraceHashJoinOp(OperatorPtr build, OperatorPtr probe,
                                 std::vector<size_t> build_key_indices,
                                 std::vector<size_t> probe_key_indices,
                                 std::string label, JoinFlavor join_type)
    : Operator(std::move(label), TwoChildren(std::move(build), std::move(probe))),
      build_key_indices_(std::move(build_key_indices)),
      probe_key_indices_(std::move(probe_key_indices)),
      join_type_(join_type) {
  QPI_CHECK(!build_key_indices_.empty());
  QPI_CHECK(build_key_indices_.size() == probe_key_indices_.size());
  // Semi and anti joins emit probe rows only; the other flavours emit the
  // concatenation (with NULL-padded build columns for probe-outer misses).
  if (join_type_ == JoinFlavor::kSemi || join_type_ == JoinFlavor::kAnti) {
    SetSchema(probe_child()->schema());
  } else {
    SetSchema(
        Schema::Concat(build_child()->schema(), probe_child()->schema()));
  }
}

uint64_t GraceHashJoinOp::BuildKeyCode(const Row& row) const {
  if (build_key_indices_.size() == 1) {
    return HistogramKeyCode(row[build_key_indices_[0]]);
  }
  uint64_t h = kCompositeKeySeed;
  for (size_t idx : build_key_indices_) {
    h = CombineKeyCodes(h, HistogramKeyCode(row[idx]));
  }
  return h;
}

uint64_t GraceHashJoinOp::ProbeKeyCode(const Row& row) const {
  if (probe_key_indices_.size() == 1) {
    return HistogramKeyCode(row[probe_key_indices_[0]]);
  }
  uint64_t h = kCompositeKeySeed;
  for (size_t idx : probe_key_indices_) {
    h = CombineKeyCodes(h, HistogramKeyCode(row[idx]));
  }
  return h;
}

bool GraceHashJoinOp::KeysEqual(const Row& build_row,
                                const Row& probe_row) const {
  for (size_t i = 0; i < build_key_indices_.size(); ++i) {
    if (build_row[build_key_indices_[i]].Compare(
            probe_row[probe_key_indices_[i]]) != 0) {
      return false;
    }
  }
  return true;
}

void GraceHashJoinOp::EnableBinaryOnceEstimation() {
  QPI_CHECK(pipeline_ == nullptr);
  Operator* probe = probe_child();
  once_ = std::make_unique<OnceBinaryJoinEstimator>(
      [probe] { return probe->CurrentCardinalityEstimate(); },
      OnceContribution(join_type_));
}

void GraceHashJoinOp::EnlistInPipeline(
    std::shared_ptr<PipelineJoinEstimator> pipeline, size_t index,
    bool is_lowest) {
  QPI_CHECK(once_ == nullptr);
  pipeline_ = std::move(pipeline);
  pipeline_index_ = index;
  pipeline_lowest_ = is_lowest;
}

GraceHashJoinOp::~GraceHashJoinOp() {
  // Destruction without Close (error paths): flag the abort before
  // waiting the task group (its Wait helps the fleet drain), so the
  // remaining members (partitions included) die only after every
  // partition subtask has exited.
  join_abort_.store(true, std::memory_order_relaxed);
  join_group_.reset();
}

Status GraceHashJoinOp::OpenImpl() {
  size_t requested = ctx_->hash_join_partitions;
  if (requested == 0) {
    return Status::InvalidArgument(
        "hash_join_partitions must be >= 1 (got 0)");
  }
  // Normalize to the next power of two: the partition index becomes a mask
  // over the mixed key hash, and the parallel join phase fans out one task
  // per partition.
  num_partitions_ = NextPowerOfTwo(requested);
  build_parts_.assign(num_partitions_, {});
  probe_parts_.assign(num_partitions_, {});
  null_build_row_.assign(build_child()->schema().num_columns(), Value::Null());
  return Status::OK();
}

void GraceHashJoinOp::RunBuildPhase() {
  RowBatch batch(ctx_ != nullptr ? ctx_->batch_size
                                 : RowBatch::kDefaultCapacity);
  std::vector<uint64_t> keys;
  keys.reserve(batch.capacity());
  while (build_child()->NextBatch(&batch)) {
    size_t n = batch.size();
    keys.clear();
    for (size_t i = 0; i < n; ++i) keys.push_back(BuildKeyCode(batch.row(i)));
    if (once_ != nullptr) {
      for (size_t i = 0; i < n; ++i) once_->ObserveBuildKey(keys[i]);
    }
    if (pipeline_ != nullptr) {
      for (size_t i = 0; i < n; ++i) {
        pipeline_->ObserveBuildRow(pipeline_index_, batch.row(i));
      }
    }
    for (size_t i = 0; i < n; ++i) {
      size_t part = PartitionMix(keys[i]) & (num_partitions_ - 1);
      build_parts_[part].push_back(std::move(batch.row(i)));
    }
    build_rows_ += n;
  }
  if (once_ != nullptr) once_->BuildComplete();
  if (pipeline_ != nullptr) pipeline_->BuildComplete(pipeline_index_);
}

void GraceHashJoinOp::RunProbePartitionPhase() {
  RowBatch batch(ctx_ != nullptr ? ctx_->batch_size
                                 : RowBatch::kDefaultCapacity);
  std::vector<uint64_t> keys;
  keys.reserve(batch.capacity());
  bool feed_pipeline = pipeline_ != nullptr && pipeline_lowest_;
  while (probe_child()->NextBatch(&batch)) {
    size_t n = batch.size();
    keys.clear();
    for (size_t i = 0; i < n; ++i) keys.push_back(ProbeKeyCode(batch.row(i)));
    probe_partition_consumed_ += n;

    // The estimation window: refine while the probe stream is still a
    // random prefix, freeze the moment it stops being one (Section 4.4).
    // The batch's random_run marks that boundary per tuple.
    size_t run = static_cast<size_t>(batch.random_run());
    if (run > n) run = n;
    if (once_ != nullptr && !once_->frozen()) {
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
      size_t part = PartitionMix(keys[i]) & (num_partitions_ - 1);
      probe_parts_[part].push_back(std::move(batch.row(i)));
    }
  }
  if (once_ != nullptr) once_->ProbeComplete();
  if (feed_pipeline) pipeline_->DriverComplete();
}

void GraceHashJoinOp::PreparePartitions() {
  if (phase_ != Phase::kInit) return;
  RunBuildPhase();
  RunProbePartitionPhase();
  phase_ = Phase::kJoin;
}

void GraceHashJoinOp::StartParallelJoin() {
  parallel_join_ = true;
  join_abort_.store(false, std::memory_order_relaxed);
  part_results_.clear();
  part_results_.resize(num_partitions_);
  // In-flight memory is bounded by the submission window, like the morsel
  // driver's: at most ~2·workers+2 partitions run ahead of the merge
  // cursor, and the merge drains each partition's batches while it is
  // still producing, so even a skew-heavy partition streams through
  // rather than materializing its whole output.
  join_window_ = std::min(2 * ctx_->exec_workers + 2, num_partitions_);
  join_submitted_ = 0;
  join_emit_part_ = 0;
  join_merge_batch_ = RowBatch(0);
  join_emit_row_ = 0;
  spare_batches_.reserve(join_window_ * kJoinReadyCap);
  join_sched_ = ctx_->scheduler();
  join_group_ = std::make_unique<TaskGroup>(join_sched_, ctx_->sched_tag());
  SubmitJoinUpTo(join_window_);
}

void GraceHashJoinOp::SubmitJoinUpTo(size_t limit) {
  limit = std::min(limit, num_partitions_);
  while (join_submitted_ < limit) {
    size_t p = join_submitted_++;
    join_group_->Submit([this, p] { JoinPartitionTask(p); });
  }
}

void GraceHashJoinOp::JoinPartitionTask(size_t part) {
  // Claimed-bail entry: every submission (initial window fill, driver
  // requeue after a stall, helping thread racing a worker) funnels through
  // here, and only one claims the partition — duplicates see a state other
  // than kQueued and return immediately.
  {
    std::lock_guard<std::mutex> lock(join_mu_);
    PartitionResult& result = part_results_[part];
    if (result.state != PartitionResult::State::kQueued) return;
    result.state = PartitionResult::State::kRunning;
    // A first chunk starts on a recycled batch (a resumed one already has
    // its in-progress batch).
    if (result.partial.capacity() != ctx_->batch_size) {
      TakeSpareLocked(&result.partial);
    }
  }
  RunJoinChunk(part);
}

void GraceHashJoinOp::TakeSpareLocked(RowBatch* batch) {
  if (spare_batches_.empty()) return;
  *batch = std::move(spare_batches_.back());
  spare_batches_.pop_back();
}

void GraceHashJoinOp::RecycleLocked(RowBatch* batch) {
  if (batch->capacity() != ctx_->batch_size ||
      spare_batches_.size() >= join_window_ * kJoinReadyCap) {
    return;
  }
  batch->Clear();
  spare_batches_.push_back(std::move(*batch));
}

void GraceHashJoinOp::RunJoinChunk(size_t part) {
  PartitionResult& result = part_results_[part];
  const std::vector<Row>& build_rows = build_parts_[part];
  const std::vector<Row>& probe_rows = probe_parts_[part];
  size_t batch_rows = ctx_->batch_size;
  // Resume the in-progress output batch saved by the previous chunk (or
  // the recycled one the claim took); allocate only when the pool was
  // empty and `partial` is still the capacity-1 placeholder.
  RowBatch batch = std::move(result.partial);
  if (batch.capacity() != batch_rows) batch = RowBatch(batch_rows);
  uint64_t local_consumed = 0;
  // Set by flush when `ready` reaches the cap; checked between probe rows
  // so the chunk pauses instead of materializing an unbounded backlog.
  bool at_cap = false;

  // Flush emitted-count and driver-consumption *before* publishing the
  // batch, so a monitor never sees more output than accounted input.
  // Publication is a bounded-time push under join_mu_ — never a wait on
  // the consumer — which keeps the subtask-never-blocks contract the
  // fleet's helping protocol relies on, while letting the merge drain
  // this partition concurrently with its production. The same critical
  // section takes the next batch from the pool; a new one is allocated
  // only when the pool is empty.
  auto flush = [&] {
    CountEmitted(batch.size());
    join_driver_consumed_.fetch_add(local_consumed, std::memory_order_relaxed);
    local_consumed = 0;
    {
      std::lock_guard<std::mutex> lock(join_mu_);
      result.ready.push_back(std::move(batch));
      at_cap = result.ready.size() >= kJoinReadyCap;
      TakeSpareLocked(&batch);
    }
    // The merge driver is the only join_cv_ waiter.
    join_cv_.notify_one();
    if (batch.capacity() == 0) batch = RowBatch(batch_rows);
  };
  // Commit the slot just filled in place; publish the batch once full.
  auto commit = [&] {
    batch.CommitSlot();
    if (batch.full()) flush();
  };

  bool aborted =
      join_abort_.load(std::memory_order_relaxed) || ctx_->IsCancelled();
  if (!aborted) {
    if (!result.table_built) {
      result.table.reserve(build_rows.size());
      for (size_t i = 0; i < build_rows.size(); ++i) {
        result.table[BuildKeyCode(build_rows[i])].push_back(i);
      }
      result.table_built = true;
    }
    const auto& table = result.table;
    for (size_t pi = result.resume_pi; pi < probe_rows.size(); ++pi) {
      if (at_cap) {
        // Re-check under the lock — the merge driver may have drained the
        // queue since the flush that tripped the cap, in which case the
        // chunk keeps producing instead of paying a stall round-trip.
        {
          std::lock_guard<std::mutex> lock(join_mu_);
          if (result.ready.size() < kJoinReadyCap) at_cap = false;
        }
        if (at_cap) {
          // Pause: hand the resume point and the partial batch back to
          // the partition slot, *then* publish kStalled — the next runner
          // only reads the resume state after observing kQueued under
          // join_mu_, so the mutex chain orders the handoff.
          if (local_consumed != 0) {
            join_driver_consumed_.fetch_add(local_consumed,
                                            std::memory_order_relaxed);
          }
          result.resume_pi = pi;
          result.partial = std::move(batch);
          {
            std::lock_guard<std::mutex> lock(join_mu_);
            result.state = PartitionResult::State::kStalled;
          }
          join_cv_.notify_one();
          return;
        }
      }
      if ((pi & 1023u) == 0 &&
          (join_abort_.load(std::memory_order_relaxed) ||
           ctx_->IsCancelled())) {
        break;
      }
      const Row& probe_row = probe_rows[pi];
      ++local_consumed;
      auto it = table.find(ProbeKeyCode(probe_row));
      bool matched = false;
      if (it != table.end()) {
        for (size_t idx : it->second) {
          if (KeysEqual(build_rows[idx], probe_row)) {
            matched = true;
            break;
          }
        }
      }
      if (join_type_ == JoinFlavor::kSemi || join_type_ == JoinFlavor::kAnti) {
        if (matched == (join_type_ == JoinFlavor::kSemi)) {
          *batch.NextSlot() = probe_row;
          commit();
        }
        continue;
      }
      if (!matched) {
        if (join_type_ == JoinFlavor::kProbeOuter) {
          AssignConcat(batch.NextSlot(), null_build_row_, probe_row);
          commit();
        }
        continue;
      }
      for (size_t idx : it->second) {
        const Row& build_row = build_rows[idx];
        if (!KeysEqual(build_row, probe_row)) continue;  // code collision
        AssignConcat(batch.NextSlot(), build_row, probe_row);
        commit();
      }
    }
  }
  // Publish the tail batch without taking a successor; an unused (empty)
  // batch goes back to the pool.
  CountEmitted(batch.size());
  if (local_consumed != 0) {
    join_driver_consumed_.fetch_add(local_consumed, std::memory_order_relaxed);
  }
  {
    std::lock_guard<std::mutex> lock(join_mu_);
    if (batch.empty()) {
      RecycleLocked(&batch);
    } else {
      result.ready.push_back(std::move(batch));
    }
    result.state = PartitionResult::State::kDone;
    // The hash table is dead weight once the partition is exhausted.
    std::unordered_map<uint64_t, std::vector<size_t>>().swap(result.table);
  }
  join_cv_.notify_one();
}

void GraceHashJoinOp::NextBatchImpl(RowBatch* out) {
  PreparePartitions();
  if (phase_ != Phase::kJoin) return;
  // Launch the parallel join on the first batch request (also after an
  // explicit PreparePartitions).
  if (!parallel_join_ && ctx_ != nullptr && ctx_->exec_workers > 1) {
    StartParallelJoin();
  }
  if (parallel_join_) {
    // Merge published batches in partition-index order — each drained as
    // soon as its producer publishes it, so in-flight output stays near
    // one batch per running subtask. The subtasks already advanced
    // `emitted_` when they flushed, so the merge must not count again.
    // The wrapper's Tick(out->size()) still delivers the progress ticks
    // for these rows on the driving thread. Rows are swapped into `out`'s
    // slots, so the consumer's old row storage goes back to the pool with
    // the drained batch and no row is freed here.
    while (!out->full()) {
      while (join_emit_row_ < join_merge_batch_.size() && !out->full()) {
        std::swap(*out->NextSlot(), join_merge_batch_.row(join_emit_row_++));
        out->CommitSlot();
      }
      if (out->full()) break;
      if (join_emit_part_ >= num_partitions_) {
        phase_ = Phase::kDone;
        break;
      }
      PartitionResult& r = part_results_[join_emit_part_];
      enum class Next { kBatch, kAdvance, kWait } next;
      bool requeue = false;  // stalled runner drained below the cap
      // The merge batch is fully drained here. It is released after the
      // lock if the pool has no room for it.
      RowBatch drained = std::move(join_merge_batch_);
      {
        std::lock_guard<std::mutex> lock(join_mu_);
        RecycleLocked(&drained);
        if (!r.ready.empty()) {
          join_merge_batch_ = std::move(r.ready.front());
          r.ready.pop_front();
          join_emit_row_ = 0;
          next = Next::kBatch;
          if (r.state == PartitionResult::State::kStalled &&
              r.ready.size() < kJoinReadyCap) {
            r.state = PartitionResult::State::kQueued;
            requeue = true;
          }
        } else if (r.state == PartitionResult::State::kDone) {
          next = Next::kAdvance;
        } else {
          if (r.state == PartitionResult::State::kStalled) {
            r.state = PartitionResult::State::kQueued;
            requeue = true;
          }
          next = Next::kWait;
        }
      }
      if (requeue) {
        size_t p = join_emit_part_;
        join_group_->Submit([this, p] { JoinPartitionTask(p); });
      }
      if (next == Next::kBatch) continue;
      if (next == Next::kAdvance) {
        ++join_emit_part_;
        SubmitJoinUpTo(join_emit_part_ + join_window_);
        continue;
      }
      // Wait for the next batch by helping the fleet (same protocol as
      // the morsel merge): run pending subtasks instead of parking, with
      // a timed wait only for the instant where the needed partition is
      // mid-production elsewhere and nothing else is runnable.
      if (join_sched_->HelpOneSubtask()) continue;
      {
        std::unique_lock<std::mutex> lock(join_mu_);
        if (r.ready.empty() && r.state != PartitionResult::State::kDone) {
          join_cv_.wait_for(lock, std::chrono::milliseconds(2));
        }
      }
    }
    return;
  }
  while (!out->full()) {
    Row* slot = out->NextSlot();
    if (!AdvanceJoin(slot)) {
      phase_ = Phase::kDone;
      break;
    }
    out->CommitSlot();
  }
  CountEmitted(out->size());
}

bool GraceHashJoinOp::AdvanceJoin(Row* out) {
  while (current_part_ < num_partitions_) {
    const std::vector<Row>& build_rows = build_parts_[current_part_];
    const std::vector<Row>& probe_rows = probe_parts_[current_part_];
    if (!part_table_built_) {
      part_table_.clear();
      for (size_t i = 0; i < build_rows.size(); ++i) {
        part_table_[BuildKeyCode(build_rows[i])].push_back(i);
      }
      probe_row_idx_ = 0;
      current_matches_ = nullptr;
      part_table_built_ = true;
    }
    while (probe_row_idx_ < probe_rows.size()) {
      const Row& probe_row = probe_rows[probe_row_idx_];
      if (current_matches_ == nullptr) {
        join_driver_consumed_.fetch_add(1, std::memory_order_relaxed);
        uint64_t key = ProbeKeyCode(probe_row);
        auto it = part_table_.find(key);
        // Verify actual key equality on the candidate bucket: composite and
        // string keys are matched by 64-bit code first, values second.
        bool matched = false;
        if (it != part_table_.end()) {
          for (size_t idx : it->second) {
            if (KeysEqual(build_rows[idx], probe_row)) {
              matched = true;
              break;
            }
          }
        }
        if (join_type_ == JoinFlavor::kSemi ||
            join_type_ == JoinFlavor::kAnti) {
          bool emit = matched == (join_type_ == JoinFlavor::kSemi);
          ++probe_row_idx_;
          if (emit) {
            *out = probe_row;
            return true;
          }
          continue;
        }
        if (!matched) {
          ++probe_row_idx_;
          if (join_type_ == JoinFlavor::kProbeOuter) {
            // NULL-pad the build side of the unmatched probe row.
            AssignConcat(out, null_build_row_, probe_row);
            return true;
          }
          continue;
        }
        current_matches_ = &it->second;
        match_idx_ = 0;
      }
      while (match_idx_ < current_matches_->size()) {
        const Row& build_row = build_rows[(*current_matches_)[match_idx_]];
        ++match_idx_;
        if (!KeysEqual(build_row, probe_row)) continue;  // code collision
        AssignConcat(out, build_row, probe_row);
        return true;
      }
      current_matches_ = nullptr;
      ++probe_row_idx_;
    }
    ++current_part_;
    part_table_built_ = false;
  }
  return false;
}

void GraceHashJoinOp::CloseImpl() {
  // Tear down the parallel join phase first: the abort flag makes still-
  // queued partition subtasks exit at their next check, and resetting the
  // group waits (helping the fleet) for every subtask before the
  // partitions they read are cleared.
  join_abort_.store(true, std::memory_order_relaxed);
  join_group_.reset();
  join_sched_ = nullptr;
  part_results_.clear();
  parallel_join_ = false;
  join_window_ = 0;
  join_submitted_ = 0;
  join_emit_part_ = 0;
  join_merge_batch_ = RowBatch(0);
  join_emit_row_ = 0;
  spare_batches_.clear();
  build_parts_.clear();
  probe_parts_.clear();
  part_table_.clear();
}

double GraceHashJoinOp::DneEstimate() const {
  if (state() == OpState::kFinished) {
    return static_cast<double>(tuples_emitted());
  }
  DneEstimator dne(optimizer_estimate());
  dne.Update(join_driver_consumed(), tuples_emitted());
  return dne.Estimate(static_cast<double>(probe_partition_consumed_));
}

double GraceHashJoinOp::ByteEstimate() const {
  if (state() == OpState::kFinished) {
    return static_cast<double>(tuples_emitted());
  }
  ByteEstimator byte(optimizer_estimate());
  byte.Update(join_driver_consumed(), tuples_emitted());
  return byte.Estimate(static_cast<double>(probe_partition_consumed_));
}

double GraceHashJoinOp::OnceEstimate() const {
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
  // No preprocessing-phase estimator applies: default to dne (paper
  // Sections 4.1.3 / 4.3).
  return DneEstimate();
}

double GraceHashJoinOp::CardinalityEstimate(EstimationMode mode) const {
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

double GraceHashJoinOp::CurrentCardinalityHalfWidth(double confidence) const {
  if (state() == OpState::kFinished) return 0.0;
  if (!OnceMode()) return 0.0;
  if (pipeline_ != nullptr && pipeline_->Resolved(pipeline_index_) &&
      pipeline_->driver_rows_seen() > 0) {
    return pipeline_->ConfidenceHalfWidth(pipeline_index_, confidence);
  }
  if (once_ != nullptr && once_->probe_tuples_seen() > 0) {
    return once_->ConfidenceHalfWidth(confidence);
  }
  return 0.0;
}

bool GraceHashJoinOp::CardinalityExact() const {
  if (state() == OpState::kFinished) return true;
  if (!OnceMode()) return false;
  if (pipeline_ != nullptr && pipeline_->Resolved(pipeline_index_)) {
    return pipeline_->Exact();
  }
  return once_ != nullptr && once_->Exact();
}

size_t GraceHashJoinOp::EstimationBytesUsed() const {
  if (once_ != nullptr) return once_->build_histogram().UsedBytes();
  if (pipeline_ != nullptr && pipeline_lowest_) {
    return pipeline_->HistogramBytesUsed();
  }
  return 0;
}

}  // namespace qpi
