#include "exec/grace_hash_join.h"

#include <algorithm>
#include <bit>
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

// Target size of one partition chunk, in Values (32 KiB).
constexpr size_t kChunkValues = (size_t{32} << 10) / sizeof(Value);

}  // namespace

GraceHashJoinOp::Partition::Partition(size_t width)
    : width_(width), chunks_(1) {
  const size_t rows = std::bit_floor(std::max<size_t>(1, kChunkValues / width));
  shift_ = static_cast<unsigned>(std::countr_zero(rows));
  mask_ = rows - 1;
}

void GraceHashJoinOp::Partition::Append(const Row& row, uint64_t code) {
  QPI_DCHECK(row.size() == width_);
  if (!codes_.empty() && (codes_.size() & mask_) == 0) {
    chunks_.emplace_back().reserve((mask_ + 1) * width_);
  }
  std::vector<Value>& chunk = chunks_.back();
  chunk.insert(chunk.end(), row.begin(), row.end());
  codes_.push_back(code);
}

void GraceHashJoinOp::JoinTable::Build(const Partition& rows) {
  const size_t n = rows.size();
  QPI_CHECK(n < kNoRow);  // build-row positions are uint32_t
  const size_t buckets = std::bit_ceil(std::max<size_t>(n, 2));
  shift = 64 - static_cast<unsigned>(std::countr_zero(buckets));
  head.assign(buckets, kNoRow);
  next.resize(n);
  for (size_t i = n; i-- > 0;) {
    uint32_t& first = head[Bucket(rows.code(i))];
    next[i] = first;
    first = static_cast<uint32_t>(i);
  }
}

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

bool GraceHashJoinOp::KeysEqual(const Value* build_row,
                                const Value* probe_row) const {
  for (size_t i = 0; i < build_key_indices_.size(); ++i) {
    const Value& b = build_row[build_key_indices_[i]];
    const Value& p = probe_row[probe_key_indices_[i]];
    // A string never equals a number, even one equal to its key code
    // (Compare is only defined within those two kinds).
    if ((b.type() == ValueType::kString) != (p.type() == ValueType::kString) ||
        b.Compare(p) != 0) {
      return false;
    }
  }
  return true;
}

void GraceHashJoinOp::EnableBinaryOnceEstimation() {
  QPI_CHECK(pipeline_ == nullptr);
  Operator* probe = probe_child();
  once_ = std::make_unique<OnceBinaryJoinEstimator>(
      [probe] { return probe->CurrentCardinalityEstimate(); }, join_type_);
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
  // join-unit subtask has exited.
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
  // over the mixed key hash.
  num_partitions_ = std::bit_ceil(requested);
  build_parts_.assign(num_partitions_,
                      Partition(build_child()->schema().num_columns()));
  probe_parts_.assign(num_partitions_,
                      Partition(probe_child()->schema().num_columns()));
  null_build_row_.assign(build_child()->schema().num_columns(), Value::Null());
  return Status::OK();
}

void GraceHashJoinOp::RunBuildPhase() {
  RowBatch batch(ctx_->batch_size);
  std::vector<uint64_t> keys;
  keys.reserve(batch.capacity());
  while (build_child()->NextBatch(&batch)) {
    size_t n = batch.size();
    keys.clear();
    for (size_t i = 0; i < n; ++i) {
      keys.push_back(RowKeyCode(batch.row(i), build_key_indices_));
    }
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
      build_parts_[part].Append(batch.row(i), keys[i]);
    }
  }
  if (once_ != nullptr) once_->BuildComplete();
  if (pipeline_ != nullptr) pipeline_->BuildComplete(pipeline_index_);
}

void GraceHashJoinOp::RunProbePartitionPhase() {
  RowBatch batch(ctx_->batch_size);
  std::vector<uint64_t> keys;
  keys.reserve(batch.capacity());
  bool feed_pipeline = pipeline_ != nullptr && pipeline_lowest_;
  // Weigh partitions for the parallel join's unit sizing. N^R is read
  // from the exact build histogram, so the weight is exact even if
  // estimation freezes, and ONCE's own probe-side state is untouched.
  const HashHistogram* weigh = nullptr;
  if (ctx_->exec_workers > 1 && once_ != nullptr) {
    weigh = &once_->build_histogram();
    part_weight_.assign(num_partitions_, 0);
  }
  while (probe_child()->NextBatch(&batch)) {
    size_t n = batch.size();
    keys.clear();
    for (size_t i = 0; i < n; ++i) {
      keys.push_back(RowKeyCode(batch.row(i), probe_key_indices_));
    }
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
      probe_parts_[part].Append(batch.row(i), keys[i]);
      if (weigh != nullptr) part_weight_[part] += 1 + weigh->Count(keys[i]);
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
  // Cut each partition into equal probe-row ranges whose estimated output
  // is about half a unit's ready budget, so a unit running ahead of the
  // merge cursor finishes without stalling. Empty partitions emit nothing
  // for any flavor and get no unit.
  const uint64_t target =
      std::max(kJoinReadyCap * ctx_->batch_size / 2, kMinJoinUnitWeight);
  part_tables_ = std::vector<SharedTable>(num_partitions_);
  size_t num_units = 0;
  for (size_t p = 0; p < num_partitions_; ++p) {
    const size_t rows = probe_parts_[p].size();
    const uint64_t weight = part_weight_.empty() ? rows : part_weight_[p];
    const size_t ranges = static_cast<size_t>(
        std::min<uint64_t>(rows, (weight + target - 1) / target));
    part_tables_[p].units_left = ranges;
    num_units += ranges;
  }
  join_units_ = std::vector<JoinUnit>(num_units);
  size_t u = 0;
  for (size_t p = 0; p < num_partitions_; ++p) {
    const size_t rows = probe_parts_[p].size();
    const size_t ranges = part_tables_[p].units_left;
    for (size_t r = 0; r < ranges; ++r, ++u) {
      JoinUnit& unit = join_units_[u];
      unit.part = p;
      unit.cursor.shared = &part_tables_[p];
      unit.cursor.probe_row = rows * r / ranges;
      unit.cursor.probe_end = rows * (r + 1) / ranges;
    }
  }
  // In-flight memory is bounded by the submission window, like the morsel
  // driver's: at most ~2·workers+2 units run ahead of the merge cursor,
  // and the merge drains each unit's batches while it is still
  // producing, so even a probe row with a huge bucket streams through
  // rather than materializing its whole output.
  join_window_ = std::min(2 * ctx_->exec_workers + 2, join_units_.size());
  join_submitted_ = 0;
  join_emit_unit_ = 0;
  join_merge_batch_ = RowBatch(0);
  join_emit_row_ = 0;
  spare_batches_.reserve(join_window_ * kJoinReadyCap);
  join_sched_ = ctx_->scheduler();
  join_group_ = std::make_unique<TaskGroup>(join_sched_, ctx_->sched_tag());
  SubmitJoinUpTo(join_window_);
}

void GraceHashJoinOp::SubmitJoinUpTo(size_t limit) {
  limit = std::min(limit, join_units_.size());
  while (join_submitted_ < limit) {
    size_t u = join_submitted_++;
    join_group_->Submit([this, u] { JoinUnitTask(u); });
  }
}

void GraceHashJoinOp::JoinUnitTask(size_t unit) {
  // Claimed-bail entry: every submission (initial window fill, driver
  // requeue after a stall, helping thread racing a worker) funnels through
  // here, and only one claims the unit — duplicates see a state other
  // than kQueued and return immediately. The claim takes the chunk's first
  // batch from the pool.
  RowBatch batch(0);
  {
    std::lock_guard<std::mutex> lock(join_mu_);
    JoinUnit& u = join_units_[unit];
    if (u.state != JoinUnit::State::kQueued) return;
    u.state = JoinUnit::State::kRunning;
    TakeSpareLocked(&batch);
  }
  RunJoinChunk(unit, std::move(batch));
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

void GraceHashJoinOp::RunJoinChunk(size_t unit, RowBatch batch) {
  JoinUnit& result = join_units_[unit];
  while (true) {
    // Allocate only when the pool had no batch to give.
    if (batch.capacity() != ctx_->batch_size) {
      batch = RowBatch(ctx_->batch_size);
    }
    uint64_t consumed = JoinPartitionInto(result.part, &result.cursor, &batch);
    bool done = result.cursor.done;
    // The shared table is dead weight once its partition's last unit is
    // done; that unit frees it.
    if (done && result.cursor.shared->units_left.fetch_sub(1) == 1) {
      result.cursor.shared->table = JoinTable();
    }
    // Count emitted rows and driver consumption *before* publishing the
    // batch, so a monitor never sees more output than accounted input.
    // Publication is a bounded-time push under join_mu_ — never a wait on
    // the consumer — which keeps the subtask-never-blocks contract the
    // fleet's helping protocol relies on, while letting the merge drain
    // this unit concurrently with its production. The same critical
    // section decides whether to stall and, if not, takes the next batch
    // from the pool. A kernel call ends on a full batch unless the
    // unit is done, so only a done unit publishes a partial one (or
    // recycles an empty one).
    CountEmitted(batch.size());
    join_driver_consumed_.fetch_add(consumed, std::memory_order_relaxed);
    bool stalled = false;
    {
      std::lock_guard<std::mutex> lock(join_mu_);
      if (batch.empty()) {
        RecycleLocked(&batch);
      } else {
        result.ready.push_back(std::move(batch));
      }
      if (done) {
        result.state = JoinUnit::State::kDone;
      } else if (result.ready.size() >= kJoinReadyCap) {
        result.state = JoinUnit::State::kStalled;
        stalled = true;
      } else {
        TakeSpareLocked(&batch);
      }
    }
    // The merge driver is the only join_cv_ waiter.
    join_cv_.notify_one();
    if (done || stalled) return;
  }
}

uint64_t GraceHashJoinOp::JoinPartitionInto(size_t part,
                                            PartitionCursor* cursor,
                                            RowBatch* out) {
  const Partition& build = build_parts_[part];
  const Partition& probe = probe_parts_[part];
  JoinTable& table =
      cursor->shared != nullptr ? cursor->shared->table : cursor->table;
  const size_t probe_end = std::min(cursor->probe_end, probe.size());
  const bool probe_only =
      join_type_ == JoinFlavor::kSemi || join_type_ == JoinFlavor::kAnti;
  auto stopped = [this] {
    return join_abort_.load(std::memory_order_relaxed) || ctx_->IsCancelled();
  };
  // Checked once per call (one output batch), so a hot bucket cannot run
  // on unchecked.
  if (stopped()) {
    cursor->done = true;
    return 0;
  }
  uint64_t consumed = 0;
  while (!out->full()) {
    size_t pi = cursor->probe_row;
    if (pi == probe_end) {
      cursor->done = true;
      break;
    }
    const std::span<const Value> probe_row = probe.row(pi);
    const uint64_t code = probe.code(pi);
    // A chain holds every build row of its bucket: compare the stored
    // codes first, then the values, since composite and string keys can
    // share a code.
    auto matches = [&](uint32_t b) {
      return build.code(b) == code &&
             KeysEqual(build.row(b).data(), probe_row.data());
    };
    if (cursor->match == kNoRow) {
      // A fresh probe row: consume it. The per-row cadence covers long
      // semi/anti runs that fill a batch slowly.
      if ((pi & 1023u) == 0 && stopped()) {
        cursor->done = true;
        break;
      }
      if (!cursor->table_built) {
        if (cursor->shared != nullptr) {
          std::call_once(cursor->shared->once, [&] { table.Build(build); });
        } else {
          table.Build(build);
        }
        cursor->table_built = true;
      }
      ++consumed;
      uint32_t first = table.head[table.Bucket(code)];
      while (first != kNoRow && !matches(first)) first = table.next[first];
      if (probe_only || first == kNoRow) {
        ++cursor->probe_row;
        if (probe_only) {
          if ((first != kNoRow) == (join_type_ == JoinFlavor::kSemi)) {
            out->NextSlot()->assign(probe_row.begin(), probe_row.end());
            out->CommitSlot();
          }
        } else if (join_type_ == JoinFlavor::kProbeOuter) {
          // NULL-pad the build side of the unmatched probe row.
          AssignConcat(out->NextSlot(), null_build_row_, probe_row);
          out->CommitSlot();
        }
        continue;
      }
      cursor->match = first;
    }
    // Emit the rest of the chain from the cursor; a call that stops on a
    // full batch resumes here.
    while (cursor->match != kNoRow && !out->full()) {
      const uint32_t b = cursor->match;
      cursor->match = table.next[b];
      if (!matches(b)) continue;  // another key in this bucket
      AssignConcat(out->NextSlot(), build.row(b), probe_row);
      out->CommitSlot();
    }
    if (cursor->match == kNoRow) ++cursor->probe_row;
  }
  return consumed;
}

void GraceHashJoinOp::NextBatchImpl(RowBatch* out) {
  PreparePartitions();
  if (phase_ != Phase::kJoin) return;
  // Launch the parallel join on the first batch request (also after an
  // explicit PreparePartitions).
  if (!parallel_join_ && ctx_->exec_workers > 1) StartParallelJoin();
  if (parallel_join_) {
    // Merge published batches in unit order — each drained as soon as
    // its producer publishes it, so in-flight output stays near one batch
    // per running subtask. The subtasks already advanced `emitted_` when
    // they flushed, so the merge must not count again. The wrapper's
    // Tick(out->size()) still delivers the progress ticks for these rows
    // on the driving thread. Rows are swapped into `out`'s slots, so the
    // consumer's old row storage goes back to the pool with the drained
    // batch and no row is freed here.
    while (!out->full()) {
      while (join_emit_row_ < join_merge_batch_.size() && !out->full()) {
        std::swap(*out->NextSlot(), join_merge_batch_.row(join_emit_row_++));
        out->CommitSlot();
      }
      if (out->full()) break;
      if (join_emit_unit_ >= join_units_.size()) {
        phase_ = Phase::kDone;
        break;
      }
      JoinUnit& r = join_units_[join_emit_unit_];
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
          if (r.state == JoinUnit::State::kStalled &&
              r.ready.size() < kJoinReadyCap) {
            r.state = JoinUnit::State::kQueued;
            requeue = true;
          }
        } else if (r.state == JoinUnit::State::kDone) {
          next = Next::kAdvance;
        } else {
          if (r.state == JoinUnit::State::kStalled) {
            r.state = JoinUnit::State::kQueued;
            requeue = true;
          }
          next = Next::kWait;
        }
      }
      if (requeue) {
        size_t u = join_emit_unit_;
        join_group_->Submit([this, u] { JoinUnitTask(u); });
      }
      if (next == Next::kBatch) continue;
      if (next == Next::kAdvance) {
        ++join_emit_unit_;
        SubmitJoinUpTo(join_emit_unit_ + join_window_);
        continue;
      }
      // Wait for the unit's next batch by helping the fleet, like the
      // morsel merge. A runner only stalls with batches ready, so "ready
      // or done" covers every way the unit can move on.
      join_sched_->HelpUntil(join_mu_, join_cv_, [&r] {
        return !r.ready.empty() || r.state == JoinUnit::State::kDone;
      });
    }
    return;
  }
  // Sequential join: the kernel fills `out` straight from the cursor, in
  // partition order, and the batch's probe consumption is published once.
  uint64_t consumed = 0;
  while (!out->full() && join_emit_part_ < num_partitions_) {
    consumed += JoinPartitionInto(join_emit_part_, &join_cursor_, out);
    if (join_cursor_.done) {
      ++join_emit_part_;
      join_cursor_ = PartitionCursor();
    }
  }
  if (join_emit_part_ == num_partitions_) phase_ = Phase::kDone;
  join_driver_consumed_.fetch_add(consumed, std::memory_order_relaxed);
  CountEmitted(out->size());
}

void GraceHashJoinOp::CloseImpl() {
  // Tear down the parallel join phase first: the abort flag makes still-
  // queued unit subtasks exit at their next check, and resetting the
  // group waits (helping the fleet) for every subtask before the
  // partitions and tables they read are cleared.
  join_abort_.store(true, std::memory_order_relaxed);
  join_group_.reset();
  join_sched_ = nullptr;
  join_units_.clear();
  part_tables_.clear();
  part_weight_.clear();
  parallel_join_ = false;
  join_window_ = 0;
  join_submitted_ = 0;
  join_emit_unit_ = 0;
  join_emit_part_ = 0;
  join_merge_batch_ = RowBatch(0);
  join_emit_row_ = 0;
  spare_batches_.clear();
  build_parts_.clear();
  probe_parts_.clear();
  join_cursor_ = PartitionCursor();
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
