#include "exec/ordered_merge.h"

#include <utility>

#include "common/check.h"
#include "common/task_scheduler.h"
#include "exec/exec_context.h"

namespace qpi {

OrderedMerge::OrderedMerge(size_t units, ExecContext* ctx,
                           Boundaries boundaries, Producer produce,
                           std::function<void()> all_done)
    : ctx_(ctx),
      produce_(std::move(produce)),
      all_done_(std::move(all_done)),
      sched_(ctx->exec_workers > 1 ? ctx->scheduler() : nullptr),
      boundaries_(boundaries),
      batch_size_(ctx->batch_size),
      window_(sched_ == nullptr ? 0
                                : std::min(2 * ctx->exec_workers + 2, units)),
      units_(units),
      slots_(window_) {
  if (units == 0 && all_done_) all_done_();
  if (sched_ == nullptr) return;  // inline mode
  spare_.reserve(window_ * kReadyCap);
  group_ = std::make_unique<TaskGroup>(sched_);
  SubmitUpTo(window_);
}

OrderedMerge::~OrderedMerge() {
  abort_.store(true, std::memory_order_relaxed);
  if (group_ != nullptr) group_->Wait();
}

void OrderedMerge::SubmitUpTo(size_t limit) {
  limit = std::min(limit, units_);
  while (submitted_ < limit) {
    // The slot's previous unit has been merged: nothing else touches it.
    size_t u = submitted_++;
    slots_[u % window_].state = Unit::State::kQueued;
    group_->Submit([this, u] { Run(u); });
  }
}

RowBatch OrderedMerge::TakeBatch() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!spare_.empty()) {
      RowBatch batch = std::move(spare_.back());
      spare_.pop_back();
      return batch;
    }
  }
  return RowBatch(batch_size_);
}

void OrderedMerge::RecycleLocked(RowBatch* batch) {
  if (batch->capacity() != batch_size_ ||
      spare_.size() >= window_ * kReadyCap) {
    return;
  }
  batch->Clear();
  spare_.push_back(std::move(*batch));
}

void OrderedMerge::Run(size_t u) {
  Unit& unit = slots_[u % window_];
  // Claimed-bail entry: only a submission that finds the unit queued runs
  // it; any other sees a claimed state and returns.
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (unit.state != Unit::State::kQueued) return;
    unit.state = Unit::State::kRunning;
  }
  RowBatch batch = TakeBatch();
  while (true) {
    // Allocate only when the pool had no batch to give.
    if (batch.capacity() != batch_size_) batch = RowBatch(batch_size_);
    // Abort and cancellation are checked once per batch, so even a unit
    // with unbounded output stops within one batch.
    const bool done = abort_.load(std::memory_order_relaxed) ||
                      ctx_->IsCancelled() || produce_(u, &batch);
    // Publish, and in the same critical section decide whether to stall
    // and, if not, take the next batch from the pool. Only a done unit
    // publishes a partial batch (or recycles an empty one).
    bool stalled = false;
    bool last = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (batch.empty()) {
        RecycleLocked(&batch);
      } else {
        unit.ready.push_back(std::move(batch));
      }
      if (done) {
        unit.state = Unit::State::kDone;
        last = ++units_done_ == units_;
      } else if (unit.ready.size() >= kReadyCap) {
        unit.state = Unit::State::kStalled;
        stalled = true;
      } else if (!spare_.empty()) {
        batch = std::move(spare_.back());
        spare_.pop_back();
      }
    }
    cv_.notify_one();
    if (last && all_done_) all_done_();
    if (done || stalled) return;
  }
}

void OrderedMerge::Fill(RowBatch* out) {
  QPI_DCHECK(out->capacity() == batch_size_);
  if (group_ == nullptr) {  // inline: the producer fills `out` itself
    while (!out->full() && emit_unit_ < units_) {
      if (ctx_->IsCancelled() || produce_(emit_unit_, out)) {
        if (++emit_unit_ == units_ && all_done_) all_done_();
      }
      ctx_->DeliverBankedTicks();
    }
    return;
  }
  while (!out->full()) {
    // Move rows [emit_row_, end) of the merge batch, extending out's run
    // over those below the batch's random_run while the run is open.
    const size_t end = std::min(merge_batch_.size(),
                                emit_row_ + out->capacity() - out->size());
    uint64_t out_run = out->random_run();
    if (run_open_ && emit_row_ < end) {
      const size_t run = std::min<uint64_t>(merge_batch_.random_run(), end);
      if (run > emit_row_) out_run += run - emit_row_;
      run_open_ = run == end;
    }
    // A fresh batch that may end the consumer's batch goes out whole; the
    // consumer's empty batch takes its place as the drained merge batch.
    if (out->empty() && emit_row_ == 0 && !merge_batch_.empty() &&
        (boundaries_ == Boundaries::kUnit || merge_batch_.full())) {
      std::swap(*out, merge_batch_);
      out->set_random_run(out_run);
      return;
    }
    out->set_random_run(out_run);
    for (; emit_row_ < end; ++emit_row_) {
      std::swap(*out->NextSlot(), merge_batch_.row(emit_row_));
      out->CommitSlot();
    }
    if (out->full() || emit_unit_ == units_) return;
    Unit& unit = slots_[emit_unit_ % window_];
    enum class Next { kBatch, kAdvance, kWait } next;
    bool requeue = false;  // a stalled runner drained below the cap
    // The merge batch is fully drained here; it goes back to the pool, or
    // is released after the lock if the pool has no room for it.
    RowBatch drained = std::move(merge_batch_);
    {
      std::lock_guard<std::mutex> lock(mu_);
      RecycleLocked(&drained);
      if (!unit.ready.empty()) {
        merge_batch_ = std::move(unit.ready.front());
        unit.ready.erase(unit.ready.begin());
        emit_row_ = 0;
        next = Next::kBatch;
      } else {
        next = unit.state == Unit::State::kDone ? Next::kAdvance : Next::kWait;
      }
      if (unit.state == Unit::State::kStalled &&
          unit.ready.size() < kReadyCap) {
        unit.state = Unit::State::kQueued;
        requeue = true;
      }
    }
    if (requeue) {
      const size_t u = emit_unit_;
      group_->Submit([this, u] { Run(u); });
    }
    if (next != Next::kWait) ctx_->DeliverBankedTicks();
    if (next == Next::kAdvance) {
      ++emit_unit_;
      SubmitUpTo(emit_unit_ + window_);
      if (emit_unit_ == units_) {
        // Every unit is merged: free the pool now rather than at
        // destruction, which for a scan under a join waits until Close.
        std::lock_guard<std::mutex> lock(mu_);
        spare_ = std::vector<RowBatch>();
      }
    } else if (next == Next::kWait) {
      // Wait by helping the fleet: drain pending subtasks (often this
      // unit's own) instead of parking. A runner only stalls with batches
      // ready, so "ready or done" covers every way the unit can move on.
      sched_->HelpUntil(mu_, cv_, [&unit] {
        return !unit.ready.empty() || unit.state == Unit::State::kDone;
      });
    }
  }
}

}  // namespace qpi
