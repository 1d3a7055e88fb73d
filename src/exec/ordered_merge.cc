#include "exec/ordered_merge.h"

#include <utility>

#include "common/check.h"
#include "common/task_scheduler.h"
#include "exec/exec_context.h"

namespace qpi {

OrderedMerge::OrderedMerge(size_t units, ExecContext* ctx,
                           Boundaries boundaries, size_t mark_width,
                           Producer produce, Deliver deliver)
    : ctx_(ctx),
      produce_(std::move(produce)),
      deliver_(std::move(deliver)),
      sched_(ctx->exec_workers > 1 ? ctx->scheduler() : nullptr),
      boundaries_(boundaries),
      mark_width_(mark_width),
      batch_size_(ctx->batch_size),
      window_(sched_ == nullptr ? 0
                                : std::min(2 * ctx->exec_workers + 2, units)),
      units_(units),
      slots_(window_) {
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

OrderedMerge::Produced OrderedMerge::TakeBatch() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!spare_.empty()) {
      Produced batch = std::move(spare_.back());
      spare_.pop_back();
      return batch;
    }
  }
  return Produced{RowBatch(batch_size_), {}};
}

void OrderedMerge::RecycleLocked(Produced* batch) {
  if (batch->rows.capacity() != batch_size_ ||
      spare_.size() >= window_ * kReadyCap) {
    return;
  }
  batch->rows.Clear();
  batch->marks.clear();
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
  Produced batch = TakeBatch();
  while (true) {
    // Allocate only when the pool had no batch to give.
    if (batch.rows.capacity() != batch_size_) {
      batch = Produced{RowBatch(batch_size_), {}};
    }
    batch.marks.clear();
    // Abort and cancellation are checked once per batch, so even a unit
    // with unbounded output stops within one batch.
    const bool done =
        abort_.load(std::memory_order_relaxed) || ctx_->IsCancelled() ||
        produce_(u, &batch.rows, mark_width_ == 0 ? nullptr : &batch.marks);
    // Publish, and in the same critical section decide whether to stall
    // and, if not, take the next batch from the pool. Only a done unit
    // publishes a partial batch (or recycles an empty one).
    bool stalled = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (batch.rows.empty()) {
        RecycleLocked(&batch);
      } else {
        unit.ready.push_back(std::move(batch));
      }
      if (done) {
        unit.state = Unit::State::kDone;
      } else if (unit.ready.size() >= kReadyCap) {
        unit.state = Unit::State::kStalled;
        stalled = true;
      } else if (!spare_.empty()) {
        batch = std::move(spare_.back());
        spare_.pop_back();
      }
    }
    cv_.notify_one();
    if (done || stalled) return;
  }
}

void OrderedMerge::DeliverPending(const uint64_t* mark) {
  deliver_(emit_unit_, pending_, false, mark_width_ == 0 ? nullptr : mark);
  pending_ = 0;
}

void OrderedMerge::Fill(RowBatch* out) {
  QPI_DCHECK(out->capacity() == batch_size_);
  if (group_ == nullptr) {  // inline: the producer fills `out` itself
    while (!out->full() && emit_unit_ < units_) {
      const size_t before = out->size();
      const bool passed =
          ctx_->IsCancelled() || produce_(emit_unit_, out, nullptr);
      deliver_(emit_unit_, out->size() - before, passed, nullptr);
      if (passed) ++emit_unit_;
    }
    return;
  }
  while (true) {
    // Move rows [emit_row_, end) of the merge batch, extending out's run
    // over those below the batch's random_run while the run is open.
    RowBatch& merging = merge_.rows;
    const size_t end = std::min(merging.size(),
                                emit_row_ + out->capacity() - out->size());
    uint64_t out_run = out->random_run();
    if (run_open_ && emit_row_ < end) {
      const size_t run = std::min<uint64_t>(merging.random_run(), end);
      if (run > emit_row_) out_run += run - emit_row_;
      run_open_ = run == end;
    }
    // A fresh batch that may end the consumer's batch goes out whole; the
    // consumer's empty batch takes its place as the drained merge batch.
    // Its last row's mark is the batch's last.
    if (out->empty() && emit_row_ == 0 && !merging.empty() &&
        (boundaries_ == Boundaries::kUnit || merging.full())) {
      std::swap(*out, merging);
      out->set_random_run(out_run);
      pending_ += out->size();
      DeliverPending(merge_.marks.data() + merge_.marks.size() - mark_width_);
      return;
    }
    out->set_random_run(out_run);
    pending_ += end - emit_row_;
    for (; emit_row_ < end; ++emit_row_) {
      std::swap(*out->NextSlot(), merging.row(emit_row_));
      out->CommitSlot();
    }
    if (out->full()) {
      DeliverPending(merge_.marks.data() + (emit_row_ - 1) * mark_width_);
      return;
    }
    if (emit_unit_ == units_) return;
    Unit& unit = slots_[emit_unit_ % window_];
    enum class Next { kBatch, kAdvance, kWait } next;
    bool requeue = false;  // a stalled runner drained below the cap
    // The merge batch is fully drained here; it goes back to the pool, or
    // is released after the lock if the pool has no room for it.
    Produced drained = std::move(merge_);
    emit_row_ = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      RecycleLocked(&drained);
      if (!unit.ready.empty()) {
        merge_ = std::move(unit.ready.front());
        unit.ready.erase(unit.ready.begin());
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
    if (next == Next::kAdvance) {
      // The unit's runner has finished: the producer's state is the point
      // of delivery.
      deliver_(emit_unit_, pending_, true, nullptr);
      pending_ = 0;
      ++emit_unit_;
      SubmitUpTo(emit_unit_ + window_);
      if (emit_unit_ == units_) {
        // Every unit is merged: free the pool now rather than at
        // destruction, which for a scan under a join waits until Close.
        std::lock_guard<std::mutex> lock(mu_);
        spare_ = std::vector<Produced>();
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
