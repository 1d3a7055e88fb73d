#include "exec/morsel_scan.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "common/task_scheduler.h"
#include "exec/exec_context.h"
#include "exec/filter.h"
#include "exec/operator.h"
#include "exec/seq_scan.h"
#include "storage/table.h"

namespace qpi {

MorselScanDriver::MorselScanDriver(SeqScanOp* scan,
                                   std::vector<MorselStage> stages,
                                   ExecContext* ctx)
    : scan_(scan), stages_(std::move(stages)), ctx_(ctx) {
  QPI_CHECK(ctx_ != nullptr && ctx_->exec_workers > 1);
  table_ = &scan_->scan_table();
  order_ = &scan_->scan_order();

  vstarts_.reserve(order_->block_order.size());
  for (uint32_t block_id : order_->block_order) {
    vstarts_.push_back(total_rows_);
    total_rows_ += table_->block(block_id).num_rows();
  }
  sampled_ = order_->sample_block_count != 0;
  prefix_rows_ = order_->sample_row_count;

  morsel_rows_ = std::max<size_t>(1, ctx_->morsel_rows);
  morsel_count_ =
      static_cast<size_t>((total_rows_ + morsel_rows_ - 1) / morsel_rows_);
  window_ = 2 * ctx_->exec_workers + 2;
  results_.resize(morsel_count_);
  remaining_.store(morsel_count_, std::memory_order_relaxed);

  if (!stages_.empty()) {
    captured_.push_back(scan_);
    for (size_t s = 0; s + 1 < stages_.size(); ++s) {
      captured_.push_back(stages_[s].op);
    }
  }
  // The driving operator's wrapper flips its own state; the captured chain
  // below it starts running the moment the first morsel is scheduled.
  for (Operator* op : captured_) {
    op->state_.store(OpState::kRunning, std::memory_order_relaxed);
  }
  if (morsel_count_ == 0) {
    for (Operator* op : captured_) {
      op->state_.store(OpState::kFinished, std::memory_order_relaxed);
    }
  }

  sched_ = ctx_->scheduler();
  group_ = std::make_unique<TaskGroup>(sched_, ctx_->sched_tag());
  SubmitUpTo(window_);
}

MorselScanDriver::~MorselScanDriver() {
  abort_.store(true, std::memory_order_relaxed);
  group_->Wait();
}

void MorselScanDriver::SubmitUpTo(size_t limit) {
  limit = std::min(limit, morsel_count_);
  while (submitted_ < limit) {
    size_t m = submitted_++;
    group_->Submit([this, m] { ProcessMorsel(m); });
  }
}

void MorselScanDriver::ProcessMorsel(size_t m) {
  MorselResult& r = results_[m];
  uint64_t begin = static_cast<uint64_t>(m) * morsel_rows_;
  uint64_t end = std::min(total_rows_, begin + morsel_rows_);
  uint64_t ticks = 0;

  if (!abort_.load(std::memory_order_relaxed) && !ctx_->IsCancelled()) {
    // Locate the block containing virtual row `begin`; zero-row blocks are
    // skipped by the scan loop below.
    size_t b = static_cast<size_t>(
                   std::upper_bound(vstarts_.begin(), vstarts_.end(), begin) -
                   vstarts_.begin()) -
               1;
    uint64_t v = begin;
    size_t local = static_cast<size_t>(begin - vstarts_[b]);
    bool run_ok = true;
    std::vector<uint64_t> stage_out(stages_.size(), 0);
    r.rows.reserve(static_cast<size_t>(end - begin));

    while (v < end) {
      const Block& block = table_->block(order_->block_order[b]);
      if (local >= block.num_rows()) {
        ++b;
        local = 0;
        continue;
      }
      // Run membership uses the post-emission rule (see RowBatch): input
      // row v is in-run iff v + 1 < prefix; an out-of-run input ends the
      // run for every later
      // output even if a predicate drops it.
      if (sampled_ && v + 1 >= prefix_rows_) run_ok = false;
      Row row = block.row(local);
      bool keep = true;
      for (size_t s = 0; s < stages_.size() && keep; ++s) {
        const MorselStage& st = stages_[s];
        if (st.predicate != nullptr) {
          keep = st.predicate->Evaluate(row);
        } else {
          Row projected;
          projected.reserve(st.projection->size());
          // Copy, not move: a column may be projected more than once.
          for (size_t idx : *st.projection) projected.push_back(row[idx]);
          row = std::move(projected);
        }
        if (keep) ++stage_out[s];
      }
      if (keep) {
        if (run_ok) ++r.random_limit;
        r.rows.push_back(std::move(row));
      }
      ++local;
      ++v;
    }

    r.scanned = end - begin;
    r.breaks_run = sampled_ && end >= prefix_rows_;

    // Attribute the captured operators' counters and bank the matching
    // progress ticks; the driving operator's rows are counted on delivery.
    if (!captured_.empty()) {
      scan_->CountEmitted(r.scanned);
      ticks += r.scanned;
      for (size_t s = 0; s + 1 < stages_.size(); ++s) {
        stages_[s].op->CountEmitted(stage_out[s]);
        ticks += stage_out[s];
      }
    }
  }

  if (ticks != 0) ctx_->TickConcurrent(ticks);
  {
    std::lock_guard<std::mutex> lock(mu_);
    r.done = true;
  }
  cv_.notify_all();
  if (remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    for (Operator* op : captured_) {
      op->state_.store(OpState::kFinished, std::memory_order_relaxed);
    }
  }
}

void MorselScanDriver::Fill(RowBatch* out) {
  while (!out->full() && emit_idx_ < morsel_count_) {
    MorselResult& r = results_[emit_idx_];
    // Wait for morsel emit_idx_ by *helping*: drain pending subtasks
    // (often our own, possibly another query's on a shared fleet) instead
    // of parking. A driving thread that is itself a fleet worker would
    // otherwise deadlock the fleet once every worker waits like this; the
    // timed wait is only a safety net for the instant where the needed
    // morsel is mid-execution elsewhere and nothing else is runnable.
    sched_->HelpUntil(mu_, cv_, [&r] { return r.done; });
    while (cursor_ < r.rows.size() && !out->full()) {
      bool in_run = run_open_ && cursor_ < r.random_limit;
      std::swap(*out->NextSlot(), r.rows[cursor_]);
      out->CommitSlot();
      if (in_run) out->bump_random_run();
      ++cursor_;
    }
    if (cursor_ >= r.rows.size()) {
      // The run is monotone across morsels: once this morsel consumed past
      // the prefix boundary, no later output is in-run.
      if (r.breaks_run) run_open_ = false;
      r.rows.clear();
      r.rows.shrink_to_fit();
      cursor_ = 0;
      ++emit_idx_;
      SubmitUpTo(emit_idx_ + window_);
    }
  }
}

std::unique_ptr<MorselScanDriver> TryBuildFusedScanDriver(Operator* driving_op,
                                                          ExecContext* ctx) {
  std::vector<MorselStage> top_down;
  Operator* cur = driving_op;
  SeqScanOp* scan = nullptr;
  while (true) {
    if (auto* s = dynamic_cast<SeqScanOp*>(cur)) {
      scan = s;
      break;
    }
    if (auto* f = dynamic_cast<FilterOp*>(cur)) {
      top_down.push_back(MorselStage{f, f->bound_predicate(), nullptr});
      cur = f->child(0);
      continue;
    }
    if (auto* p = dynamic_cast<ProjectOp*>(cur)) {
      top_down.push_back(MorselStage{p, nullptr, &p->project_indices()});
      cur = p->child(0);
      continue;
    }
    return nullptr;  // chain interrupted: not fusable from here
  }
  std::reverse(top_down.begin(), top_down.end());
  return std::make_unique<MorselScanDriver>(scan, std::move(top_down), ctx);
}

}  // namespace qpi
