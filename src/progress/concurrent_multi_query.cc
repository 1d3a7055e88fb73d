#include "progress/concurrent_multi_query.h"

#include <thread>
#include <utility>

#include "common/check.h"
#include "common/task_scheduler.h"

namespace qpi {

Status ConcurrentMultiQueryExecutor::Add(std::string name, OperatorPtr root,
                                         std::unique_ptr<ExecContext> ctx) {
  if (root == nullptr || ctx == nullptr) {
    return Status::InvalidArgument("multi-query entry needs root and context");
  }
  QPI_RETURN_NOT_OK(ctx->Validate());
  auto entry = std::make_unique<Entry>();
  entry->name = std::move(name);
  entry->root = std::move(root);
  entry->ctx = std::move(ctx);
  entry->accountant = std::make_unique<GnmAccountant>(entry->root.get());
  // Seed the slot so progress reads before the first worker publication
  // see the optimizer-based T̂ instead of an empty snapshot. Safe here:
  // nothing is executing yet.
  entry->slot.Store(entry->accountant->Snapshot(0));
  entries_.push_back(std::move(entry));
  {
    std::lock_guard<std::mutex> lock(history_mu_);
    query_histories_.emplace_back();
  }
  return Status::OK();
}

namespace {

/// Publishes a full snapshot from the executing worker whenever the tick
/// count crosses a publish_interval boundary. Ticks arrive in batch-sized
/// jumps, so this is a crossing check, not a modulo (the publication lag
/// is bounded by one batch).
class SlotPublisher : public TickObserver {
 public:
  SlotPublisher(ConcurrentMultiQueryExecutor::Entry* entry, uint64_t interval)
      : entry_(entry), interval_(interval) {}

  void OnTick(uint64_t n) override {
    entry_->ticks += n;
    if (entry_->ticks - last_publish_ >= interval_) {
      last_publish_ = entry_->ticks;
      entry_->slot.Store(entry_->accountant->Snapshot(entry_->ticks));
    }
  }

 private:
  ConcurrentMultiQueryExecutor::Entry* entry_;
  uint64_t interval_;
  uint64_t last_publish_ = 0;
};

}  // namespace

void ConcurrentMultiQueryExecutor::RunOne(Entry* entry) {
  // Full snapshots need TotalEstimate(), whose estimator internals are
  // only safe to read on the thread executing the query — so publication
  // rides the engine tick, on this worker, every publish_interval ticks.
  SlotPublisher publisher(entry, options_.publish_interval);
  entry->ctx->AddTickObserver(&publisher);

  Status s = entry->root->Open(entry->ctx.get());
  if (s.ok()) {
    entry->ctx->BeginExecution();
    RowBatch batch(entry->ctx->batch_size);
    while (entry->root->NextBatch(&batch)) {
      entry->rows_emitted.fetch_add(batch.size(), std::memory_order_relaxed);
    }
    entry->root->Close();
    entry->ctx->EndExecution();
  }
  entry->status = std::move(s);
  entry->ctx->RemoveTickObserver(&publisher);
  // Terminal snapshot: every operator is finished (or cancelled into the
  // finished state), so T̂ equals C and estimated progress is exactly 1.
  entry->slot.Store(entry->accountant->Snapshot(entry->ticks));
  entry->done.store(true, std::memory_order_release);
}

double ConcurrentMultiQueryExecutor::CombinedFromSlots(
    std::vector<GnmSnapshot>* per_query) const {
  double calls = 0;
  double total = 0;
  bool all_done = true;
  if (per_query != nullptr) per_query->resize(entries_.size());
  for (size_t i = 0; i < entries_.size(); ++i) {
    const Entry& entry = *entries_[i];
    GnmSnapshot snap = entry.slot.Load();
    // Refresh C(Q) from the relaxed atomic counters — always safe
    // cross-thread — so progress keeps advancing between publications.
    double live = static_cast<double>(entry.accountant->CurrentCalls());
    if (live > snap.current_calls) snap.current_calls = live;
    // A stale T̂ can lag behind the live C; progress never runs backwards
    // past the work already done.
    if (snap.total_estimate < snap.current_calls) {
      snap.total_estimate = snap.current_calls;
    }
    all_done = all_done && entry.done.load(std::memory_order_acquire);
    calls += snap.current_calls;
    total += snap.total_estimate;
    if (per_query != nullptr) (*per_query)[i] = snap;
  }
  if (total <= 0) return all_done ? 1.0 : 0.0;
  double p = calls / total;
  return p > 1.0 ? 1.0 : p;
}

void ConcurrentMultiQueryExecutor::Sample() {
  std::vector<GnmSnapshot> per_query;
  double combined = CombinedFromSlots(&per_query);
  GnmSnapshot combined_snap;
  combined_snap.tick = 0;
  for (const GnmSnapshot& snap : per_query) {
    combined_snap.tick += snap.tick;
    combined_snap.current_calls += snap.current_calls;
    combined_snap.total_estimate += snap.total_estimate;
  }
  combined_slot_.Store(combined_snap);
  std::lock_guard<std::mutex> lock(history_mu_);
  // Keep the recorded combined trajectory monotone: between two samples a
  // worker may publish a larger T̂ for a batch it just absorbed, which must
  // not read as the workload moving backwards.
  if (!combined_history_.empty() && combined < combined_history_.back()) {
    combined = combined_history_.back();
  }
  combined_history_.push_back(combined);
  for (size_t i = 0; i < per_query.size(); ++i) {
    query_histories_[i].push_back(per_query[i]);
  }
}

void ConcurrentMultiQueryExecutor::MonitorLoop() {
  while (!monitor_stop_.load(std::memory_order_acquire)) {
    Sample();
    std::this_thread::sleep_for(options_.monitor_period);
  }
  // Terminal sample, taken after the pool drained: every query is done,
  // so the recorded history always ends at combined progress 1.0.
  Sample();
}

Status ConcurrentMultiQueryExecutor::RunAll() {
  {
    std::lock_guard<std::mutex> lock(history_mu_);
    combined_history_.clear();
    for (auto& history : query_histories_) history.clear();
  }
  monitor_stop_.store(false, std::memory_order_relaxed);
  std::thread monitor([this] { MonitorLoop(); });
  {
    // One fleet serves both layers: each registered query is a query-lane
    // task (fair-share across entry tags), and any intra-query fan-out
    // (morsel scans, join partitions) lands on the same workers through
    // the entry context's attached scheduler handle.
    TaskScheduler sched(options_.num_workers);
    TaskGroup group(&sched);
    uint64_t tag = 1;
    std::vector<ExecContext*> attached;
    for (auto& entry : entries_) {
      if (entry->done.load(std::memory_order_acquire)) continue;
      entry->ctx->AttachScheduler(&sched, tag);
      attached.push_back(entry->ctx.get());
      group.Submit(TaskLane::kQuery, tag,
                   [this, e = entry.get()] { RunOne(e); });
      ++tag;
    }
    group.Wait();
    // Detach before the fleet dies: entries outlive RunAll and may run
    // again against a different scheduler.
    for (ExecContext* ctx : attached) ctx->AttachScheduler(nullptr, 0);
  }
  monitor_stop_.store(true, std::memory_order_release);
  monitor.join();
  for (const auto& entry : entries_) {
    if (!entry->status.ok()) return entry->status;
  }
  return Status::OK();
}

void ConcurrentMultiQueryExecutor::Cancel(size_t i) {
  QPI_CHECK(i < entries_.size());
  entries_[i]->ctx->RequestCancel();
}

bool ConcurrentMultiQueryExecutor::AllDone() const {
  for (const auto& entry : entries_) {
    if (!entry->done.load(std::memory_order_acquire)) return false;
  }
  return true;
}

double ConcurrentMultiQueryExecutor::QueryProgress(size_t i) const {
  QPI_CHECK(i < entries_.size());
  Entry& entry = *entries_[i];
  if (entry.done.load(std::memory_order_acquire)) return 1.0;
  GnmSnapshot snap = entry.slot.Load();
  double live = static_cast<double>(entry.accountant->CurrentCalls());
  if (live > snap.current_calls) snap.current_calls = live;
  if (snap.total_estimate < snap.current_calls) {
    snap.total_estimate = snap.current_calls;
  }
  double p = snap.EstimatedProgress();
  if (p < 0.0) p = 0.0;
  if (p > 1.0) p = 1.0;
  // CAS-max monotone floor: batch-granular publications must never make
  // the reported progress of a running query decrease.
  double floor = entry.progress_floor.load(std::memory_order_relaxed);
  while (p > floor && !entry.progress_floor.compare_exchange_weak(
                          floor, p, std::memory_order_relaxed)) {
  }
  return p > floor ? p : floor;
}

double ConcurrentMultiQueryExecutor::CombinedProgress() const {
  return CombinedFromSlots(nullptr);
}

GnmSnapshot ConcurrentMultiQueryExecutor::LatestSnapshot(size_t i) const {
  QPI_CHECK(i < entries_.size());
  return entries_[i]->slot.Load();
}

std::vector<double> ConcurrentMultiQueryExecutor::combined_history() const {
  std::lock_guard<std::mutex> lock(history_mu_);
  return combined_history_;
}

std::vector<GnmSnapshot> ConcurrentMultiQueryExecutor::query_history(
    size_t i) const {
  QPI_CHECK(i < entries_.size());
  std::lock_guard<std::mutex> lock(history_mu_);
  return query_histories_[i];
}

}  // namespace qpi
