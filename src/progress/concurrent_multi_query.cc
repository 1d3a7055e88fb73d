#include "progress/concurrent_multi_query.h"

#include <thread>
#include <utility>

#include "common/check.h"
#include "common/task_scheduler.h"

namespace qpi {

Status ConcurrentMultiQueryExecutor::Add(std::string /*name*/,
                                         OperatorPtr root,
                                         std::unique_ptr<ExecContext> ctx) {
  if (root == nullptr || ctx == nullptr) {
    return Status::InvalidArgument("multi-query entry needs root and context");
  }
  QPI_RETURN_NOT_OK(ctx->Validate());
  runs_.push_back(std::make_unique<QueryRun>(std::move(root), std::move(ctx)));
  return Status::OK();
}

void ConcurrentMultiQueryExecutor::Sample() {
  double combined = CombinedProgress();
  std::lock_guard<std::mutex> lock(history_mu_);
  // Keep the recorded combined trajectory monotone: between two samples a
  // worker may publish a larger T̂ for a batch it just absorbed, which must
  // not read as the workload moving backwards.
  if (!combined_history_.empty() && combined < combined_history_.back()) {
    combined = combined_history_.back();
  }
  combined_history_.push_back(combined);
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
  }
  monitor_stop_.store(false, std::memory_order_relaxed);
  std::thread monitor([this] { MonitorLoop(); });
  {
    // One fleet serves both layers: each registered query is a query-lane
    // task (run in registration order), and any intra-query fan-out
    // (morsel scans, join partitions) lands on the same workers through
    // the scheduler Execute attaches for the run's duration.
    TaskScheduler sched(options_.num_workers);
    TaskGroup group(&sched);
    for (auto& run : runs_) {
      if (run->IsTerminal()) continue;
      group.Submit(TaskLane::kQuery, [this, &sched, r = run.get()] {
        r->Execute(&sched, options_.publish_interval, nullptr);
      });
    }
    group.Wait();
  }
  monitor_stop_.store(true, std::memory_order_release);
  monitor.join();
  for (const auto& run : runs_) {
    if (!run->status.ok()) return run->status;
  }
  return Status::OK();
}

void ConcurrentMultiQueryExecutor::Cancel(size_t i) {
  QPI_CHECK(i < runs_.size());
  runs_[i]->ctx->RequestCancel();
}

bool ConcurrentMultiQueryExecutor::AllDone() const {
  for (const auto& run : runs_) {
    if (!run->IsTerminal()) return false;
  }
  return true;
}

double ConcurrentMultiQueryExecutor::QueryProgress(size_t i) const {
  QPI_CHECK(i < runs_.size());
  // A terminal query reads as done, cancelled ones included (DESIGN.md §7).
  if (runs_[i]->IsTerminal()) return 1.0;
  return runs_[i]->Progress();
}

double ConcurrentMultiQueryExecutor::CombinedProgress() const {
  double calls = 0;
  double total = 0;
  for (const auto& run : runs_) {
    GnmSnapshot snap = run->LiveSnapshot();
    calls += snap.current_calls;
    total += snap.total_estimate;
  }
  if (total <= 0) return AllDone() ? 1.0 : 0.0;
  double p = calls / total;
  return p > 1.0 ? 1.0 : p;
}

GnmSnapshot ConcurrentMultiQueryExecutor::LatestSnapshot(size_t i) const {
  QPI_CHECK(i < runs_.size());
  return runs_[i]->slot.Load();
}

std::vector<double> ConcurrentMultiQueryExecutor::combined_history() const {
  std::lock_guard<std::mutex> lock(history_mu_);
  return combined_history_;
}

}  // namespace qpi
