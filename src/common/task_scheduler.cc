#include "common/task_scheduler.h"

#include <chrono>
#include <limits>

namespace qpi {

namespace {

/// Identifies the current thread as a fleet worker of one scheduler, so
/// Submit can push to the local deque and HelpOneSubtask can prefer it.
/// Plain pointers: a worker belongs to exactly one scheduler for its
/// lifetime, and external (non-fleet) threads stay null.
struct WorkerTls {
  const void* sched = nullptr;
  size_t index = 0;
};

thread_local WorkerTls t_worker;

constexpr size_t kNotAWorker = std::numeric_limits<size_t>::max();

}  // namespace

const char* TaskLaneName(TaskLane lane) {
  switch (lane) {
    case TaskLane::kQuery:
      return "query";
    case TaskLane::kSubtask:
      return "morsel";
  }
  return "?";
}

TaskScheduler::TaskScheduler(size_t num_workers) {
  if (num_workers == 0) num_workers = 1;
  queues_.reserve(num_workers);
  for (size_t i = 0; i < num_workers; ++i) {
    queues_.push_back(std::make_unique<WorkerQueue>());
  }
  workers_.reserve(num_workers);
  for (size_t i = 0; i < num_workers; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

TaskScheduler::~TaskScheduler() {
  {
    std::lock_guard<std::mutex> lock(sleep_mu_);
    stop_ = true;
    ++epoch_;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void TaskScheduler::Notify(bool all) {
  {
    std::lock_guard<std::mutex> lock(sleep_mu_);
    ++epoch_;
  }
  if (all) {
    work_cv_.notify_all();
  } else {
    work_cv_.notify_one();
  }
}

void TaskScheduler::Submit(TaskLane lane, std::function<void()> task) {
  Enqueue(lane, Task{std::move(task), nullptr});
}

void TaskScheduler::Enqueue(TaskLane lane, Task task) {
  if (lane == TaskLane::kQuery) {
    {
      std::unique_lock<std::mutex> lock(query_mu_);
      query_space_cv_.wait(
          lock, [this] { return query_.size() < kQueryLaneCapacity; });
      query_.push_back(std::move(task));
    }
    depth_.fetch_add(1, std::memory_order_relaxed);
    Notify(false);
    return;
  }

  if (t_worker.sched == this) {
    WorkerQueue& q = *queues_[t_worker.index];
    bool run_inline = false;
    {
      std::lock_guard<std::mutex> lock(q.mu);
      if (q.tasks.size() >= kWorkerQueueCapacity) {
        // Full local deque: run the new task inline. LIFO would pop it
        // next anyway, and inline execution is the backpressure — the
        // submitter pays instead of growing an unbounded queue.
        run_inline = true;
      } else {
        q.tasks.push_back(std::move(task));
      }
    }
    if (run_inline) {
      RunTask(TaskLane::kSubtask, &task, /*stolen=*/false);
      return;
    }
    depth_.fetch_add(1, std::memory_order_relaxed);
    Notify(false);
    return;
  }

  {
    std::unique_lock<std::mutex> lock(inject_mu_);
    inject_space_cv_.wait(
        lock, [this] { return inject_.size() < kInjectCapacity; });
    inject_.push_back(std::move(task));
  }
  depth_.fetch_add(1, std::memory_order_relaxed);
  Notify(false);
}

bool TaskScheduler::PopSubtask(size_t self, Task* task, bool* stolen) {
  *stolen = false;
  if (self != kNotAWorker) {
    WorkerQueue& own = *queues_[self];
    std::lock_guard<std::mutex> lock(own.mu);
    if (!own.tasks.empty()) {
      *task = std::move(own.tasks.back());
      own.tasks.pop_back();
      return true;
    }
  }
  {
    std::lock_guard<std::mutex> lock(inject_mu_);
    if (!inject_.empty()) {
      *task = std::move(inject_.front());
      inject_.pop_front();
      inject_space_cv_.notify_one();
      return true;
    }
  }
  size_t n = queues_.size();
  size_t start = self == kNotAWorker ? 0 : self + 1;
  for (size_t k = 0; k < n; ++k) {
    size_t victim = (start + k) % n;
    if (victim == self) continue;
    WorkerQueue& q = *queues_[victim];
    std::lock_guard<std::mutex> lock(q.mu);
    if (!q.tasks.empty()) {
      *task = std::move(q.tasks.front());  // FIFO steal: oldest item
      q.tasks.pop_front();
      *stolen = true;
      return true;
    }
  }
  return false;
}

bool TaskScheduler::PopQueryTask(Task* task) {
  std::lock_guard<std::mutex> lock(query_mu_);
  if (query_.empty()) return false;
  *task = std::move(query_.front());
  query_.pop_front();
  query_space_cv_.notify_one();
  return true;
}

void TaskScheduler::RunTask(TaskLane lane, Task* task, bool stolen) {
  if (stolen) stolen_.fetch_add(1, std::memory_order_relaxed);
  // Count before the body runs: completion signals (the result cv inside
  // the body, the TaskGroup notify right after it) would otherwise let a
  // waiter observe "all work done" with the counter still one short.
  executed_[static_cast<size_t>(lane)].fetch_add(1,
                                                 std::memory_order_relaxed);
  task->fn();
  task->fn = nullptr;  // release captures before the next dispatch
  // Last: once notified, the group's owner may destroy it.
  if (task->group != nullptr) task->group->FinishOne();
}

bool TaskScheduler::RunOneTask(size_t self) {
  Task task;
  bool stolen = false;
  if (PopSubtask(self, &task, &stolen)) {
    depth_.fetch_sub(1, std::memory_order_relaxed);
    RunTask(TaskLane::kSubtask, &task, stolen);
    return true;
  }
  if (PopQueryTask(&task)) {
    depth_.fetch_sub(1, std::memory_order_relaxed);
    RunTask(TaskLane::kQuery, &task, /*stolen=*/false);
    return true;
  }
  return false;
}

bool TaskScheduler::HelpOneSubtask() {
  size_t self =
      t_worker.sched == this ? t_worker.index : kNotAWorker;
  Task task;
  bool stolen = false;
  if (!PopSubtask(self, &task, &stolen)) return false;
  depth_.fetch_sub(1, std::memory_order_relaxed);
  RunTask(TaskLane::kSubtask, &task, stolen);
  return true;
}

void TaskScheduler::WorkerLoop(size_t self) {
  t_worker.sched = this;
  t_worker.index = self;
  while (true) {
    if (RunOneTask(self)) continue;
    std::unique_lock<std::mutex> lock(sleep_mu_);
    if (stop_) {
      // Drain semantics: exit only once nothing is queued anywhere. Work
      // still executing on another worker cannot enqueue more by contract
      // (owners wait their TaskGroups before destroying the scheduler).
      if (depth_.load(std::memory_order_relaxed) <= 0) break;
      lock.unlock();
      if (!RunOneTask(self)) std::this_thread::yield();
      continue;
    }
    uint64_t seen = epoch_;
    lock.unlock();
    // Re-scan after reading the epoch: an enqueue between the failed scan
    // and the epoch read is caught here; one after the read bumps the
    // epoch and defeats the wait below.
    if (RunOneTask(self)) continue;
    lock.lock();
    if (!stop_ && epoch_ == seen) {
      work_cv_.wait_for(lock, std::chrono::milliseconds(50));
    }
  }
  t_worker.sched = nullptr;
}

void TaskGroup::Submit(TaskLane lane, std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++outstanding_;
  }
  sched_->Enqueue(lane, TaskScheduler::Task{std::move(task), this});
}

void TaskGroup::FinishOne() {
  std::lock_guard<std::mutex> lock(mu_);
  if (--outstanding_ == 0) done_cv_.notify_all();
}

void TaskGroup::Wait() {
  // Helping keeps a fleet worker productive while its own fan-out drains —
  // and is what makes waiting on the shared fleet deadlock-free (subtask
  // bodies never block).
  sched_->HelpUntil(mu_, done_cv_, [this] { return outstanding_ == 0; });
}

}  // namespace qpi
