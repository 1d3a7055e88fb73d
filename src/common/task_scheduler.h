#ifndef QPI_COMMON_TASK_SCHEDULER_H_
#define QPI_COMMON_TASK_SCHEDULER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace qpi {

/// Which class of work a task belongs to. The scheduler keeps the two in
/// separate structures because their policies differ (see TaskScheduler).
enum class TaskLane : unsigned char {
  kQuery = 0,    ///< run one query to completion (inter-query parallelism)
  kSubtask = 1,  ///< a morsel / join-partition piece of a running query
};

inline constexpr size_t kNumTaskLanes = 2;

class TaskGroup;

/// Stable lane names for metrics labels ("query" / "morsel").
const char* TaskLaneName(TaskLane lane);

/// \brief The engine's single execution substrate: a fixed work-stealing
/// worker fleet serving both inter-query and intra-query parallelism.
///
/// Replaces the former FIFO ThreadPool (inter-query) plus lazily-created
/// per-query intra pools. One fleet, two lanes:
///
///  - **Subtask lane** (morsels, join partitions): per-worker bounded
///    deques with LIFO local push / FIFO steal — a worker expanding a
///    query keeps cache-hot work for itself while idle workers steal the
///    oldest (largest-granularity) items from the front. External threads
///    (a query's driving thread that is not itself a fleet worker) submit
///    through a bounded central injection queue. Subtasks always run
///    before query-lane tasks: they finish work already admitted.
///  - **Query lane**: one FIFO. Every query runs as a single query-lane
///    task, so there is nothing to balance at this level; fairness across
///    clients is the server's admission policy, decided before a query
///    reaches the fleet.
///
/// Every submission path is **bounded with backpressure** (the unbounded
/// ThreadPool::Submit hazard is gone): a fleet worker whose own deque is
/// full runs the new task inline (which is exactly the LIFO semantics),
/// and external submitters block until space frees up — safe because
/// subtask bodies never block, so the fleet always drains.
///
/// **Helping protocol**: a blocked query-level wait (the ordered merge
/// of a parallel scan or join waiting for unit k, a TaskGroup::Wait)
/// must not park a fleet worker while runnable subtasks exist, or a
/// fleet saturated with blocked query tasks deadlocks against its own
/// fan-out. Every such waiter therefore waits through HelpUntil, which
/// loops on HelpOneSubtask() — legal from any thread precisely because
/// subtask bodies never block (a unit's output batches are buffered, not
/// pushed through a blocking queue).
///
/// The destructor keeps the old pool's drain contract: every queued task
/// (both lanes) executes before the workers join — the service drain
/// relies on queued work terminalizing, never vanishing.
class TaskScheduler {
 public:
  static constexpr size_t kWorkerQueueCapacity = 256;  ///< per-worker deque
  static constexpr size_t kInjectCapacity = 1024;  ///< central subtask queue
  static constexpr size_t kQueryLaneCapacity = 4096;  ///< pending query tasks

  /// `num_workers` is the fleet size (clamped to >= 1).
  explicit TaskScheduler(size_t num_workers);

  /// Drains every queued task (both lanes), then joins the fleet.
  ~TaskScheduler();

  TaskScheduler(const TaskScheduler&) = delete;
  TaskScheduler& operator=(const TaskScheduler&) = delete;

  /// Enqueue a task. May block (bounded queues, see class comment); a
  /// fleet worker submitting to its own full deque runs the task inline
  /// instead. Tasks must not throw; subtask bodies must not block.
  void Submit(TaskLane lane, std::function<void()> task);

  /// Run one pending subtask if any is queued (own deque first on a fleet
  /// worker, then the injection queue, then stealing). Safe from any
  /// thread; blocked waiters call this in a loop instead of parking.
  /// Returns false when no subtask was runnable at the scan instant.
  bool HelpOneSubtask();

  /// The helping protocol's one blocked wait: return once `done()` holds
  /// (evaluated under `mu`), running pending subtasks meanwhile. Parks on
  /// `cv` only when no subtask is runnable, and then for at most 2 ms —
  /// the safety net for the instant where the awaited work is
  /// mid-execution on another thread. Whoever makes `done()` true does so
  /// under `mu` and then notifies `cv`.
  template <typename Pred>
  void HelpUntil(std::mutex& mu, std::condition_variable& cv, Pred done) {
    while (true) {
      {
        std::lock_guard<std::mutex> lock(mu);
        if (done()) return;
      }
      if (HelpOneSubtask()) continue;
      std::unique_lock<std::mutex> lock(mu);
      if (cv.wait_for(lock, std::chrono::milliseconds(2), done)) return;
    }
  }

  size_t num_workers() const { return workers_.size(); }

  // --- observability (relaxed reads, safe from any thread) -----------------

  /// Tasks dispatched for execution, per lane (helped and inline runs
  /// count: the task executed, wherever it ran). Incremented as the body
  /// starts, so any wait that observes the work finished also observes
  /// the count.
  uint64_t tasks_executed(TaskLane lane) const {
    return executed_[static_cast<size_t>(lane)].load(
        std::memory_order_relaxed);
  }

  /// Subtasks taken from a deque the running thread did not own.
  uint64_t tasks_stolen() const {
    return stolen_.load(std::memory_order_relaxed);
  }

  /// Tasks queued and not yet claimed by a runner, across both lanes
  /// (point in time; excludes bodies currently executing).
  size_t run_queue_depth() const {
    int64_t d = depth_.load(std::memory_order_relaxed);
    return d > 0 ? static_cast<size_t>(d) : 0;
  }

 private:
  friend class TaskGroup;

  /// A queued task and the group, if any, to notify once it has run (a
  /// wrapper closure would cost an allocation per submission).
  struct Task {
    std::function<void()> fn;
    TaskGroup* group = nullptr;
  };

  struct alignas(64) WorkerQueue {
    std::mutex mu;
    std::deque<Task> tasks;  ///< back = newest (LIFO pop)
  };

  void Enqueue(TaskLane lane, Task task);

  void WorkerLoop(size_t self);
  /// One dispatch: subtask lane first, then the query lane's oldest task.
  bool RunOneTask(size_t self);
  /// Pop a subtask: own deque back (when `self` < fleet size), injection
  /// front, then steal other fronts. Sets `*stolen` on a cross-deque pop.
  bool PopSubtask(size_t self, Task* task, bool* stolen);
  bool PopQueryTask(Task* task);
  void RunTask(TaskLane lane, Task* task, bool stolen);
  void Notify(bool all);

  std::vector<std::unique_ptr<WorkerQueue>> queues_;

  std::mutex inject_mu_;
  std::condition_variable inject_space_cv_;
  std::deque<Task> inject_;

  std::mutex query_mu_;
  std::condition_variable query_space_cv_;
  std::deque<Task> query_;

  // Sleep/wake: workers that found nothing re-check under sleep_mu_ that
  // no enqueue bumped the epoch since their scan began, so a task can
  // never be published without either a worker awake or a wakeup pending.
  std::mutex sleep_mu_;
  std::condition_variable work_cv_;
  uint64_t epoch_ = 0;
  bool stop_ = false;

  std::atomic<uint64_t> executed_[kNumTaskLanes] = {};
  std::atomic<uint64_t> stolen_{0};
  std::atomic<int64_t> depth_{0};

  std::vector<std::thread> workers_;
};

/// \brief A waitable group of tasks on a shared TaskScheduler.
///
/// Same contract as the old pool's TaskGroup — each submitted task counts
/// as outstanding until the scheduler, having run it, notifies the group
/// (the queued task carries the group, so submitting builds no wrapper);
/// Wait blocks only on this group's outstanding work with a
/// happens-before edge from every task body; the destructor waits — plus
/// the scheduler's helping protocol: Wait runs pending subtasks instead of
/// parking, so a fleet worker waiting on its own fan-out makes progress
/// rather than wedging the fleet.
class TaskGroup {
 public:
  explicit TaskGroup(TaskScheduler* sched) : sched_(sched) {}
  ~TaskGroup() { Wait(); }

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Enqueue a subtask.
  void Submit(std::function<void()> task) {
    Submit(TaskLane::kSubtask, std::move(task));
  }

  /// Enqueue on an explicit lane (a multi-query driver groups its
  /// query-lane tasks).
  void Submit(TaskLane lane, std::function<void()> task);

  /// Block until every task submitted to this group finished, helping the
  /// subtask lane while any remain.
  void Wait();

 private:
  friend class TaskScheduler;

  /// Called by the scheduler after one of this group's tasks has run.
  void FinishOne();

  TaskScheduler* sched_;
  std::mutex mu_;
  std::condition_variable done_cv_;
  size_t outstanding_ = 0;
};

}  // namespace qpi

#endif  // QPI_COMMON_TASK_SCHEDULER_H_
