// The unified work-stealing TaskScheduler: every-task-runs-exactly-once
// under stealing contention, subtask-lane dispatch priority, a FIFO query
// lane, bounded submission backpressure, the destructor's
// drain contract, and the helping protocol (run under tsan/asan/ubsan via
// the sanitizer presets).

#include "common/task_scheduler.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace qpi {
namespace {

TEST(SchedulerTest, RunsAllTasksAcrossWorkers) {
  TaskScheduler sched(4);
  TaskGroup group(&sched);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    group.Submit([&counter] { counter.fetch_add(1); });
  }
  group.Wait();
  EXPECT_EQ(counter.load(), 100);
  // The group is reusable after Wait.
  group.Submit([&counter] { counter.fetch_add(1); });
  group.Wait();
  EXPECT_EQ(counter.load(), 101);
}

TEST(SchedulerTest, DestructorDrainsPendingTasks) {
  std::atomic<int> counter{0};
  {
    TaskScheduler sched(2);
    for (int i = 0; i < 50; ++i) {
      sched.Submit(TaskLane::kSubtask, [&counter] { counter.fetch_add(1); });
    }
    for (int i = 0; i < 10; ++i) {
      sched.Submit(TaskLane::kQuery, [&counter] { counter.fetch_add(1); });
    }
  }
  // The drain contract: queued work executes, it never vanishes.
  EXPECT_EQ(counter.load(), 60);
}

TEST(SchedulerTest, StealsUnderContentionAndRunsEachTaskOnce) {
  // One query-lane producer fans subtasks onto its own worker deque (the
  // LIFO local-push path); the three idle workers must steal from its
  // front. Rounds repeat until a steal is observed so the test does not
  // depend on wakeup timing.
  TaskScheduler sched(4);
  constexpr int kTasks = 64;
  std::vector<std::atomic<int>> runs(kTasks);
  int total = 0;
  for (int round = 0; round < 50 && sched.tasks_stolen() == 0; ++round) {
    for (auto& r : runs) r.store(0);
    TaskGroup group(&sched);
    group.Submit(TaskLane::kQuery, [&] {
      TaskGroup fanout(&sched);
      for (int i = 0; i < kTasks; ++i) {
        fanout.Submit([&runs, i] {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
          runs[i].fetch_add(1);
        });
      }
      fanout.Wait();
    });
    group.Wait();
    for (int i = 0; i < kTasks; ++i) {
      ASSERT_EQ(runs[i].load(), 1) << "task " << i << " round " << round;
    }
    total += kTasks;
  }
  EXPECT_GT(sched.tasks_stolen(), 0u);
  EXPECT_GE(sched.tasks_executed(TaskLane::kSubtask),
            static_cast<uint64_t>(total));
}

TEST(SchedulerTest, SubtaskLaneRunsBeforeQueuedQueryTask) {
  // With the single worker parked inside a query task, one queued subtask
  // and one queued query task race for the next dispatch: the subtask
  // (work already admitted) must win.
  TaskScheduler sched(1);
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::mutex mu;
  std::vector<int> order;
  TaskGroup group(&sched);
  group.Submit(TaskLane::kQuery, [released] { released.wait(); });
  group.Submit(TaskLane::kQuery, [&] {
    std::lock_guard<std::mutex> lock(mu);
    order.push_back(2);
  });
  group.Submit(TaskLane::kSubtask, [&] {
    std::lock_guard<std::mutex> lock(mu);
    order.push_back(1);
  });
  release.set_value();
  group.Wait();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1);  // the subtask
  EXPECT_EQ(order[1], 2);  // then the queued query task
}

TEST(SchedulerTest, QueryLaneIsFifoAcrossInterleavedSubmitters) {
  // Four threads submit query tasks while the lone worker is parked, so
  // their submissions interleave; the query lane runs them in exactly the
  // order they were enqueued, whoever submitted them.
  TaskScheduler sched(1);
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  TaskGroup group(&sched);
  group.Submit(TaskLane::kQuery, [released] { released.wait(); });
  constexpr int kSubmitters = 4;
  constexpr int kPerSubmitter = 32;
  std::mutex submit_mu;
  std::vector<int> submitted;
  std::mutex run_mu;
  std::vector<int> ran;
  std::vector<std::thread> submitters;
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = 0; i < kPerSubmitter; ++i) {
        int id = t * kPerSubmitter + i;
        // Record and enqueue under one lock: the recorded order is the
        // enqueue order.
        {
          std::lock_guard<std::mutex> lock(submit_mu);
          submitted.push_back(id);
          group.Submit(TaskLane::kQuery, [&, id] {
            std::lock_guard<std::mutex> run_lock(run_mu);
            ran.push_back(id);
          });
        }
        std::this_thread::yield();
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  release.set_value();
  group.Wait();
  ASSERT_EQ(ran.size(), static_cast<size_t>(kSubmitters * kPerSubmitter));
  EXPECT_EQ(ran, submitted);
}

TEST(SchedulerTest, ExternalSubtaskSubmitIsBoundedWithBackpressure) {
  constexpr int kCap = static_cast<int>(TaskScheduler::kInjectCapacity);
  constexpr int kSubmits = kCap + 20;
  TaskScheduler sched(1);
  std::promise<void> started;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  TaskGroup group(&sched);
  group.Submit(TaskLane::kQuery, [&started, released] {
    started.set_value();
    released.wait();
  });
  // Only start submitting once the lone worker is parked inside the query
  // task — before that it would drain the injection queue as we fill it.
  started.get_future().wait();

  std::atomic<int> submitted{0};
  std::atomic<int> ran{0};
  std::thread submitter([&] {
    for (int i = 0; i < kSubmits; ++i) {
      sched.Submit(TaskLane::kSubtask, [&ran] { ran.fetch_add(1); });
      submitted.fetch_add(1);
    }
  });
  // The injection queue fills to its cap and the next Submit blocks — the
  // unbounded-queue hazard is gone.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_LE(submitted.load(), kCap);
  EXPECT_GT(sched.run_queue_depth(), 0u);
  release.set_value();
  submitter.join();
  group.Wait();
  while (ran.load() < kSubmits) sched.HelpOneSubtask();
  EXPECT_EQ(submitted.load(), kSubmits);
  EXPECT_EQ(ran.load(), kSubmits);
}

TEST(SchedulerTest, HelpOneSubtaskRunsQueuedWorkFromAnyThread) {
  TaskScheduler sched(1);
  std::promise<void> started;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  TaskGroup group(&sched);
  group.Submit(TaskLane::kQuery, [&started, released] {
    started.set_value();
    released.wait();
  });
  // Submit the subtask only once the lone worker is parked inside the
  // query task; before that the worker could run it first.
  started.get_future().wait();
  std::atomic<int> ran{0};
  sched.Submit(TaskLane::kSubtask, [&ran] { ran.fetch_add(1); });
  // This thread is not a fleet worker; helping still drains the lane.
  EXPECT_TRUE(sched.HelpOneSubtask());
  EXPECT_EQ(ran.load(), 1);
  EXPECT_FALSE(sched.HelpOneSubtask());
  release.set_value();
  group.Wait();
}

TEST(SchedulerTest, TaskGroupDestructorWaitsForOutstandingTasks) {
  TaskScheduler sched(2);
  std::atomic<int> counter{0};
  {
    TaskGroup group(&sched);
    for (int i = 0; i < 32; ++i) {
      group.Submit([&counter] {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        counter.fetch_add(1);
      });
    }
  }
  EXPECT_EQ(counter.load(), 32);
}

TEST(SchedulerTest, CountersSeparateLanes) {
  TaskScheduler sched(2);
  TaskGroup group(&sched);
  for (int i = 0; i < 5; ++i) {
    group.Submit(TaskLane::kQuery, [] {});
    group.Submit(TaskLane::kSubtask, [] {});
    group.Submit(TaskLane::kSubtask, [] {});
  }
  group.Wait();
  EXPECT_EQ(sched.tasks_executed(TaskLane::kQuery), 5u);
  EXPECT_EQ(sched.tasks_executed(TaskLane::kSubtask), 10u);
  EXPECT_EQ(sched.run_queue_depth(), 0u);
}

}  // namespace
}  // namespace qpi
