#ifndef PERFBENCH_IDLE_SPINNERS_H_
#define PERFBENCH_IDLE_SPINNERS_H_

#include <atomic>
#include <cstddef>
#include <thread>
#include <vector>

namespace perfbench {

/// One SCHED_IDLE thread per CPU, spinning on `pause` while it lives, so
/// that no CPU ever goes idle. A served query crosses several threads that
/// sleep and wake each other: client, event loop, dispatcher and fleet
/// workers. On a virtual machine, a thread woken on an idle CPU waits
/// until the host runs that CPU again, and that wait depends on the host's
/// load, not on the server. A thread of the idle policy gives way at once
/// to any other thread that wakes on its CPU.
class IdleSpinners {
 public:
  explicit IdleSpinners(size_t cpus);
  ~IdleSpinners();

  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

}  // namespace perfbench

#endif  // PERFBENCH_IDLE_SPINNERS_H_
