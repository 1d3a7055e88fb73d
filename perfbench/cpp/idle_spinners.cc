#include "idle_spinners.h"

#include <pthread.h>
#include <sched.h>

namespace perfbench {

IdleSpinners::IdleSpinners(size_t cpus) {
  for (size_t i = 0; i < cpus; ++i) {
    threads_.emplace_back([this] {
      sched_param param{};
      pthread_setschedparam(pthread_self(), SCHED_IDLE, &param);
      while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#endif
      }
    });
  }
}

IdleSpinners::~IdleSpinners() {
  stop_.store(true, std::memory_order_relaxed);
  for (std::thread& t : threads_) t.join();
}

}  // namespace perfbench
