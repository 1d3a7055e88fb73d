#ifndef PERFBENCH_ALLOC_COUNT_H_
#define PERFBENCH_ALLOC_COUNT_H_

#include <cstdint>

namespace perfbench {

/// Process-wide totals of global operator-new calls and requested bytes,
/// counted only while counting is switched on. The benchmark binary
/// replaces the global operator new/delete (alloc_count.cc), so every
/// allocation the engine makes — on any thread — passes through it.
struct AllocTotals {
  uint64_t news = 0;
  uint64_t bytes = 0;
};

/// Switch counting on or off (traced windows only; off costs one relaxed
/// load per allocation).
void SetAllocCounting(bool on);

/// Sum of every thread's counters so far.
AllocTotals ReadAllocTotals();

/// The calling thread's own counters (exact while fewer than 64 threads
/// have allocated with counting on; later threads share slots).
AllocTotals ReadThreadAllocTotals();

}  // namespace perfbench

#endif  // PERFBENCH_ALLOC_COUNT_H_
