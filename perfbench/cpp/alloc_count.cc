#include "alloc_count.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace perfbench {
namespace {

// One cache line of counters per thread, so worker threads allocating in
// parallel never share a counter line. Threads past kSlots share slots;
// the adds are atomic, so sharing costs contention, never counts.
struct alignas(64) Slot {
  std::atomic<uint64_t> news{0};
  std::atomic<uint64_t> bytes{0};
};

constexpr unsigned kSlots = 64;
Slot g_slots[kSlots];
std::atomic<unsigned> g_next_slot{0};
std::atomic<bool> g_counting{false};
// Trivially initialized, so reading it inside operator new never runs a
// thread-local constructor (which could itself allocate).
thread_local Slot* t_slot = nullptr;

void Count(std::size_t size) {
  if (!g_counting.load(std::memory_order_relaxed)) return;
  if (t_slot == nullptr) {
    t_slot = &g_slots[g_next_slot.fetch_add(1, std::memory_order_relaxed) %
                      kSlots];
  }
  t_slot->news.fetch_add(1, std::memory_order_relaxed);
  t_slot->bytes.fetch_add(size, std::memory_order_relaxed);
}

}  // namespace

void SetAllocCounting(bool on) {
  g_counting.store(on, std::memory_order_relaxed);
}

AllocTotals ReadAllocTotals() {
  AllocTotals totals;
  for (const Slot& slot : g_slots) {
    totals.news += slot.news.load(std::memory_order_relaxed);
    totals.bytes += slot.bytes.load(std::memory_order_relaxed);
  }
  return totals;
}

AllocTotals ReadThreadAllocTotals() {
  AllocTotals totals;
  if (t_slot != nullptr) {
    totals.news = t_slot->news.load(std::memory_order_relaxed);
    totals.bytes = t_slot->bytes.load(std::memory_order_relaxed);
  }
  return totals;
}

}  // namespace perfbench

// Global replacements. libstdc++'s array and nothrow forms forward to these
// two, and the over-aligned forms keep their default (unreplaced) pairing.
void* operator new(std::size_t size) {
  perfbench::Count(size);
  if (size == 0) size = 1;
  while (true) {
    if (void* p = std::malloc(size)) return p;
    std::new_handler handler = std::get_new_handler();
    if (handler == nullptr) throw std::bad_alloc();
    handler();
  }
}

void operator delete(void* p) noexcept { std::free(p); }

void operator delete(void* p, std::size_t) noexcept { std::free(p); }
