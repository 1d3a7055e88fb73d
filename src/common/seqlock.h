#ifndef QPI_COMMON_SEQLOCK_H_
#define QPI_COMMON_SEQLOCK_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>

namespace qpi {

/// \brief Lock-free single-writer "latest value" cell (a seqlock) for a
/// trivially copyable `T`.
///
/// The executing worker publishes from its tick path (estimator internals
/// are only safe to read on the thread running the query); monitor and UI
/// threads read the latest value at any time without blocking the query.
/// The sequence counter is odd while a write is in flight; readers retry
/// until they observe the same even sequence on both sides of the word
/// reads, so a value is never torn. The value is stored as atomic 64-bit
/// words, so the protocol is data-race-free under ThreadSanitizer as well
/// as the memory model.
template <typename T>
class SeqlockCell {
  static_assert(std::is_trivially_copyable_v<T>,
                "a seqlock cell copies its value word by word");

 public:
  SeqlockCell() { Store(T{}); }
  SeqlockCell(const SeqlockCell&) = delete;
  SeqlockCell& operator=(const SeqlockCell&) = delete;

  /// Publish `value`. Must only be called from one thread at a time.
  void Store(const T& value) {
    uint64_t words[kWords] = {};
    std::memcpy(words, &value, sizeof(T));
    const uint64_t seq = seq_.load(std::memory_order_relaxed);
    seq_.store(seq + 1, std::memory_order_relaxed);  // odd: write in flight
    std::atomic_thread_fence(std::memory_order_release);
    for (size_t i = 0; i < kWords; ++i) {
      words_[i].store(words[i], std::memory_order_relaxed);
    }
    seq_.store(seq + 2, std::memory_order_release);  // even: stable
  }

  /// Read the latest published value. Wait-free for the writer; the
  /// reader retries only while a write is in flight.
  T Load() const {
    uint64_t words[kWords];
    while (true) {
      const uint64_t before = seq_.load(std::memory_order_acquire);
      if (before & 1) continue;
      for (size_t i = 0; i < kWords; ++i) {
        words[i] = words_[i].load(std::memory_order_relaxed);
      }
      std::atomic_thread_fence(std::memory_order_acquire);
      if (seq_.load(std::memory_order_relaxed) == before) break;
    }
    T value;
    std::memcpy(&value, words, sizeof(T));
    return value;
  }

 private:
  static constexpr size_t kWords = (sizeof(T) + 7) / 8;

  std::atomic<uint64_t> seq_{0};
  std::atomic<uint64_t> words_[kWords] = {};
};

}  // namespace qpi

#endif  // QPI_COMMON_SEQLOCK_H_
