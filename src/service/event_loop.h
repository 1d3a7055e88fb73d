#ifndef QPI_SERVICE_EVENT_LOOP_H_
#define QPI_SERVICE_EVENT_LOOP_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "service/protocol.h"

namespace qpi {

class QpiServer;
struct QueryHandle;

/// \brief One snapshot, serialized once, shared by every watcher that
/// receives it (the fan-out buffers are handed to per-connection write
/// queues by shared_ptr, never copied).
struct SnapshotBuffers {
  std::shared_ptr<const std::string> json;
  /// Lazily encoded the first time a binary-negotiated watcher needs this
  /// instant; null until then.
  std::shared_ptr<const std::string> binary;
  double built_ms = 0;           ///< build instant (delivery_ms base)
  bool final_snapshot = false;   ///< terminal: subscribers unwatch after it
};

/// \brief Server-level broadcast cache: one serialization per (query,
/// cadence class, due instant), shared across every event-loop shard.
///
/// Cadence classes fire on a shared absolute grid — due instants are
/// multiples of the period on the server's monotonic clock — so shards
/// that wake independently for the same instant ask for the same `slot`
/// and reuse one build. The per-class `seq` counter lives here too: all
/// streams of a class carry the same (monotone) sequence numbers, which
/// is exactly the per-stream non-decreasing guarantee the protocol makes.
class SnapshotBroadcast {
 public:
  /// Pseudo-slots that always rebuild: a watch registration's opening
  /// snapshot (freshness beats sharing for a single stream) and the drain
  /// flush (one shared force-final build per class).
  static constexpr uint64_t kImmediateSlot = ~0ull;
  static constexpr uint64_t kDrainSlot = ~0ull - 1;

  explicit SnapshotBroadcast(QpiServer* server) : server_(server) {}

  /// Buffers for cadence instant `slot` of (query, period). Rebuilds when
  /// the cached instant differs, else returns the shared buffers already
  /// built for it (adding the binary encoding if this caller is the first
  /// to want it). `force_final` marks the build final regardless of
  /// terminal state (drain flush of never-run queries).
  SnapshotBuffers Get(QueryHandle* handle, uint64_t period_bits,
                      uint64_t slot, bool want_binary, bool force_final);

  /// Distinct serializations performed (JSON builds + binary encodes) —
  /// the denominator of the fan-out claim: deliveries per build.
  uint64_t serializations() const {
    return serializations_.load(std::memory_order_relaxed);
  }

 private:
  struct Entry {
    uint64_t slot = kImmediateSlot;
    uint64_t next_seq = 0;
    WireSnapshot snap;  ///< kept for the lazy binary encode
    SnapshotBuffers bufs;
  };

  QpiServer* server_;
  std::mutex mu_;
  /// Keyed by (query id, period bit pattern). Entries are one snapshot
  /// each and live for the server's lifetime, like the query registry.
  std::map<std::pair<uint64_t, uint64_t>, Entry> entries_;
  std::atomic<uint64_t> serializations_{0};
};

/// \brief One epoll event-loop shard: owns N client connections on
/// nonblocking sockets, single-threaded.
///
/// Replaces the former two-threads-per-session design. All connection
/// state (read/write buffers, watch subscriptions) is loop-thread-only;
/// the cross-thread surface is the pending-connection queue, the drain
/// flag, the wake eventfd, and the monitoring counters.
///
/// Write path: per-connection queue of shared snapshot/control buffers
/// with watermark backpressure — a snapshot due while the queue is above
/// the watermark is skipped (the watch stays subscribed and picks up the
/// next, fresher instant: coalesce-to-latest), and a connection whose
/// queue grows past the hostile cap while it pumps requests without
/// reading replies is closed.
///
/// Drain: BeginDrain() makes the loop flush one final snapshot per watch
/// plus a bye to every connection, then close each connection as its
/// queue empties (deadline-bounded), then exit; Join() reaps the thread.
class EventLoop {
 public:
  EventLoop(QpiServer* server, SnapshotBroadcast* broadcast);
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Create the epoll instance and start the loop thread.
  Status Start();

  /// Hand a freshly accepted connection to this shard (thread-safe). The
  /// loop adopts it, sends the hello greeting, and starts reading.
  void AddConnection(int fd, uint64_t tenant);

  /// Flush finals + bye everywhere, then exit the loop (thread-safe,
  /// asynchronous; Join() to wait).
  void BeginDrain();

  /// Join the loop thread (after BeginDrain).
  void Join();

  size_t num_connections() const {
    return conn_count_.load(std::memory_order_relaxed);
  }
  size_t num_watches() const {
    return watch_count_.load(std::memory_order_relaxed);
  }
  uint64_t snapshots_sent() const {
    return snapshots_sent_.load(std::memory_order_relaxed);
  }

 private:
  /// One active WATCH subscription (also recorded in its cadence class).
  struct Watch {
    uint64_t query_id = 0;
    uint64_t period_bits = 0;
    QueryHandle* handle = nullptr;
  };

  /// One queued write: a shared buffer, the progress through it, and the
  /// build instant for the delivery-latency histogram (NaN for control).
  struct OutChunk {
    std::shared_ptr<const std::string> data;
    size_t offset = 0;
    double built_ms = 0;
  };

  struct Conn {
    int fd = -1;
    uint64_t tenant = 0;
    std::string inbuf;
    bool discarding = false;  ///< overlong line: drop to next newline
    std::deque<OutChunk> outq;
    size_t outq_bytes = 0;
    bool epollout = false;  ///< EPOLLOUT currently armed
    bool binary = false;    ///< negotiated binary snapshot frames
    bool closing = false;   ///< flush outq, then close (quit/EOF/drain)
    bool dead = false;      ///< close at the next sweep
    std::vector<Watch> watches;
  };

  /// All watches of one (query, cadence) on this shard; fires on the
  /// shared grid and fans the broadcast buffers out to its members.
  struct CadenceClass {
    QueryHandle* handle = nullptr;
    double period_ms = 100;
    uint64_t next_slot = 0;  ///< next due instant = next_slot * period_ms
    /// One entry per subscription (a connection watching the same query
    /// twice is two streams and appears twice).
    std::vector<Conn*> members;
  };

  void Run();
  void Wake();
  void AdoptPending();
  int ComputeTimeoutMs(double now) const;
  void HandleEvent(Conn* conn, uint32_t events);
  void HandleReadable(Conn* conn);
  void ProcessInbuf(Conn* conn);
  void HandleRequest(Conn* conn, const Request& request);
  void RegisterWatch(Conn* conn, QueryHandle* handle, double period_ms);
  void FireDueClasses(double now);
  void EnqueueSnapshot(Conn* conn, const SnapshotBuffers& bufs, bool force);
  void EnqueueControl(Conn* conn, std::string line);
  void TryFlush(Conn* conn);
  void UpdateEpollOut(Conn* conn);
  void EnterDrain();
  void RemoveConnWatches(Conn* conn);
  void CloseConn(Conn* conn);
  void SweepDead();

  QpiServer* server_;
  SnapshotBroadcast* broadcast_;

  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::thread thread_;

  std::mutex pending_mu_;
  std::vector<std::pair<int, uint64_t>> pending_;  ///< (fd, tenant)
  std::atomic<bool> drain_requested_{false};

  std::atomic<size_t> conn_count_{0};
  std::atomic<size_t> watch_count_{0};
  std::atomic<uint64_t> snapshots_sent_{0};

  // -- loop-thread-only state --
  std::unordered_map<int, std::unique_ptr<Conn>> conns_;
  std::map<std::pair<uint64_t, uint64_t>, CadenceClass> classes_;
  bool draining_ = false;
  double drain_deadline_ms_ = 0;
};

}  // namespace qpi

#endif  // QPI_SERVICE_EVENT_LOOP_H_
