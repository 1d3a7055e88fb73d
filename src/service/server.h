#ifndef QPI_SERVICE_SERVER_H_
#define QPI_SERVICE_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "common/task_scheduler.h"
#include "estimators/feedback_cache.h"
#include "exec/exec_context.h"
#include "exec/operator.h"
#include "ola/ola_collector.h"
#include "ola/ola_snapshot.h"
#include "progress/ensemble.h"
#include "progress/query_run.h"
#include "progress/trace_ring.h"
#include "service/admission_queue.h"
#include "service/event_loop.h"
#include "service/protocol.h"
#include "storage/catalog.h"

namespace qpi {

/// \brief One submitted query, from SUBMIT to its terminal snapshot: the
/// QueryRun lifecycle plus what the server adds to it.
///
/// Lives in the server registry for the server's lifetime (watch sessions
/// hold raw pointers across their own threads). Cross-thread reads follow
/// QueryRun's threading model; the OLA slot is a seqlock like `slot`.
struct QueryHandle : QueryRun {
  using QueryRun::QueryRun;

  uint64_t id = 0;
  /// Admission fair-share lane (the submitting session's id; 0 for
  /// programmatic Submit calls). Immutable after Submit.
  uint64_t tenant = 0;
  std::string sql;
  /// Online-aggregation state (null unless submitted with OLA): the
  /// collector is the run's OLA feed; the slot is its seqlock publication
  /// cell, read by watchers alongside `slot`.
  std::unique_ptr<OlaCollector> ola;
  OlaSnapshotSlot ola_slot;
};

/// \brief The server's /metrics instruments (rendered by metrics_text.h).
///
/// Registered once at server construction (the registry is append-only
/// setup-phase state); every pointer below stays valid and lock-free for
/// the server's lifetime. Naming follows Prometheus conventions: unit
/// suffixes, `_total` on counters, one family per logical measure with
/// `kind` labels distinguishing terminal states.
struct ServerMetrics {
  ServerMetrics();

  MetricsRegistry registry;
  MetricCounter* submits;           ///< qpi_submits_total
  MetricCounter* finished;          ///< qpi_queries_terminal_total{kind="finished"}
  MetricCounter* failed;            ///< ...{kind="failed"}
  MetricCounter* cancelled;         ///< ...{kind="cancelled"}
  MetricCounter* trace_samples;     ///< qpi_trace_samples_total
  MetricGauge* queue_depth;         ///< qpi_queue_depth
  MetricGauge* running;             ///< qpi_queries_running
  MetricGauge* sessions;            ///< qpi_sessions
  MetricGauge* watchers;            ///< qpi_watchers
  MetricGauge* draining;            ///< qpi_draining (0/1)
  MetricHistogram* delivery_ms;     ///< qpi_snapshot_delivery_ms
  MetricHistogram* relative_error;  ///< qpi_estimator_relative_error
  /// qpi_estimator_relative_error{estimator="once|dne|byte"} — the same
  /// error, per concurrent candidate curve, indexed by EstimationMode.
  MetricHistogram* candidate_error[kNumEstimatorCandidates];
  /// qpi_audit_checkpoints_skipped_total — audit checkpoints excluded from
  /// the error histograms (degenerate, or R non-finite / not positive).
  MetricCounter* audit_skipped;
  /// qpi_estimator_selected_total{estimator="..."} — operators whose
  /// selector ended the query on each candidate, indexed likewise.
  MetricCounter* selected[kNumEstimatorCandidates];
  /// qpi_tasks_executed_total{lane="query|morsel"} — tasks the scheduler
  /// fleet ran, per lane, indexed by TaskLane.
  MetricCounter* tasks_executed[kNumTaskLanes];
  /// qpi_tasks_stolen_total — tasks that ran on a worker other than the
  /// one whose deque first held them.
  MetricCounter* tasks_stolen;
  /// qpi_run_queue_depth — tasks queued to the fleet awaiting dispatch.
  MetricGauge* run_queue_depth;
  /// qpi_ola_ci_halfwidth — widest CI half-width across the aggregates of
  /// the most recently published OLA snapshot (server-wide).
  MetricGauge* ola_ci_halfwidth;
  /// qpi_ola_early_stops_total — OLA queries early-terminated by a stop
  /// condition or a client stop verb.
  MetricCounter* ola_early_stops;
  /// qpi_feedback_cache_load_errors_total — feedback-cache files that
  /// failed to load at startup (corrupt/unreadable; the server starts cold
  /// instead of aborting).
  MetricCounter* feedback_cache_load_errors;
};

/// \brief qpi-serve: the paper's progress framework behind a TCP socket.
///
/// A small networked service wrapping the existing engine: clients SUBMIT
/// SQL and get a query id, WATCH streams progress snapshots (gnm progress,
/// T̂, CI half-width, per-operator counters) at a client-chosen cadence,
/// CANCEL aborts, STATS reports server gauges. One JSON object per line in
/// both directions (see protocol.h / DESIGN.md §10).
///
/// Structure:
///  - accept thread: poll()s the listen socket plus a self-pipe; hands
///    each accepted connection to an event-loop shard round-robin, and
///    runs the drain when the pipe fires;
///  - event-loop shards: `event_loops` epoll threads owning the session
///    state (nonblocking sockets, per-connection buffers, watch
///    subscriptions grouped into cadence classes) — see event_loop.h;
///  - dispatcher thread: pops the admission queue (per-session fair-share,
///    at most `max_inflight` running) and submits queries to the fleet;
///  - fleet: a TaskScheduler shared with the engine's intra-query
///    parallelism — each admitted query is a query-lane task tagged with
///    its id, and any morsel/partition fan-out it performs lands on the
///    same workers as subtasks. Workers run each query to completion,
///    publishing snapshots through the per-query SnapshotSlot, which the
///    loops' broadcast cache serializes once per (query, cadence class)
///    and fans out to every watcher.
///
/// Snapshot delivery is *coalescing*: each cadence-class due instant is
/// built from the query's *latest* snapshot slot, and a connection whose
/// write queue is over the watermark skips the instant entirely — a slow
/// client sees fewer snapshots, always the freshest, never a backlog.
///
/// Graceful drain (SIGTERM via the self-pipe, or Shutdown()): stop
/// admitting, cancel still-queued queries, let running queries finish
/// (RequestCancel on stragglers past `drain_deadline`), flush a terminal
/// snapshot to every watcher plus a bye line, join every thread.
class QpiServer {
 public:
  struct Options {
    uint16_t port = 0;  ///< 0 = ephemeral; see port() after Start()
    size_t max_inflight = 2;
    size_t exec_workers = 2;  ///< scheduler fleet size
    /// Event-loop shards serving the connections. A small number: each
    /// shard multiplexes thousands of nonblocking sockets, so this scales
    /// with cores spent on delivery, not with watcher count.
    size_t event_loops = 2;
    uint64_t publish_interval = 1024;
    size_t max_line_bytes = kDefaultMaxLineBytes;
    /// Per-query trace-ring capacity (samples kept per progress curve).
    size_t trace_capacity = TraceRing::kDefaultCapacity;
    /// How long running queries may keep draining before RequestCancel.
    std::chrono::milliseconds drain_deadline{2000};
    /// How long a session writer may take to flush final snapshots.
    std::chrono::milliseconds session_drain_deadline{1000};
    /// Run the concurrent candidate estimators + selector per query and
    /// route the published T̂ through the selection (the ensemble). Off,
    /// queries publish exactly the paper's single-estimator curve.
    bool ensemble = true;
    /// When non-empty, the cross-query feedback cache is loaded from this
    /// file at Start() (missing file is fine) and saved there at drain.
    std::string feedback_cache_path;
    /// Route SIGTERM to this server's drain via the self-pipe. At most one
    /// server per process may enable this.
    bool install_sigterm_handler = false;
  };

  /// `catalog` is borrowed and must outlive the server; it is read-only
  /// while the server runs.
  QpiServer(Catalog* catalog, Options options);
  ~QpiServer();

  QpiServer(const QpiServer&) = delete;
  QpiServer& operator=(const QpiServer&) = delete;

  /// Bind + listen + start the accept and dispatcher threads.
  Status Start();

  /// The bound port (after a successful Start()).
  uint16_t port() const { return port_; }

  /// Trigger the drain asynchronously (signal-safe path: one byte down the
  /// self-pipe). The accept thread runs the drain.
  void RequestDrain();

  /// Drain and join everything. Idempotent; also called by the destructor.
  void Shutdown();

  bool draining() const {
    return draining_.load(std::memory_order_acquire);
  }

  // -- session-facing API (thread-safe) --

  /// Plan + compile + enqueue a statement. On success `*id` names the
  /// query; it starts in the "queued" wire state. `tenant` selects the
  /// admission fair-share lane (sessions pass their session id).
  Status Submit(const std::string& sql, uint64_t* id, uint64_t tenant = 0) {
    return Submit(sql, nullptr, id, tenant);
  }

  /// Same, optionally with online aggregation: a non-null `ola` runs the
  /// query as an OLA query (the plan must contain an aggregation), which
  /// streams `(estimate, CI half-width)` per aggregate alongside progress
  /// and may early-terminate on the configured stop condition.
  Status Submit(const std::string& sql, const OlaOptions* ola, uint64_t* id,
                uint64_t tenant = 0);

  /// Cancel a queued (removed before it runs) or running (cooperative
  /// RequestCancel) query.
  Status CancelQuery(uint64_t id);

  /// OLA stop verb: accept the current approximate answer of a running OLA
  /// query. The query early-terminates through the cancellation path and
  /// lands in the "ola_stopped" terminal with its final estimate published.
  /// InvalidArgument for queries not submitted with OLA.
  Status StopQuery(uint64_t id);

  QueryHandle* FindQuery(uint64_t id);

  /// Build one wire snapshot from the query's latest published state.
  /// `seq` is the stream sequence number (the broadcast cache's per-class
  /// counter); `force_final` marks it final regardless of terminal state
  /// (the drain flush of queries that never ran). Reads the terminal
  /// state BEFORE the slot to inherit the terminal-exactness ordering.
  WireSnapshot BuildWireSnapshot(QueryHandle* handle, uint64_t seq,
                                 bool force_final);

  ServerStats GetStats() const;

  /// Fill a TRACE reply for query `id`: the retained curve, the plan's
  /// operator labels, and (once terminal) the accuracy audit.
  Status BuildTrace(uint64_t id, TraceDump* out);

  /// The /metrics text exposition: refreshes the gauges from GetStats()
  /// and renders every registered instrument.
  std::string RenderMetricsText();

  ServerMetrics& metrics() { return metrics_; }

  /// The server-wide cross-query feedback cache (internally locked).
  FeedbackCache* feedback_cache() { return &feedback_cache_; }

 private:
  void AcceptLoop();
  void DispatchLoop();
  void RunOne(QueryHandle* handle);
  /// The run's on_outcome: terminal counters, trace-sample count, audit
  /// error histograms and selector counts, all before the terminal store.
  void CountOutcome(const QueryHandle* handle, QueryRun::Terminal terminal,
                    const AccuracyReport& report);
  /// Refresh the cached scheduler counters from the fleet (no-op when the
  /// fleet is gone, keeping the last values — so stats rendered after
  /// drain step 5 still see the totals). Safe from any thread.
  void SyncSchedulerStats() const;
  /// Terminalize a query that never ran (cancelled while queued / at
  /// drain): publishes its seeded snapshot as final with state cancelled.
  void TerminalizeQueued(QueryHandle* handle);
  void DrainInternal();

  Catalog* catalog_;
  Options options_;
  uint16_t port_ = 0;
  int listen_fd_ = -1;
  int pipe_fds_[2] = {-1, -1};  ///< self-pipe: [0] polled, [1] written

  AdmissionQueue admission_;
  /// The unified worker fleet. Guarded by fleet_mu_ for the reset at drain
  /// step 5 racing stats renders from still-open sessions.
  mutable std::mutex fleet_mu_;
  std::unique_ptr<TaskScheduler> fleet_;
  /// Last-seen fleet counters (see SyncSchedulerStats).
  mutable std::atomic<uint64_t> sched_tasks_[kNumTaskLanes] = {};
  mutable std::atomic<uint64_t> sched_stolen_{0};
  mutable std::atomic<size_t> sched_depth_{0};
  std::thread accept_thread_;
  std::thread dispatch_thread_;
  std::atomic<uint64_t> next_tenant_{1};  ///< session fair-share lane ids

  mutable std::mutex queries_mu_;
  std::unordered_map<uint64_t, std::unique_ptr<QueryHandle>> queries_;
  std::atomic<uint64_t> next_id_{1};

  /// Broadcast fan-out cache, shared by every loop shard. Declared before
  /// the loops so it outlives them on destruction.
  SnapshotBroadcast broadcast_{this};
  std::vector<std::unique_ptr<EventLoop>> loops_;
  size_t next_loop_ = 0;  ///< accept-thread round-robin cursor

  ServerMetrics metrics_;
  FeedbackCache feedback_cache_;

  std::atomic<bool> started_{false};
  std::atomic<bool> draining_{false};
  std::mutex drained_mu_;
  std::condition_variable drained_cv_;
  bool drained_ = false;
  bool sigterm_installed_ = false;
};

}  // namespace qpi

#endif  // QPI_SERVICE_SERVER_H_
