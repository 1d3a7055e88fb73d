#include "service/server.h"

#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <functional>
#include <utility>

#include "exec/compiler.h"
#include "progress/snapshot_json.h"
#include "service/metrics_text.h"
#include "service/net.h"
#include "sql/planner.h"

namespace qpi {

namespace {

/// Self-pipe write end for the SIGTERM handler. The handler body is
/// async-signal-safe: one relaxed load and one write(2).
std::atomic<int> g_sigterm_pipe{-1};

extern "C" void QpiServeSigtermHandler(int) {
  int fd = g_sigterm_pipe.load(std::memory_order_relaxed);
  if (fd >= 0) {
    char byte = 1;
    ssize_t rc = ::write(fd, &byte, 1);
    (void)rc;
  }
}

/// |T̂/T − 1| — the estimator's relative error given the paper's accuracy
/// ratio r = T/T̂. Callers must guard: a non-finite or non-positive r has
/// no defined error (division blows up or flips sign) and such checkpoints
/// are skipped and counted, never observed.
double RelativeErrorFromRatio(double r) { return std::fabs(1.0 / r - 1.0); }

/// A checkpoint ratio usable for estimator scoring: finite and positive,
/// and not from a checkpoint the audit flagged degenerate (terminal-sample
/// satisfied, where R = 1 by construction).
bool ScorableRatio(double r, bool degenerate) {
  return !degenerate && std::isfinite(r) && r > 0;
}

}  // namespace

ServerMetrics::ServerMetrics() {
  submits = registry.AddCounter("qpi_submits_total",
                                "Queries accepted by SUBMIT.");
  finished = registry.AddCounter(
      "qpi_queries_terminal_total",
      "Queries reaching a terminal state, by kind.", "kind=\"finished\"");
  failed = registry.AddCounter("qpi_queries_terminal_total",
                               "Queries reaching a terminal state, by kind.",
                               "kind=\"failed\"");
  cancelled = registry.AddCounter(
      "qpi_queries_terminal_total",
      "Queries reaching a terminal state, by kind.", "kind=\"cancelled\"");
  trace_samples = registry.AddCounter(
      "qpi_trace_samples_total",
      "Progress samples offered to per-query trace rings.");
  queue_depth =
      registry.AddGauge("qpi_queue_depth", "Queries waiting for admission.");
  running =
      registry.AddGauge("qpi_queries_running", "Queries currently executing.");
  sessions = registry.AddGauge("qpi_sessions", "Open client sessions.");
  watchers = registry.AddGauge("qpi_watchers", "Active progress watches.");
  draining = registry.AddGauge("qpi_draining",
                               "1 while the graceful drain runs, else 0.");
  delivery_ms = registry.AddHistogram(
      "qpi_snapshot_delivery_ms",
      "Publish-to-socket-write latency of streamed snapshots.",
      {0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250});
  const std::vector<double> error_bounds = {0.01, 0.02, 0.05, 0.1,
                                            0.2,  0.5,  1,    2,   5};
  relative_error = registry.AddHistogram(
      "qpi_estimator_relative_error",
      "Estimator relative error |T_hat/T - 1| at the 25/50/75% "
      "checkpoints of finished queries.",
      error_bounds);
  for (size_t c = 0; c < kNumEstimatorCandidates; ++c) {
    std::string label = "estimator=\"";
    label += EstimationModeName(static_cast<EstimationMode>(c));
    label += '"';
    candidate_error[c] = registry.AddHistogram(
        "qpi_estimator_relative_error",
        "Estimator relative error |T_hat/T - 1| at the 25/50/75% "
        "checkpoints of finished queries.",
        error_bounds, label);
  }
  audit_skipped = registry.AddCounter(
      "qpi_audit_checkpoints_skipped_total",
      "Audit checkpoints excluded from the error histograms (degenerate "
      "terminal-sample checkpoints, or R non-finite / not positive).");
  for (size_t c = 0; c < kNumEstimatorCandidates; ++c) {
    std::string label = "estimator=\"";
    label += EstimationModeName(static_cast<EstimationMode>(c));
    label += '"';
    selected[c] = registry.AddCounter(
        "qpi_estimator_selected_total",
        "Operators whose selector finished the query on each candidate.",
        label);
  }
  for (size_t l = 0; l < kNumTaskLanes; ++l) {
    std::string label = "lane=\"";
    label += TaskLaneName(static_cast<TaskLane>(l));
    label += '"';
    tasks_executed[l] = registry.AddCounter(
        "qpi_tasks_executed_total",
        "Tasks executed by the scheduler fleet, by lane.", label);
  }
  tasks_stolen = registry.AddCounter(
      "qpi_tasks_stolen_total",
      "Tasks stolen from another worker's deque before executing.");
  run_queue_depth = registry.AddGauge(
      "qpi_run_queue_depth",
      "Tasks submitted to the scheduler fleet and not yet finished.");
  ola_ci_halfwidth = registry.AddGauge(
      "qpi_ola_ci_halfwidth",
      "Widest CI half-width across the aggregates of the most recently "
      "published online-aggregation snapshot.");
  ola_early_stops = registry.AddCounter(
      "qpi_ola_early_stops_total",
      "Online-aggregation queries early-terminated by a stop condition or "
      "a client stop verb.");
  feedback_cache_load_errors = registry.AddCounter(
      "qpi_feedback_cache_load_errors_total",
      "Feedback-cache files that failed to load at startup (corrupt or "
      "unreadable); the server starts cold instead of aborting.");
}

QpiServer::QpiServer(Catalog* catalog, Options options)
    : catalog_(catalog),
      options_(options),
      admission_(options.max_inflight) {}

QpiServer::~QpiServer() {
  Shutdown();
  for (int fd : pipe_fds_) {
    if (fd >= 0) ::close(fd);
  }
}

Status QpiServer::Start() {
  if (!options_.feedback_cache_path.empty()) {
    // Best-effort warm start: a missing or malformed cache file only means
    // the selector starts cold, never that the server fails to come up.
    // Corrupt files are counted and warned about so operators notice.
    Status load = feedback_cache_.LoadFromFile(options_.feedback_cache_path);
    if (!load.ok() && load.code() != Status::Code::kNotFound) {
      metrics_.feedback_cache_load_errors->Increment();
      std::fprintf(stderr, "qpi-serve: ignoring feedback cache %s: %s\n",
                   options_.feedback_cache_path.c_str(),
                   load.ToString().c_str());
    }
  }
  QPI_RETURN_NOT_OK(TcpListen(options_.port, &listen_fd_, &port_));
  if (::pipe(pipe_fds_) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Internal("pipe: failed to create the drain self-pipe");
  }
  if (options_.install_sigterm_handler) {
    g_sigterm_pipe.store(pipe_fds_[1], std::memory_order_relaxed);
    struct sigaction action {};
    action.sa_handler = QpiServeSigtermHandler;
    ::sigemptyset(&action.sa_mask);
    ::sigaction(SIGTERM, &action, nullptr);
    sigterm_installed_ = true;
  }
  {
    std::lock_guard<std::mutex> lock(fleet_mu_);
    fleet_ = std::make_unique<TaskScheduler>(options_.exec_workers);
  }
  size_t num_loops = options_.event_loops > 0 ? options_.event_loops : 1;
  for (size_t i = 0; i < num_loops; ++i) {
    auto loop = std::make_unique<EventLoop>(this, &broadcast_,
                                            options_.max_line_bytes,
                                            options_.session_drain_deadline);
    Status s = loop->Start();
    if (!s.ok()) {
      loops_.clear();
      {
        std::lock_guard<std::mutex> lock(fleet_mu_);
        fleet_.reset();
      }
      ::close(listen_fd_);
      listen_fd_ = -1;
      return s;
    }
    loops_.push_back(std::move(loop));
  }
  started_.store(true, std::memory_order_release);
  dispatch_thread_ = std::thread([this] { DispatchLoop(); });
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void QpiServer::RequestDrain() {
  int fd = pipe_fds_[1];
  if (fd >= 0) {
    char byte = 1;
    ssize_t rc = ::write(fd, &byte, 1);
    (void)rc;
  }
}

void QpiServer::Shutdown() {
  if (!started_.load(std::memory_order_acquire)) return;
  RequestDrain();
  {
    std::unique_lock<std::mutex> lock(drained_mu_);
    drained_cv_.wait(lock, [this] { return drained_; });
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  if (sigterm_installed_) {
    g_sigterm_pipe.store(-1, std::memory_order_relaxed);
    struct sigaction action {};
    action.sa_handler = SIG_DFL;
    ::sigemptyset(&action.sa_mask);
    ::sigaction(SIGTERM, &action, nullptr);
    sigterm_installed_ = false;
  }
  started_.store(false, std::memory_order_release);
}

Status QpiServer::Submit(const std::string& sql, const OlaOptions* ola,
                         uint64_t* id, uint64_t tenant) {
  if (draining()) {
    return Status::Internal("server is draining; submissions are closed");
  }
  SqlPlanner planner(catalog_);
  PlanNodePtr plan;
  QPI_RETURN_NOT_OK(planner.PlanQuery(sql, &plan));
  auto ctx = std::make_unique<ExecContext>();
  ctx->catalog = catalog_;
  // Served queries fan intra-query subtasks (morsel scans, grace-join
  // partitions) out on the shared fleet; the per-query tag keeps the
  // sharing fair when several queries are inflight.
  ctx->exec_workers = options_.exec_workers;
  if (ola != nullptr) {
    ctx->ola = *ola;
    ctx->ola.enabled = true;
  }
  QPI_RETURN_NOT_OK(ctx->Validate());
  OperatorPtr root;
  QPI_RETURN_NOT_OK(CompilePlan(plan.get(), ctx.get(), &root));
  auto handle = std::make_unique<QueryHandle>(
      std::move(root), std::move(ctx), options_.trace_capacity,
      options_.ensemble, &feedback_cache_);
  handle->tenant = tenant;
  handle->sql = sql;
  if (ola != nullptr) {
    QPI_RETURN_NOT_OK(AttachOla(handle->root.get(), handle->ctx.get(),
                              &handle->ola_slot, &handle->ola));
    handle->ola->set_publish_hook([this](const OlaSnapshot& snap) {
      double max_hw = -1.0;
      for (uint32_t a = 0; a < snap.num_aggregates; ++a) {
        if (std::isfinite(snap.half_width[a]) &&
            snap.half_width[a] > max_hw) {
          max_hw = snap.half_width[a];
        }
      }
      if (max_hw >= 0.0) metrics_.ola_ci_halfwidth->Set(max_hw);
    });
    // Seed the slot so watchers that poll before the first publish tick
    // already see the aggregate labels and an infinite half-width instead
    // of a zero-length snapshot.
    handle->ola_slot.Store(handle->ola->Snapshot(0));
    handle->ola_feed = handle->ola.get();
  }
  handle->id = next_id_.fetch_add(1, std::memory_order_relaxed);
  QueryHandle* raw = handle.get();
  {
    std::lock_guard<std::mutex> lock(queries_mu_);
    queries_.emplace(raw->id, std::move(handle));
  }
  if (!admission_.Enqueue(raw, tenant)) {
    // The drain closed admission between the check above and here; the id
    // is already visible, so terminalize it rather than leak a handle a
    // watcher could wait on forever.
    TerminalizeQueued(raw);
    return Status::Internal("server is draining; submissions are closed");
  }
  metrics_.submits->Increment();
  *id = raw->id;
  return Status::OK();
}

Status QpiServer::CancelQuery(uint64_t id) {
  QueryHandle* handle = FindQuery(id);
  if (handle == nullptr) {
    return Status::NotFound("no such query id " + std::to_string(id));
  }
  if (handle->IsTerminal()) return Status::OK();  // idempotent
  if (admission_.Remove(handle)) {
    // Still queued: it never claimed an inflight slot, so terminalize it
    // directly — watchers get a final "cancelled" snapshot at progress 0.
    TerminalizeQueued(handle);
    return Status::OK();
  }
  // Running (or about to): cooperative cancellation; the worker drains it
  // and records the terminal state.
  handle->ctx->RequestCancel();
  return Status::OK();
}

Status QpiServer::StopQuery(uint64_t id) {
  QueryHandle* handle = FindQuery(id);
  if (handle == nullptr) {
    return Status::NotFound("no such query id " + std::to_string(id));
  }
  if (handle->ola == nullptr) {
    return Status::InvalidArgument(
        "query " + std::to_string(id) +
        " was not submitted with online aggregation; use cancel");
  }
  if (handle->IsTerminal()) return Status::OK();  // idempotent
  if (admission_.Remove(handle)) {
    // Never ran: there is no estimate to accept; terminalize as cancelled
    // exactly like a cancel of a queued query.
    TerminalizeQueued(handle);
    return Status::OK();
  }
  // Running: early-terminate through the cancellation path, remembering it
  // was an accept-the-estimate stop (the worker classifies the terminal
  // via ctx->OlaStopped()).
  handle->ctx->RequestOlaStop();
  return Status::OK();
}

QueryHandle* QpiServer::FindQuery(uint64_t id) {
  std::lock_guard<std::mutex> lock(queries_mu_);
  auto it = queries_.find(id);
  return it == queries_.end() ? nullptr : it->second.get();
}

ServerStats QpiServer::GetStats() const {
  ServerStats stats;
  stats.submitted = metrics_.submits->Value();
  stats.queued = admission_.pending();
  stats.running = admission_.inflight();
  stats.finished = metrics_.finished->Value();
  stats.failed = metrics_.failed->Value();
  stats.cancelled = metrics_.cancelled->Value();
  stats.max_inflight = admission_.max_inflight();
  stats.draining = draining();
  stats.ola_stopped = metrics_.ola_early_stops->Value();
  SyncSchedulerStats();
  stats.tasks_query = sched_tasks_[0].load(std::memory_order_relaxed);
  stats.tasks_morsel = sched_tasks_[1].load(std::memory_order_relaxed);
  stats.tasks_stolen = sched_stolen_.load(std::memory_order_relaxed);
  stats.run_queue_depth = sched_depth_.load(std::memory_order_relaxed);
  for (const auto& loop : loops_) {
    stats.sessions += loop->num_connections();
    stats.watchers += loop->num_watches();
    stats.snapshot_sends += loop->snapshots_sent();
  }
  stats.snapshot_builds = broadcast_.serializations();
  return stats;
}

WireSnapshot QpiServer::BuildWireSnapshot(QueryHandle* h, uint64_t seq,
                                          bool force_final) {
  WireSnapshot snap;
  snap.id = h->id;
  snap.seq = seq;
  // Read the terminal state BEFORE the slot: the worker publishes the
  // terminal snapshot first and stores the terminal state with release
  // ordering, so observing a terminal state here guarantees the slot load
  // below returns the exact final T̂ = C snapshot.
  bool terminal = h->IsTerminal();
  snap.state = h->WireState();
  snap.final_snapshot = terminal || force_final;
  snap.gnm = h->slot.Load();
  // No per-stream clamp needed: Progress() maintains a query-global
  // CAS-max floor, so consecutive builds are monotone for every stream.
  snap.progress = h->Progress();
  snap.rows = h->rows_emitted.load(std::memory_order_relaxed);
  snap.server_ms = MonotonicMs();
  snap.ops = CollectOperatorCounters(*h->accountant);
  if (h->ola != nullptr) {
    OlaSnapshot ola = h->ola_slot.Load();
    snap.ola.present = true;
    snap.ola.draws = ola.draws;
    snap.ola.groups = ola.groups;
    snap.ola.frozen = ola.frozen;
    snap.ola.exact = ola.exact;
    snap.ola.labels = h->ola->labels();
    snap.ola.estimate.assign(ola.estimate, ola.estimate + ola.num_aggregates);
    snap.ola.half_width.assign(ola.half_width,
                               ola.half_width + ola.num_aggregates);
  }
  return snap;
}

Status QpiServer::BuildTrace(uint64_t id, TraceDump* out) {
  QueryHandle* handle = FindQuery(id);
  if (handle == nullptr) {
    return Status::NotFound("no such query id " + std::to_string(id));
  }
  *out = TraceDump();
  out->id = id;
  // Read terminal state once; reading it *before* the samples would let a
  // terminal sample arrive in between and pair a "running" state with a
  // finished curve — harmless, but reading state last keeps the pair
  // consistent whenever the audit is present.
  out->op_labels = handle->op_labels;
  out->samples = handle->trace->Samples();
  out->stride = handle->trace->stride();
  out->offered = handle->trace->offered();
  out->state = handle->WireState();
  // audit_json is written by the worker before the terminal release-store,
  // so observing a terminal state (acquire) makes this read race-free.
  out->audit_json = handle->IsTerminal() ? handle->audit_json : "null";
  return Status::OK();
}

void QpiServer::SyncSchedulerStats() const {
  // One lock serves two purposes: the fleet pointer cannot be reset by
  // drain step 5 mid-read, and concurrent renderers cannot both apply the
  // same counter delta (which would double-count).
  std::lock_guard<std::mutex> lock(fleet_mu_);
  if (fleet_ == nullptr) return;  // post-drain renders keep the last totals
  auto& metrics = const_cast<QpiServer*>(this)->metrics_;
  for (size_t l = 0; l < kNumTaskLanes; ++l) {
    uint64_t total = fleet_->tasks_executed(static_cast<TaskLane>(l));
    sched_tasks_[l].store(total, std::memory_order_relaxed);
    metrics.tasks_executed[l]->Increment(total -
                                         metrics.tasks_executed[l]->Value());
  }
  uint64_t stolen = fleet_->tasks_stolen();
  sched_stolen_.store(stolen, std::memory_order_relaxed);
  metrics.tasks_stolen->Increment(stolen - metrics.tasks_stolen->Value());
  size_t depth = fleet_->run_queue_depth();
  sched_depth_.store(depth, std::memory_order_relaxed);
  metrics.run_queue_depth->Set(static_cast<double>(depth));
}

std::string QpiServer::RenderMetricsText() {
  ServerStats stats = GetStats();  // refreshes the scheduler counters too
  metrics_.queue_depth->Set(static_cast<double>(stats.queued));
  metrics_.running->Set(static_cast<double>(stats.running));
  metrics_.sessions->Set(static_cast<double>(stats.sessions));
  metrics_.watchers->Set(static_cast<double>(stats.watchers));
  metrics_.draining->Set(stats.draining ? 1.0 : 0.0);
  return RenderPrometheusText(metrics_.registry);
}

void QpiServer::DispatchLoop() {
  // The dispatcher outlives the fleet reset only by the drain protocol
  // (step 3 joins this thread before step 5 resets fleet_), so the raw
  // access is safe. Each admitted query is a query-lane task tagged with
  // its id: with several inflight, the fleet round-robins dispatch across
  // them instead of draining one query's backlog first.
  while (QueryHandle* handle = admission_.NextRunnable()) {
    fleet_->Submit(TaskLane::kQuery, handle->id,
                   [this, handle] { RunOne(handle); });
  }
}

void QpiServer::RunOne(QueryHandle* handle) {
  handle->Execute(fleet_.get(), handle->id, options_.publish_interval,
                  std::bind_front(&QpiServer::CountOutcome, this, handle));
  admission_.OnComplete(handle->tenant);
}

void QpiServer::CountOutcome(const QueryHandle* handle,
                             QueryRun::Terminal terminal,
                             const AccuracyReport& report) {
  // The ring counts every sample it was offered, seed and terminal
  // included, whether or not the query ever ran.
  metrics_.trace_samples->Increment(handle->trace->offered());
  switch (terminal) {
    case QueryRun::Terminal::kFailed:
      metrics_.failed->Increment();
      return;
    case QueryRun::Terminal::kCancelled:
      metrics_.cancelled->Increment();
      return;
    case QueryRun::Terminal::kOlaStopped:
      metrics_.ola_early_stops->Increment();
      return;
    case QueryRun::Terminal::kFinished:
      break;
    case QueryRun::Terminal::kNone:
      return;
  }
  metrics_.finished->Increment();
  for (const CheckpointAccuracy& cp : report.checkpoints) {
    if (!ScorableRatio(cp.r, cp.degenerate)) {
      metrics_.audit_skipped->Increment();
    } else {
      metrics_.relative_error->Observe(RelativeErrorFromRatio(cp.r));
    }
    for (size_t c = 0;
         c < cp.candidate_r.size() && c < kNumEstimatorCandidates; ++c) {
      if (ScorableRatio(cp.candidate_r[c], cp.degenerate)) {
        metrics_.candidate_error[c]->Observe(
            RelativeErrorFromRatio(cp.candidate_r[c]));
      }
    }
  }
  if (handle->ensemble != nullptr) {
    std::vector<uint64_t> counts = handle->ensemble->SelectedCounts();
    for (size_t c = 0; c < counts.size() && c < kNumEstimatorCandidates;
         ++c) {
      if (counts[c] > 0) metrics_.selected[c]->Increment(counts[c]);
    }
  }
}

void QpiServer::TerminalizeQueued(QueryHandle* handle) {
  handle->TerminalizeQueued(
      std::bind_front(&QpiServer::CountOutcome, this, handle));
}

void QpiServer::AcceptLoop() {
  while (true) {
    struct pollfd fds[2];
    fds[0].fd = listen_fd_;
    fds[0].events = POLLIN;
    fds[0].revents = 0;
    fds[1].fd = pipe_fds_[0];
    fds[1].events = POLLIN;
    fds[1].revents = 0;
    int rc = ::poll(fds, 2, 100);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[1].revents != 0) break;  // drain requested
    if (fds[0].revents & POLLIN) {
      int client_fd = ::accept(listen_fd_, nullptr, nullptr);
      if (client_fd < 0) continue;
      // Shard round-robin: connection state lives entirely on its loop.
      loops_[next_loop_]->AddConnection(
          client_fd, next_tenant_.fetch_add(1, std::memory_order_relaxed));
      next_loop_ = (next_loop_ + 1) % loops_.size();
    }
  }
  DrainInternal();
}

/// Drain state machine (documented in DESIGN.md §10):
///  1. draining: Submit rejects, admission closes;
///  2. still-queued queries terminalize as cancelled;
///  3. the dispatcher joins (NextRunnable returns nullptr);
///  4. running queries get drain_deadline to finish, then RequestCancel;
///  5. the scheduler fleet drains its queued tasks and joins;
///  6. every event loop flushes one final snapshot per watch + bye, closes
///     connections as their queues empty (deadline-bounded), and joins;
///  7. the listen socket closes and drained_ flips.
void QpiServer::DrainInternal() {
  draining_.store(true, std::memory_order_release);
  admission_.CloseAdmission();
  for (QueryHandle* handle : admission_.DrainPending()) {
    TerminalizeQueued(handle);
  }
  if (dispatch_thread_.joinable()) dispatch_thread_.join();
  if (!admission_.WaitIdle(options_.drain_deadline)) {
    std::lock_guard<std::mutex> lock(queries_mu_);
    for (auto& [id, handle] : queries_) {
      (void)id;
      if (!handle->IsTerminal()) handle->ctx->RequestCancel();
    }
  }
  // Cancelled queries drain cooperatively (bounded by their tick path),
  // so this wait terminates; a generous cap keeps a wedged build from
  // hanging the process forever.
  admission_.WaitIdle(std::chrono::milliseconds(60000));
  SyncSchedulerStats();  // final counter refresh before the fleet dies
  {
    std::lock_guard<std::mutex> lock(fleet_mu_);
    fleet_.reset();  // drains stragglers and joins the fleet workers
  }
  if (!options_.feedback_cache_path.empty()) {
    // All workers joined: no Finalize() runs concurrently, the cache is
    // quiescent, and what we persist is the post-drain state.
    (void)feedback_cache_.SaveToFile(options_.feedback_cache_path);
  }

  // Each loop enforces session_drain_deadline internally: flush finals +
  // bye, close connections as their queues empty, force-close stragglers.
  for (auto& loop : loops_) loop->BeginDrain();
  for (auto& loop : loops_) loop->Join();

  ::close(listen_fd_);
  listen_fd_ = -1;
  {
    std::lock_guard<std::mutex> lock(drained_mu_);
    drained_ = true;
  }
  drained_cv_.notify_all();
}

}  // namespace qpi
