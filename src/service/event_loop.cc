#include "service/event_loop.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <limits>

#include "service/net.h"
#include "service/protocol_binary.h"
#include "service/server.h"

namespace qpi {

namespace {

/// Snapshot watermark: a connection whose write queue already holds this
/// much gets no new (non-final) snapshot at a due instant — the watch
/// stays subscribed and picks up a fresher build later. This is the
/// event-loop spelling of the old coalesce-to-latest rule: a slow client
/// sees fewer, fresher snapshots, never a backlog.
constexpr size_t kSnapshotSkipBytes = 64 * 1024;

/// Hostile cap: only a client that pumps requests while never reading its
/// socket can push the queue this far (every request makes at most one
/// control reply, and snapshots stop at the watermark above). Past it the
/// connection is cut loose rather than buffered without bound.
constexpr size_t kHostileOutboxBytes = 4 * 1024 * 1024;

/// How long a draining loop gives its connections to flush their final
/// snapshots before it force-closes them.
constexpr double kSessionDrainDeadlineMs = 1000;

uint64_t PeriodBits(double period_ms) {
  uint64_t bits;
  std::memcpy(&bits, &period_ms, sizeof(bits));
  return bits;
}

}  // namespace

SnapshotBuffers SnapshotBroadcast::Get(QueryHandle* handle,
                                       uint64_t period_bits, uint64_t slot,
                                       bool want_binary, bool force_final) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& e = entries_[{handle->id, period_bits}];
  bool rebuild = slot == kImmediateSlot || e.slot != slot ||
                 e.bufs.json == nullptr;
  if (rebuild) {
    e.snap = server_->BuildWireSnapshot(handle, e.next_seq++, force_final);
    e.bufs.json = std::make_shared<const std::string>(EncodeSnapshot(e.snap));
    e.bufs.binary = nullptr;
    e.bufs.built_ms = e.snap.server_ms;
    e.bufs.final_snapshot = e.snap.final_snapshot;
    e.slot = slot;
    serializations_.fetch_add(1, std::memory_order_relaxed);
  }
  if (want_binary && e.bufs.binary == nullptr) {
    e.bufs.binary =
        std::make_shared<const std::string>(EncodeSnapshotFrame(e.snap));
    serializations_.fetch_add(1, std::memory_order_relaxed);
  }
  return e.bufs;
}

EventLoop::EventLoop(QpiServer* server, SnapshotBroadcast* broadcast)
    : server_(server), broadcast_(broadcast) {}

EventLoop::~EventLoop() {
  BeginDrain();
  Join();
  for (auto& [fd, tenant] : pending_) {
    (void)tenant;
    ::close(fd);
  }
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

Status EventLoop::Start() {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    return Status::Internal(std::string("epoll_create1: ") +
                            std::strerror(errno));
  }
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd_ < 0) {
    ::close(epoll_fd_);
    epoll_fd_ = -1;
    return Status::Internal(std::string("eventfd: ") + std::strerror(errno));
  }
  struct epoll_event ev {};
  ev.events = EPOLLIN;
  ev.data.fd = wake_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) != 0) {
    return Status::Internal(std::string("epoll_ctl: ") +
                            std::strerror(errno));
  }
  thread_ = std::thread([this] { Run(); });
  return Status::OK();
}

void EventLoop::Wake() {
  if (wake_fd_ < 0) return;
  uint64_t one = 1;
  ssize_t rc = ::write(wake_fd_, &one, sizeof(one));
  (void)rc;
}

void EventLoop::AddConnection(int fd, uint64_t tenant) {
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    pending_.emplace_back(fd, tenant);
  }
  Wake();
}

void EventLoop::BeginDrain() {
  drain_requested_.store(true, std::memory_order_release);
  Wake();
}

void EventLoop::Join() {
  if (thread_.joinable()) thread_.join();
}

void EventLoop::AdoptPending() {
  std::vector<std::pair<int, uint64_t>> fresh;
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    fresh.swap(pending_);
  }
  for (auto& [fd, tenant] : fresh) {
    if (draining_) {
      // Raced the drain; this connection never existed as far as the
      // protocol is concerned.
      ::close(fd);
      continue;
    }
    Status nb = SetNonBlocking(fd, true);
    if (!nb.ok()) {
      ::close(fd);
      continue;
    }
    // Snapshots are small writes on a cadence: without TCP_NODELAY the
    // Nagle/delayed-ACK interaction parks each one behind the previous
    // snapshot's ACK for tens of milliseconds — dwarfing the cadence.
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_unique<Conn>();
    conn->fd = fd;
    conn->tenant = tenant;
    Conn* raw = conn.get();
    struct epoll_event ev {};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      continue;
    }
    conns_.emplace(fd, std::move(conn));
    conn_count_.fetch_add(1, std::memory_order_relaxed);
    EnqueueControl(raw, EncodeHello());
  }
}

int EventLoop::ComputeTimeoutMs(double now) const {
  if (draining_) return 5;
  double next_due = std::numeric_limits<double>::infinity();
  for (const auto& [key, cls] : classes_) {
    (void)key;
    next_due = std::min(next_due,
                        static_cast<double>(cls.next_slot) * cls.period_ms);
  }
  if (!std::isfinite(next_due)) return 100;
  double wait = next_due - now;
  if (wait <= 0) return 0;
  if (wait > 100) return 100;
  return static_cast<int>(std::ceil(wait));
}

void EventLoop::Run() {
  constexpr int kMaxEvents = 128;
  struct epoll_event events[kMaxEvents];
  while (true) {
    AdoptPending();
    if (drain_requested_.load(std::memory_order_acquire) && !draining_) {
      EnterDrain();
    }
    if (draining_) {
      if (conns_.empty()) break;
      if (MonotonicMs() > drain_deadline_ms_) {
        // Whoever has not drained its flush by now is not reading;
        // force-close the stragglers and go.
        for (auto& [fd, conn] : conns_) {
          (void)fd;
          conn->dead = true;
        }
        SweepDead();
        break;
      }
    }
    int timeout = ComputeTimeoutMs(MonotonicMs());
    int n = ::epoll_wait(epoll_fd_, events, kMaxEvents, timeout);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      int fd = events[i].data.fd;
      if (fd == wake_fd_) {
        uint64_t drainv;
        while (::read(wake_fd_, &drainv, sizeof(drainv)) > 0) {
        }
        continue;
      }
      // Look up by fd, not pointer: an earlier event in this batch may
      // have closed (and erased) the connection.
      auto it = conns_.find(fd);
      if (it == conns_.end()) continue;
      HandleEvent(it->second.get(), events[i].events);
    }
    if (!draining_) FireDueClasses(MonotonicMs());
    SweepDead();
  }
  for (auto& [fd, conn] : conns_) {
    (void)conn;
    ::close(fd);
  }
  size_t watches = 0;
  for (auto& [fd, conn] : conns_) {
    (void)fd;
    watches += conn->watches.size();
  }
  watch_count_.fetch_sub(watches, std::memory_order_relaxed);
  conn_count_.fetch_sub(conns_.size(), std::memory_order_relaxed);
  conns_.clear();
  classes_.clear();
}

void EventLoop::HandleEvent(Conn* conn, uint32_t events) {
  if ((events & (EPOLLERR | EPOLLHUP)) != 0) {
    conn->dead = true;
    return;
  }
  if ((events & EPOLLOUT) != 0) TryFlush(conn);
  if ((events & EPOLLIN) != 0) HandleReadable(conn);
}

void EventLoop::HandleReadable(Conn* conn) {
  char chunk[4096];
  while (!conn->dead) {
    ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), 0);
    if (n > 0) {
      if (conn->closing) continue;  // discard post-quit/drain bytes
      conn->inbuf.append(chunk, static_cast<size_t>(n));
      ProcessInbuf(conn);
      continue;
    }
    if (n == 0) {
      // Peer EOF: flush whatever is queued, then close.
      conn->closing = true;
      if (conn->outq.empty()) conn->dead = true;
      return;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    conn->dead = true;
    return;
  }
}

void EventLoop::ProcessInbuf(Conn* conn) {
  while (!conn->dead && !conn->closing) {
    size_t nl = conn->inbuf.find('\n');
    if (nl == std::string::npos) {
      if (!conn->discarding && conn->inbuf.size() > kDefaultMaxLineBytes) {
        // Same overlong rule as LineReader: report once, then discard to
        // the next newline so one hostile line cannot balloon memory.
        conn->inbuf.clear();
        conn->discarding = true;
        EnqueueControl(conn,
                       EncodeErrorMessage("line exceeds the size limit"));
      } else if (conn->discarding) {
        conn->inbuf.clear();
      }
      return;
    }
    if (conn->discarding) {
      conn->inbuf.erase(0, nl + 1);
      conn->discarding = false;
      continue;
    }
    std::string line(conn->inbuf, 0, nl);
    conn->inbuf.erase(0, nl + 1);
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    Request request;
    Status s = ParseRequest(line, &request);
    if (!s.ok()) {
      EnqueueControl(conn, EncodeError(s));
      continue;
    }
    HandleRequest(conn, request);
  }
  if (conn->closing) conn->inbuf.clear();
}

void EventLoop::HandleRequest(Conn* conn, const Request& request) {
  switch (request.cmd) {
    case Request::Cmd::kSubmit: {
      uint64_t id = 0;
      Status s = server_->Submit(
          request.sql, request.has_ola ? &request.ola : nullptr, &id,
          conn->tenant);
      if (!s.ok()) {
        EnqueueControl(conn, EncodeError(s));
        return;
      }
      QueryHandle* handle = server_->FindQuery(id);
      EnqueueControl(conn,
                     EncodeSubmitted(id, handle != nullptr
                                             ? handle->WireState()
                                             : "queued"));
      return;
    }
    case Request::Cmd::kWatch: {
      QueryHandle* handle = server_->FindQuery(request.id);
      if (handle == nullptr) {
        EnqueueControl(conn, EncodeErrorMessage("no such query id " +
                                                std::to_string(request.id)));
        return;
      }
      RegisterWatch(conn, handle, std::max(1.0, request.period_ms));
      return;
    }
    case Request::Cmd::kCancel: {
      Status s = server_->CancelQuery(request.id);
      EnqueueControl(conn, s.ok() ? EncodeOk("cancel", request.id)
                                  : EncodeError(s));
      return;
    }
    case Request::Cmd::kStop: {
      Status s = server_->StopQuery(request.id);
      EnqueueControl(conn, s.ok() ? EncodeOk("stop", request.id)
                                  : EncodeError(s));
      return;
    }
    case Request::Cmd::kStats:
      EnqueueControl(conn, EncodeStats(server_->GetStats()));
      return;
    case Request::Cmd::kTrace: {
      TraceDump dump;
      Status s = server_->BuildTrace(request.id, &dump);
      EnqueueControl(conn, s.ok() ? EncodeTrace(dump) : EncodeError(s));
      return;
    }
    case Request::Cmd::kMetrics:
      EnqueueControl(conn, EncodeMetrics(server_->RenderMetricsText()));
      return;
    case Request::Cmd::kHello:
      conn->binary = request.binary_snapshots;
      EnqueueControl(conn, EncodeEncoding(conn->binary));
      return;
    case Request::Cmd::kQuit:
      EnqueueControl(conn, EncodeBye("client quit"));
      conn->closing = true;
      if (conn->outq.empty()) conn->dead = true;
      return;
  }
}

void EventLoop::RegisterWatch(Conn* conn, QueryHandle* handle,
                              double period_ms) {
  uint64_t bits = PeriodBits(period_ms);
  // The stream opener is always built fresh and always queued (it is what
  // tells the client the watch exists); the watermark only thins the
  // steady-state fires that follow.
  SnapshotBuffers bufs =
      broadcast_->Get(handle, bits, SnapshotBroadcast::kImmediateSlot,
                      conn->binary, false);
  EnqueueSnapshot(conn, bufs, /*force=*/true);
  if (bufs.final_snapshot) return;  // already terminal: one-shot stream
  conn->watches.push_back({handle->id, bits, handle});
  watch_count_.fetch_add(1, std::memory_order_relaxed);
  CadenceClass& cls = classes_[{handle->id, bits}];
  if (cls.members.empty()) {
    cls.handle = handle;
    cls.period_ms = period_ms;
    cls.next_slot =
        static_cast<uint64_t>(MonotonicMs() / period_ms) + 1;
  }
  cls.members.push_back(conn);
}

void EventLoop::FireDueClasses(double now) {
  for (auto it = classes_.begin(); it != classes_.end();) {
    CadenceClass& cls = it->second;
    double due = static_cast<double>(cls.next_slot) * cls.period_ms;
    if (now < due) {
      ++it;
      continue;
    }
    // Fire for the grid instant just passed. A late wakeup that skipped
    // whole periods fires once for the latest instant — coalescing, not
    // catching up on stale snapshots.
    uint64_t fire_slot = static_cast<uint64_t>(now / cls.period_ms);
    bool want_binary = false;
    for (Conn* member : cls.members) {
      if (member->binary) {
        want_binary = true;
        break;
      }
    }
    SnapshotBuffers bufs = broadcast_->Get(cls.handle, it->first.second,
                                           fire_slot, want_binary, false);
    for (Conn* member : cls.members) {
      EnqueueSnapshot(member, bufs, /*force=*/false);
    }
    if (bufs.final_snapshot) {
      // Streams end on the final snapshot; drop every subscription.
      for (Conn* member : cls.members) {
        auto& watches = member->watches;
        for (auto w = watches.begin(); w != watches.end(); ++w) {
          if (w->query_id == it->first.first &&
              w->period_bits == it->first.second) {
            watches.erase(w);
            break;
          }
        }
        watch_count_.fetch_sub(1, std::memory_order_relaxed);
      }
      it = classes_.erase(it);
    } else {
      cls.next_slot = fire_slot + 1;
      ++it;
    }
  }
}

void EventLoop::EnqueueSnapshot(Conn* conn, const SnapshotBuffers& bufs,
                                bool force) {
  if (conn->closing || conn->dead) return;
  const std::shared_ptr<const std::string>& data =
      conn->binary && bufs.binary != nullptr ? bufs.binary : bufs.json;
  if (!force && !bufs.final_snapshot &&
      conn->outq_bytes >= kSnapshotSkipBytes) {
    return;  // backpressure: coalesce to the next, fresher instant
  }
  conn->outq.push_back({data, 0, bufs.built_ms});
  conn->outq_bytes += data->size();
  TryFlush(conn);
}

void EventLoop::EnqueueControl(Conn* conn, std::string line) {
  if (conn->dead) return;
  if (conn->outq_bytes > kHostileOutboxBytes) {
    conn->dead = true;
    return;
  }
  auto data = std::make_shared<const std::string>(std::move(line));
  conn->outq_bytes += data->size();
  conn->outq.push_back(
      {std::move(data), 0, std::numeric_limits<double>::quiet_NaN()});
  TryFlush(conn);
}

void EventLoop::TryFlush(Conn* conn) {
  if (conn->dead) return;
  while (!conn->outq.empty()) {
    OutChunk& chunk = conn->outq.front();
    ssize_t n = ::send(conn->fd, chunk.data->data() + chunk.offset,
                       chunk.data->size() - chunk.offset, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      conn->dead = true;
      return;
    }
    chunk.offset += static_cast<size_t>(n);
    if (chunk.offset < chunk.data->size()) continue;
    conn->outq_bytes -= chunk.data->size();
    if (!std::isnan(chunk.built_ms)) {
      server_->metrics().delivery_ms->Observe(MonotonicMs() -
                                              chunk.built_ms);
      snapshots_sent_.fetch_add(1, std::memory_order_relaxed);
    }
    conn->outq.pop_front();
  }
  UpdateEpollOut(conn);
  if (conn->closing && conn->outq.empty()) conn->dead = true;
}

void EventLoop::UpdateEpollOut(Conn* conn) {
  bool want = !conn->outq.empty();
  if (want == conn->epollout) return;
  struct epoll_event ev {};
  ev.events = want ? (EPOLLIN | EPOLLOUT) : EPOLLIN;
  ev.data.fd = conn->fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev) == 0) {
    conn->epollout = want;
  }
}

void EventLoop::EnterDrain() {
  draining_ = true;
  drain_deadline_ms_ = MonotonicMs() + kSessionDrainDeadlineMs;
  for (auto& [fd, conn] : conns_) {
    (void)fd;
    if (conn->dead) continue;
    // One force-final snapshot per watch (the server terminalized every
    // query before draining the loops), shared per class across every
    // connection and shard via the drain pseudo-slot, then the bye.
    for (const Watch& watch : conn->watches) {
      SnapshotBuffers bufs =
          broadcast_->Get(watch.handle, watch.period_bits,
                          SnapshotBroadcast::kDrainSlot, conn->binary, true);
      EnqueueSnapshot(conn.get(), bufs, /*force=*/true);
    }
    watch_count_.fetch_sub(conn->watches.size(),
                           std::memory_order_relaxed);
    conn->watches.clear();
    EnqueueControl(conn.get(), EncodeBye("server draining"));
    conn->closing = true;
    if (conn->outq.empty()) conn->dead = true;
  }
  classes_.clear();
}

void EventLoop::RemoveConnWatches(Conn* conn) {
  for (const Watch& watch : conn->watches) {
    auto it = classes_.find({watch.query_id, watch.period_bits});
    if (it == classes_.end()) continue;
    auto& members = it->second.members;
    auto m = std::find(members.begin(), members.end(), conn);
    if (m != members.end()) members.erase(m);
    if (members.empty()) classes_.erase(it);
  }
  watch_count_.fetch_sub(conn->watches.size(), std::memory_order_relaxed);
  conn->watches.clear();
}

void EventLoop::CloseConn(Conn* conn) {
  RemoveConnWatches(conn);
  int fd = conn->fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  conns_.erase(fd);  // destroys *conn
  conn_count_.fetch_sub(1, std::memory_order_relaxed);
}

void EventLoop::SweepDead() {
  for (auto it = conns_.begin(); it != conns_.end();) {
    Conn* conn = it->second.get();
    ++it;  // CloseConn erases by fd; advance first
    if (conn->dead) CloseConn(conn);
  }
}

}  // namespace qpi
