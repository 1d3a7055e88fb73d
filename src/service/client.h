#ifndef QPI_SERVICE_CLIENT_H_
#define QPI_SERVICE_CLIENT_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "common/status.h"
#include "service/net.h"
#include "service/protocol.h"

namespace qpi {

/// \brief Blocking client for the qpi-serve wire protocol.
///
/// Single-threaded discipline: one command in flight at a time, and
/// Watch() consumes its stream through the final snapshot before
/// returning, so replies never interleave. Used by `qpi_shell --connect`,
/// the e2e test harness, and the service latency bench.
class QpiClient {
 public:
  QpiClient() = default;
  ~QpiClient() { Close(); }

  QpiClient(const QpiClient&) = delete;
  QpiClient& operator=(const QpiClient&) = delete;

  /// Connect (bounded by `timeout`) and consume the server's hello line.
  /// Replies are read with the protocol's line limit, kDefaultMaxLineBytes.
  Status Connect(const std::string& host, uint16_t port,
                 std::chrono::milliseconds timeout =
                     std::chrono::milliseconds(10000));

  bool connected() const { return fd_ >= 0; }
  void Close();

  /// Negotiate length-prefixed binary snapshot frames for this
  /// connection's WATCH streams (control replies stay newline-JSON).
  /// Irreversible for the connection's lifetime.
  Status EnableBinarySnapshots();

  bool binary_snapshots() const { return binary_snapshots_; }

  /// SUBMIT a statement; `*id` receives the server-assigned query id.
  Status Submit(const std::string& sql, uint64_t* id);

  /// SUBMIT with online aggregation: the server streams a running
  /// (estimate, CI half-width) per aggregate on every WATCH snapshot and
  /// early-terminates once `ola`'s targets are met (if any are set).
  Status SubmitOla(const std::string& sql, const OlaOptions& ola,
                   uint64_t* id);

  /// WATCH query `id` at `period_ms` cadence, invoking `on_snapshot` for
  /// every streamed snapshot (including the final one), until the final
  /// snapshot arrives. When `final_snapshot` is non-null it receives the
  /// terminal snapshot. `on_snapshot` may be null.
  Status Watch(uint64_t id, double period_ms,
               const std::function<void(const WireSnapshot&)>& on_snapshot,
               WireSnapshot* final_snapshot = nullptr);

  Status Cancel(uint64_t id);

  /// STOP an OLA query: accept its current estimate. Errors for queries
  /// not submitted with online aggregation.
  Status Stop(uint64_t id);

  /// Watch() for an OLA query: every snapshot must carry the ola block
  /// (the first one without it fails the watch), so callers can consume
  /// `snap.ola` unconditionally.
  Status WatchOla(uint64_t id, double period_ms,
                  const std::function<void(const WireSnapshot&)>& on_snapshot,
                  WireSnapshot* final_snapshot = nullptr);

  Status Stats(ServerStats* out);

  /// TRACE query `id`: fetch its progress curve and accuracy audit.
  Status Trace(uint64_t id, TraceDump* out);

  /// METRICS: fetch the server's Prometheus text exposition.
  Status Metrics(std::string* out);

  /// Send quit and consume the bye line.
  Status Quit();

 private:
  /// Send one request line, then read lines until one whose "type" is
  /// `want` (or "error", which becomes a Status). Snapshot lines seen
  /// while waiting are a protocol violation under the single-command
  /// discipline and surface as errors.
  Status RoundTrip(const std::string& request, const std::string& want,
                   JsonValue* reply);
  Status ReadReplyLine(JsonValue* value, std::string* type);
  /// One watch-stream message: a JSON control line (`*type` set, `*snap`
  /// untouched) or a binary snapshot frame (`*type` = "snapshot",
  /// `*is_frame` = true, `*snap` decoded).
  Status ReadWatchMessage(JsonValue* value, std::string* type,
                          WireSnapshot* snap, bool* is_frame);

  int fd_ = -1;
  bool binary_snapshots_ = false;
  std::unique_ptr<FrameReader> reader_;
};

}  // namespace qpi

#endif  // QPI_SERVICE_CLIENT_H_
