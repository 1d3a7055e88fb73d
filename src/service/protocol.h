#ifndef QPI_SERVICE_PROTOCOL_H_
#define QPI_SERVICE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/status.h"
#include "exec/exec_context.h"
#include "progress/gnm.h"
#include "progress/snapshot_json.h"
#include "progress/trace_ring.h"

namespace qpi {

/// \brief qpi-serve wire protocol: one JSON object per newline-terminated
/// line, in both directions (see DESIGN.md §10 for the grammar).
///
/// Client → server requests:
///   {"cmd":"submit","sql":"SELECT ..."}
///   {"cmd":"submit","sql":"SELECT ...","ola":{"target_rel":0.05,
///       "confidence":0.95,"min_draws":256}}
///   {"cmd":"watch","id":3,"period_ms":50}
///   {"cmd":"cancel","id":3}
///   {"cmd":"stop","id":3}          (OLA: accept the current estimate)
///   {"cmd":"stats"}
///   {"cmd":"trace","id":3}
///   {"cmd":"metrics"}
///   {"cmd":"hello","snapshots":"binary"}   (negotiate snapshot encoding)
///   {"cmd":"quit"}
///
/// Server → client replies (every line carries a "type"):
///   hello, submitted, snapshot (streamed), ok, error, stats, trace,
///   metrics, encoding, bye.
///
/// After a successful {"cmd":"hello","snapshots":"binary"} exchange the
/// server streams snapshots as length-prefixed binary frames
/// (protocol_binary.h) instead of JSON lines; everything else stays
/// newline-JSON, and clients that never negotiate see a wire
/// byte-identical to the pre-binary protocol.
///
/// Every encoder returns a complete line including the trailing '\n'.
/// Decoding is Status-based and total: any byte sequence either parses
/// into a request or yields InvalidArgument — never undefined behavior —
/// which is what the protocol fuzz test pins down.

inline constexpr int kProtocolVersion = 1;

/// Default cap on one wire line. SQL statements and snapshot lines are
/// far below this; anything larger is a hostile or broken client.
inline constexpr size_t kDefaultMaxLineBytes = 64 * 1024;

/// A parsed client request.
struct Request {
  enum class Cmd {
    kSubmit,
    kWatch,
    kCancel,
    kStop,
    kStats,
    kTrace,
    kMetrics,
    kHello,
    kQuit,
  };
  Cmd cmd = Cmd::kStats;
  std::string sql;         ///< kSubmit
  uint64_t id = 0;         ///< kWatch / kCancel / kStop / kTrace
  double period_ms = 100;  ///< kWatch snapshot cadence (clamped by server)
  /// kHello: stream snapshots as length-prefixed binary frames instead of
  /// JSON lines (see protocol_binary.h). Control replies stay JSON either
  /// way; false (JSON snapshots) is the pre-negotiation default.
  bool binary_snapshots = false;
  /// kSubmit with an "ola" member: run the query with online aggregation.
  /// Values pass through to ExecContext::ola, where Validate() rejects
  /// malformed targets (JSON null arrives here as NaN for that reason).
  bool has_ola = false;
  OlaOptions ola;
};

Status ParseRequest(const std::string& line, Request* out);

/// Running OLA answer attached to a snapshot (present only for queries
/// submitted with online aggregation; the block is omitted from the wire
/// otherwise, keeping the OLA-off snapshot format byte-identical).
struct WireOla {
  bool present = false;
  uint64_t draws = 0;   ///< sample rows behind the estimates
  double groups = 0;    ///< live group-count estimate
  bool frozen = false;  ///< the input's random prefix has ended
  bool exact = false;   ///< intake complete: answer exact, half-widths 0
  std::vector<std::string> labels;  ///< aggregate output-column names
  std::vector<double> estimate;
  std::vector<double> half_width;
};

/// One streamed progress observation of one query.
struct WireSnapshot {
  uint64_t id = 0;
  uint64_t seq = 0;   ///< per-watch sequence number
  std::string state;  ///< queued|running|finished|failed|cancelled|ola_stopped
  bool final_snapshot = false;  ///< terminal: no further snapshots follow
  double progress = 0;          ///< monotone per query, clamped to [0,1]
  GnmSnapshot gnm;              ///< C, T̂, CI half-width, tick
  uint64_t rows = 0;            ///< rows emitted by the root so far
  double server_ms = 0;         ///< server monotonic clock at send time
  std::vector<OperatorCounter> ops;
  WireOla ola;
};

/// One point of a query's traced progress curve on the wire: the trace
/// ring's own sample type (its `phase` is not serialized). Per-operator
/// arrays are parallel to the plan's pre-order operator labels carried
/// alongside in TraceDump. The ensemble and OLA columns are present only
/// when the query ran with them; absent members decode to empty, keeping
/// old clients and old servers mutually compatible.
using WireTraceSample = TraceSample;

/// A full TRACE reply: the retained curve plus the estimator-accuracy
/// audit (null until the query finishes).
struct TraceDump {
  uint64_t id = 0;
  std::string state;               ///< queued|running|finished|failed|cancelled
  uint64_t stride = 1;             ///< final decimation stride
  uint64_t offered = 0;            ///< samples offered over the query's life
  std::vector<std::string> op_labels;  ///< plan pre-order, names the arrays
  std::vector<WireTraceSample> samples;
  /// AccuracyReportJson output for finished queries, "null" otherwise.
  std::string audit_json = "null";
};

/// Server-wide gauges for STATS.
struct ServerStats {
  uint64_t submitted = 0;
  uint64_t queued = 0;
  uint64_t running = 0;
  uint64_t finished = 0;
  uint64_t failed = 0;
  uint64_t cancelled = 0;
  uint64_t sessions = 0;
  uint64_t watchers = 0;
  uint64_t max_inflight = 0;
  bool draining = false;
  // Scheduler-fleet counters (absent in older servers; decode defaults 0).
  uint64_t tasks_query = 0;      ///< query-lane tasks executed
  uint64_t tasks_morsel = 0;     ///< morsel/partition subtasks executed
  uint64_t tasks_stolen = 0;     ///< tasks stolen across worker deques
  uint64_t run_queue_depth = 0;  ///< fleet tasks queued, not yet claimed
  /// Queries early-terminated by an OLA stop condition or `stop` verb
  /// (absent in older servers; decodes to 0).
  uint64_t ola_stopped = 0;
  // Broadcast fan-out counters (absent in older servers; decode to 0):
  // builds is distinct snapshot serializations, sends is snapshot buffers
  // delivered to watchers. sends/builds is the fan-out ratio the shared
  // snapshot cache buys.
  uint64_t snapshot_builds = 0;
  uint64_t snapshot_sends = 0;
};

std::string EncodeHello();
std::string EncodeError(const Status& status);
std::string EncodeErrorMessage(const std::string& message);
std::string EncodeSubmitted(uint64_t id, const std::string& state);
std::string EncodeOk(const std::string& cmd, uint64_t id);
std::string EncodeSnapshot(const WireSnapshot& snap);
std::string EncodeStats(const ServerStats& stats);
std::string EncodeTrace(const TraceDump& dump);
/// METRICS carries multi-line Prometheus text through the one-line
/// protocol as an escaped JSON string: {"type":"metrics","text":"..."}.
std::string EncodeMetrics(const std::string& prometheus_text);
std::string EncodeBye(const std::string& reason);
/// Reply to the hello negotiation verb: {"type":"encoding","snapshots":...}
/// with "binary" or "json" — whatever the server will actually stream.
std::string EncodeEncoding(bool binary_snapshots);

/// Client-side decoders (from a parsed line). The line's "type" member
/// must already have been dispatched on by the caller.
Status DecodeSnapshot(const JsonValue& line, WireSnapshot* out);
Status DecodeStats(const JsonValue& line, ServerStats* out);
Status DecodeTrace(const JsonValue& line, TraceDump* out);
Status DecodeMetrics(const JsonValue& line, std::string* out);

}  // namespace qpi

#endif  // QPI_SERVICE_PROTOCOL_H_
