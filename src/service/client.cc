#include "service/client.h"

#include <unistd.h>

#include <utility>

#include "service/protocol_binary.h"

namespace qpi {

namespace {

std::string RequestLine(const std::string& body) { return body + "\n"; }

}  // namespace

Status QpiClient::Connect(const std::string& host, uint16_t port,
                          std::chrono::milliseconds timeout) {
  if (connected()) return Status::Internal("client is already connected");
  QPI_RETURN_NOT_OK(TcpConnect(host, port, &fd_, timeout));
  reader_ = std::make_unique<FrameReader>(fd_, kDefaultMaxLineBytes);
  JsonValue hello;
  std::string type;
  Status s = ReadReplyLine(&hello, &type);
  if (s.ok() && type != "hello") {
    s = Status::Internal("expected hello, got \"" + type + "\"");
  }
  if (!s.ok()) Close();
  return s;
}

void QpiClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  binary_snapshots_ = false;
  reader_.reset();
}

Status QpiClient::EnableBinarySnapshots() {
  if (binary_snapshots_) return Status::OK();
  JsonValue reply;
  QPI_RETURN_NOT_OK(RoundTrip(
      "{\"cmd\":\"hello\",\"snapshots\":\"binary\"}", "encoding", &reply));
  if (reply.GetString("snapshots") != "binary") {
    return Status::Internal("server declined binary snapshot encoding");
  }
  binary_snapshots_ = true;
  return Status::OK();
}

Status QpiClient::ReadReplyLine(JsonValue* value, std::string* type) {
  if (!connected()) return Status::Internal("client is not connected");
  std::string line;
  FrameReader::Kind kind = reader_->Next(&line);
  if (kind == FrameReader::Kind::kOverlong) {
    return Status::Internal("server reply exceeds the line size limit");
  }
  if (kind == FrameReader::Kind::kFrame) {
    // Control replies are always JSON lines; a frame here violates the
    // single-command discipline.
    return Status::Internal("unexpected binary frame in reply stream");
  }
  if (kind != FrameReader::Kind::kLine) {
    return Status::Internal("connection closed by server");
  }
  QPI_RETURN_NOT_OK(JsonParse(line, value));
  *type = value->GetString("type");
  return Status::OK();
}

Status QpiClient::ReadWatchMessage(JsonValue* value, std::string* type,
                                   WireSnapshot* snap, bool* is_frame) {
  if (!connected()) return Status::Internal("client is not connected");
  *is_frame = false;
  std::string msg;
  FrameReader::Kind kind = reader_->Next(&msg);
  if (kind == FrameReader::Kind::kOverlong) {
    return Status::Internal("server reply exceeds the line size limit");
  }
  if (kind == FrameReader::Kind::kFrame) {
    if (msg.empty() ||
        static_cast<uint8_t>(msg[0]) != kFrameKindSnapshot) {
      return Status::Internal("unknown binary frame kind from server");
    }
    QPI_RETURN_NOT_OK(DecodeSnapshotFrame(msg, snap));
    *type = "snapshot";
    *is_frame = true;
    return Status::OK();
  }
  if (kind != FrameReader::Kind::kLine) {
    return Status::Internal("connection closed by server");
  }
  QPI_RETURN_NOT_OK(JsonParse(msg, value));
  *type = value->GetString("type");
  return Status::OK();
}

Status QpiClient::RoundTrip(const std::string& request,
                            const std::string& want, JsonValue* reply) {
  if (!connected()) return Status::Internal("client is not connected");
  if (!SendAll(fd_, RequestLine(request))) {
    return Status::Internal("connection closed by server");
  }
  std::string type;
  QPI_RETURN_NOT_OK(ReadReplyLine(reply, &type));
  if (type == "error") {
    return Status::Internal(reply->GetString("error", "server error"));
  }
  if (type != want) {
    return Status::Internal("expected \"" + want + "\" reply, got \"" + type +
                            "\"");
  }
  return Status::OK();
}

Status QpiClient::Submit(const std::string& sql, uint64_t* id) {
  std::string request = "{";
  JsonAppendKey("cmd", &request);
  JsonAppendQuoted("submit", &request);
  JsonAppendKey("sql", &request);
  JsonAppendQuoted(sql, &request);
  request.push_back('}');
  JsonValue reply;
  QPI_RETURN_NOT_OK(RoundTrip(request, "submitted", &reply));
  *id = static_cast<uint64_t>(reply.GetNumber("id"));
  return Status::OK();
}

Status QpiClient::SubmitOla(const std::string& sql, const OlaOptions& ola,
                            uint64_t* id) {
  std::string request = "{";
  JsonAppendKey("cmd", &request);
  JsonAppendQuoted("submit", &request);
  JsonAppendKey("sql", &request);
  JsonAppendQuoted(sql, &request);
  JsonAppendKey("ola", &request);
  request.push_back('{');
  if (ola.has_abs_target) {
    JsonAppendKey("target_abs", &request);
    request.append(JsonNumberString(ola.abs_target));
  }
  if (ola.has_rel_target) {
    JsonAppendKey("target_rel", &request);
    request.append(JsonNumberString(ola.rel_target));
  }
  JsonAppendKey("confidence", &request);
  request.append(JsonNumberString(ola.confidence));
  JsonAppendKey("min_draws", &request);
  request.append(JsonNumberString(static_cast<double>(ola.min_draws)));
  request.append("}}");
  JsonValue reply;
  QPI_RETURN_NOT_OK(RoundTrip(request, "submitted", &reply));
  *id = static_cast<uint64_t>(reply.GetNumber("id"));
  return Status::OK();
}

Status QpiClient::Watch(
    uint64_t id, double period_ms,
    const std::function<void(const WireSnapshot&)>& on_snapshot,
    WireSnapshot* final_snapshot) {
  std::string request = "{";
  JsonAppendKey("cmd", &request);
  JsonAppendQuoted("watch", &request);
  JsonAppendKey("id", &request);
  request.append(JsonNumberString(static_cast<double>(id)));
  JsonAppendKey("period_ms", &request);
  request.append(JsonNumberString(period_ms));
  request.push_back('}');
  if (!SendAll(fd_, RequestLine(request))) {
    return Status::Internal("connection closed by server");
  }
  while (true) {
    JsonValue reply;
    std::string type;
    WireSnapshot snap;
    bool is_frame = false;
    QPI_RETURN_NOT_OK(ReadWatchMessage(&reply, &type, &snap, &is_frame));
    if (type == "error") {
      return Status::Internal(reply.GetString("error", "server error"));
    }
    if (type != "snapshot") {
      // A drain can slip a bye in before this watch's final snapshot was
      // requested; surface it as a closed stream.
      if (type == "bye") {
        return Status::Internal("server draining: " +
                                reply.GetString("reason"));
      }
      return Status::Internal("expected snapshot, got \"" + type + "\"");
    }
    if (!is_frame) QPI_RETURN_NOT_OK(DecodeSnapshot(reply, &snap));
    if (on_snapshot) on_snapshot(snap);
    if (snap.final_snapshot) {
      if (final_snapshot != nullptr) *final_snapshot = std::move(snap);
      return Status::OK();
    }
  }
}

Status QpiClient::WatchOla(
    uint64_t id, double period_ms,
    const std::function<void(const WireSnapshot&)>& on_snapshot,
    WireSnapshot* final_snapshot) {
  bool missing_ola = false;
  WireSnapshot last;
  Status s = Watch(
      id, period_ms,
      [&](const WireSnapshot& snap) {
        if (!snap.ola.present) missing_ola = true;
        if (on_snapshot && !missing_ola) on_snapshot(snap);
        last = snap;
      },
      nullptr);
  QPI_RETURN_NOT_OK(s);
  if (missing_ola) {
    return Status::InvalidArgument(
        "query " + std::to_string(id) +
        " was not submitted with online aggregation");
  }
  if (final_snapshot != nullptr) *final_snapshot = std::move(last);
  return Status::OK();
}

Status QpiClient::Cancel(uint64_t id) {
  std::string request = "{";
  JsonAppendKey("cmd", &request);
  JsonAppendQuoted("cancel", &request);
  JsonAppendKey("id", &request);
  request.append(JsonNumberString(static_cast<double>(id)));
  request.push_back('}');
  JsonValue reply;
  return RoundTrip(request, "ok", &reply);
}

Status QpiClient::Stop(uint64_t id) {
  std::string request = "{";
  JsonAppendKey("cmd", &request);
  JsonAppendQuoted("stop", &request);
  JsonAppendKey("id", &request);
  request.append(JsonNumberString(static_cast<double>(id)));
  request.push_back('}');
  JsonValue reply;
  return RoundTrip(request, "ok", &reply);
}

Status QpiClient::Stats(ServerStats* out) {
  JsonValue reply;
  QPI_RETURN_NOT_OK(RoundTrip("{\"cmd\":\"stats\"}", "stats", &reply));
  return DecodeStats(reply, out);
}

Status QpiClient::Trace(uint64_t id, TraceDump* out) {
  std::string request = "{";
  JsonAppendKey("cmd", &request);
  JsonAppendQuoted("trace", &request);
  JsonAppendKey("id", &request);
  request.append(JsonNumberString(static_cast<double>(id)));
  request.push_back('}');
  JsonValue reply;
  QPI_RETURN_NOT_OK(RoundTrip(request, "trace", &reply));
  return DecodeTrace(reply, out);
}

Status QpiClient::Metrics(std::string* out) {
  JsonValue reply;
  QPI_RETURN_NOT_OK(RoundTrip("{\"cmd\":\"metrics\"}", "metrics", &reply));
  return DecodeMetrics(reply, out);
}

Status QpiClient::Quit() {
  JsonValue reply;
  return RoundTrip("{\"cmd\":\"quit\"}", "bye", &reply);
}

}  // namespace qpi
