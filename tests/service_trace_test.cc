// TRACE and METRICS over real sockets: a query run through qpi-serve must
// yield a trace whose terminal sample has T̂ == C bit-exact, an accuracy
// audit with R at the 25/50/75% checkpoints, and a /metrics exposition
// that reflects the work — plus hostile clients spamming TRACE during the
// drain (this binary runs under tsan via the `service-tsan` preset).

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "datagen/tpch_like.h"
#include "service/client.h"
#include "service/net.h"
#include "service/server.h"
#include "storage/catalog.h"

namespace qpi {
namespace {

class ServiceTraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TpchLikeGenerator gen(17);
    ASSERT_TRUE(gen.PopulateCatalog(&catalog_, 0.002).ok());
  }

  std::unique_ptr<QpiServer> StartServer(QpiServer::Options options) {
    auto server = std::make_unique<QpiServer>(&catalog_, options);
    EXPECT_TRUE(server->Start().ok());
    return server;
  }

  Catalog catalog_;
};

const char* kJoinSql =
    "SELECT * FROM orders JOIN lineitem "
    "ON orders.orderkey = lineitem.orderkey WHERE totalprice > 100000.0";

TEST_F(ServiceTraceTest, TraceOfFinishedQueryEndsExactWithAudit) {
  QpiServer::Options options;
  options.publish_interval = 64;  // dense curve
  auto server = StartServer(options);

  QpiClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()).ok());
  uint64_t id = 0;
  ASSERT_TRUE(client.Submit(kJoinSql, &id).ok());
  WireSnapshot final_snap;
  ASSERT_TRUE(client.Watch(id, 2, nullptr, &final_snap).ok());
  ASSERT_EQ(final_snap.state, "finished");

  TraceDump dump;
  ASSERT_TRUE(client.Trace(id, &dump).ok());
  EXPECT_EQ(dump.id, id);
  EXPECT_EQ(dump.state, "finished");
  ASSERT_FALSE(dump.samples.empty());
  ASSERT_FALSE(dump.op_labels.empty());

  // Terminal sample: present, last, and bit-exact T̂ == C — the paper's
  // invariant that the estimate converges to the truth at completion.
  const WireTraceSample& last = dump.samples.back();
  EXPECT_TRUE(last.terminal);
  EXPECT_EQ(last.total_estimate, last.calls);
  EXPECT_EQ(last.calls, final_snap.gnm.current_calls);
  EXPECT_EQ(last.total_estimate, final_snap.gnm.total_estimate);
  for (size_t i = 0; i + 1 < dump.samples.size(); ++i) {
    EXPECT_FALSE(dump.samples[i].terminal);
    // C never decreases along the curve.
    EXPECT_LE(dump.samples[i].calls, dump.samples[i + 1].calls);
  }
  // Per-operator arrays are parallel to the labels.
  for (const WireTraceSample& s : dump.samples) {
    EXPECT_EQ(s.op_emitted.size(), dump.op_labels.size());
    EXPECT_EQ(s.op_estimate.size(), dump.op_labels.size());
  }

  // The audit: valid JSON with R at the three checkpoints and one entry
  // per operator.
  ASSERT_NE(dump.audit_json, "null");
  JsonValue audit;
  ASSERT_TRUE(JsonParse(dump.audit_json, &audit).ok()) << dump.audit_json;
  EXPECT_EQ(audit.GetNumber("final_calls"), last.calls);
  const JsonValue* checkpoints = audit.Find("checkpoints");
  ASSERT_NE(checkpoints, nullptr);
  ASSERT_EQ(checkpoints->items.size(), 3u);
  double fractions[] = {0.25, 0.5, 0.75};
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(checkpoints->items[i].GetNumber("fraction"),
                     fractions[i]);
    const JsonValue* r = checkpoints->items[i].Find("r");
    ASSERT_NE(r, nullptr);
    if (r->is_number()) {
      EXPECT_GT(r->number, 0) << "R = T/T̂ is positive when available";
    }
  }
  const JsonValue* ops = audit.Find("ops");
  ASSERT_NE(ops, nullptr);
  EXPECT_EQ(ops->items.size(), dump.op_labels.size());
}

TEST_F(ServiceTraceTest, TraceWhileRunningThenTerminalStaysBounded) {
  QpiServer::Options options;
  options.publish_interval = 32;
  options.trace_capacity = 16;  // force decimation on a real query
  auto server = StartServer(options);

  QpiClient poller;
  ASSERT_TRUE(poller.Connect("127.0.0.1", server->port()).ok());
  uint64_t id = 0;
  ASSERT_TRUE(poller.Submit(kJoinSql, &id).ok());

  // Poll TRACE while the query runs: replies must always be well-formed
  // and within capacity (+1 for the terminal sample), whatever instant
  // they hit.
  bool saw_terminal = false;
  for (int i = 0; i < 200 && !saw_terminal; ++i) {
    TraceDump dump;
    ASSERT_TRUE(poller.Trace(id, &dump).ok());
    EXPECT_LE(dump.samples.size(), options.trace_capacity + 1);
    for (const WireTraceSample& s : dump.samples) {
      if (s.terminal) saw_terminal = true;
    }
    if (dump.state == "finished") break;
  }
  WireSnapshot final_snap;
  ASSERT_TRUE(poller.Watch(id, 2, nullptr, &final_snap).ok());
  TraceDump dump;
  ASSERT_TRUE(poller.Trace(id, &dump).ok());
  EXPECT_LE(dump.samples.size(), options.trace_capacity + 1);
  EXPECT_GE(dump.offered, dump.samples.size());
  EXPECT_TRUE(dump.samples.back().terminal);
  EXPECT_NE(dump.audit_json, "null");
}

TEST_F(ServiceTraceTest, TraceErrorsOnUnknownIdAndMetricsReflectWork) {
  auto server = StartServer(QpiServer::Options{});
  QpiClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()).ok());

  TraceDump dump;
  EXPECT_FALSE(client.Trace(12345, &dump).ok());

  uint64_t id = 0;
  ASSERT_TRUE(client.Submit("SELECT * FROM nation", &id).ok());
  WireSnapshot final_snap;
  ASSERT_TRUE(client.Watch(id, 2, nullptr, &final_snap).ok());

  std::string text;
  ASSERT_TRUE(client.Metrics(&text).ok());
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.back(), '\n');
  EXPECT_NE(text.find("# TYPE qpi_submits_total counter"), std::string::npos);
  EXPECT_NE(text.find("qpi_submits_total 1"), std::string::npos);
  EXPECT_NE(
      text.find("qpi_queries_terminal_total{kind=\"finished\"} 1"),
      std::string::npos);
  EXPECT_NE(text.find("# TYPE qpi_snapshot_delivery_ms histogram"),
            std::string::npos);
  EXPECT_NE(text.find("qpi_snapshot_delivery_ms_bucket{le=\"+Inf\"}"),
            std::string::npos);
  // The trivial scan finishes within one publish interval, so every audit
  // checkpoint is satisfied only by the terminal sample (degenerate,
  // R = 1 by construction) — all 3 are skipped, none observed.
  EXPECT_NE(text.find("qpi_estimator_relative_error_count 0"),
            std::string::npos);
  EXPECT_NE(text.find("qpi_audit_checkpoints_skipped_total 3"),
            std::string::npos);
  // The candidate-error and selection families exist, one labeled series
  // per candidate estimator, under the names the wire has always used.
  for (const char* name : {"once", "dne", "byte"}) {
    std::string label = std::string("{estimator=\"") + name + "\"}";
    EXPECT_NE(text.find("qpi_estimator_relative_error_count" + label),
              std::string::npos)
        << name;
    EXPECT_NE(text.find("qpi_estimator_selected_total" + label),
              std::string::npos)
        << name;
  }
  EXPECT_NE(text.find("# TYPE qpi_estimator_selected_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("qpi_sessions 1"), std::string::npos);
}

TEST_F(ServiceTraceTest, TraceSampleMetricCountsQueuedCancellations) {
  QpiServer::Options options;
  options.max_inflight = 1;  // everything behind the first query queues
  options.exec_workers = 1;
  auto server = StartServer(options);

  QpiClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()).ok());
  std::vector<uint64_t> ids;
  for (int i = 0; i < 3; ++i) {
    uint64_t id = 0;
    ASSERT_TRUE(client.Submit(kJoinSql, &id).ok());
    ids.push_back(id);
  }
  // Cancel the last submission while it waits behind the first: its ring
  // holds the seeded sample plus the terminal one.
  ASSERT_TRUE(client.Cancel(ids.back()).ok());
  uint64_t offered = 0;
  for (uint64_t id : ids) {
    WireSnapshot final_snap;
    ASSERT_TRUE(client.Watch(id, 2, nullptr, &final_snap).ok());
    if (id == ids.back()) {
      ASSERT_EQ(final_snap.state, "cancelled");
      ASSERT_EQ(final_snap.progress, 0.0) << "cancelled while queued";
    }
    TraceDump dump;
    ASSERT_TRUE(client.Trace(id, &dump).ok());
    offered += dump.offered;
  }
  // Every sample offered to any ring is counted, queued cancellations
  // included.
  EXPECT_EQ(server->metrics().trace_samples->Value(), offered);
  client.Quit();
  server->Shutdown();
}

TEST_F(ServiceTraceTest, HostileClientsSpamTraceThroughDrain) {
  QpiServer::Options options;
  options.max_inflight = 2;
  options.exec_workers = 2;
  options.publish_interval = 64;
  auto server = StartServer(options);

  QpiClient submitter;
  ASSERT_TRUE(submitter.Connect("127.0.0.1", server->port()).ok());
  std::vector<uint64_t> ids;
  for (int i = 0; i < 4; ++i) {
    uint64_t id = 0;
    ASSERT_TRUE(submitter.Submit(kJoinSql, &id).ok());
    ids.push_back(id);
  }

  // Raw-socket clients that pump TRACE/METRICS lines as fast as possible
  // and never stop, straight through the server drain. The server must
  // stay consistent and shut down cleanly regardless (the drain
  // force-closes whoever is still spamming).
  std::vector<std::thread> spammers;
  for (int c = 0; c < 3; ++c) {
    spammers.emplace_back([&, c] {
      int fd = -1;
      if (!TcpConnect("127.0.0.1", server->port(), &fd).ok()) return;
      std::string burst;
      for (uint64_t id : ids) {
        burst += "{\"cmd\":\"trace\",\"id\":" + std::to_string(id) + "}\n";
      }
      burst += "{\"cmd\":\"metrics\"}\n";
      burst += "{\"cmd\":\"trace\",\"id\":99999}\n";
      while (SendAll(fd, burst)) {
        // Read a little, slower than we write, so the outbox grows; a
        // hostile reader that never fully drains must trip the cap, not
        // wedge the server.
        char buf[512];
        ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n <= 0) break;
      }
      ::close(fd);
    });
  }

  // Let the spam overlap live execution, then drain underneath it.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  server->Shutdown();
  for (std::thread& t : spammers) t.join();

  ServerStats stats = server->GetStats();
  EXPECT_EQ(stats.submitted, 4u);
  EXPECT_EQ(stats.finished + stats.failed + stats.cancelled, 4u);
}

}  // namespace
}  // namespace qpi
