// qpi-serve end to end over real sockets: concurrent clients submitting
// and watching to completion, monotone progress streams, exact terminal
// T̂ against an in-process run of the same statement, admission-queue
// "queued" reporting, cancellation of queued and running queries, and the
// SIGTERM drain joining every thread (this whole binary runs under tsan
// via the `tsan` / `service-tsan` presets).

#include <signal.h>

#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/tpch_like.h"
#include "exec/compiler.h"
#include "exec/executor.h"
#include "progress/gnm.h"
#include "service/client.h"
#include "service/server.h"
#include "sql/planner.h"
#include "storage/catalog.h"

namespace qpi {
namespace {

/// What an in-process run of `sql` produces: the row count and the
/// terminal accountant state (T̂ = C once every operator finished).
struct ExpectedResult {
  uint64_t rows = 0;
  double total_estimate = 0;
  double current_calls = 0;
};

ExpectedResult RunInProcess(Catalog* catalog, const std::string& sql) {
  ExpectedResult expected;
  SqlPlanner planner(catalog);
  PlanNodePtr plan;
  EXPECT_TRUE(planner.PlanQuery(sql, &plan).ok());
  ExecContext ctx;
  ctx.catalog = catalog;
  ctx.mode = EstimationMode::kOnce;
  OperatorPtr root;
  EXPECT_TRUE(CompilePlan(plan.get(), &ctx, &root).ok());
  GnmAccountant accountant(root.get());
  std::vector<Row> rows;
  EXPECT_TRUE(QueryExecutor::Run(root.get(), &ctx, &rows, nullptr).ok());
  GnmSnapshot snap = accountant.Snapshot();
  expected.rows = rows.size();
  expected.total_estimate = snap.total_estimate;
  expected.current_calls = snap.current_calls;
  return expected;
}

class ServiceE2eTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TpchLikeGenerator gen(11);
    ASSERT_TRUE(gen.PopulateCatalog(&catalog_, 0.002).ok());
  }

  std::unique_ptr<QpiServer> StartServer(QpiServer::Options options) {
    auto server = std::make_unique<QpiServer>(&catalog_, options);
    EXPECT_TRUE(server->Start().ok());
    return server;
  }

  Catalog catalog_;
};

const char* kWorkload[] = {
    "SELECT * FROM customer WHERE acctbal > 5000.0",
    "SELECT custkey, COUNT(*), SUM(totalprice) FROM orders "
    "GROUP BY custkey ORDER BY custkey",
    "SELECT * FROM orders JOIN lineitem "
    "ON orders.orderkey = lineitem.orderkey WHERE totalprice > 100000.0",
    "SELECT * FROM nation",
};

TEST_F(ServiceE2eTest, EightConcurrentClientsWatchToExactTerminalSnapshot) {
  // The acceptance scenario: 8 concurrent clients, each submit + watch to
  // completion; every stream monotone non-decreasing and ending in a
  // terminal snapshot whose T̂ (and C, and row count) equal an in-process
  // run of the same statement exactly.
  std::map<std::string, ExpectedResult> expected;
  for (const char* sql : kWorkload) expected[sql] = RunInProcess(&catalog_, sql);

  QpiServer::Options options;
  options.max_inflight = 3;
  options.exec_workers = 3;
  options.publish_interval = 256;
  auto server = StartServer(options);

  constexpr int kClients = 8;
  std::vector<std::thread> clients;
  std::vector<std::string> failures(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      const std::string sql = kWorkload[c % 4];
      QpiClient client;
      Status s = client.Connect("127.0.0.1", server->port());
      if (!s.ok()) {
        failures[c] = s.ToString();
        return;
      }
      uint64_t id = 0;
      s = client.Submit(sql, &id);
      if (!s.ok()) {
        failures[c] = s.ToString();
        return;
      }
      std::vector<WireSnapshot> stream;
      WireSnapshot final_snap;
      s = client.Watch(
          id, 2, [&stream](const WireSnapshot& snap) { stream.push_back(snap); },
          &final_snap);
      if (!s.ok()) {
        failures[c] = s.ToString();
        return;
      }
      if (stream.empty()) {
        failures[c] = "empty snapshot stream";
        return;
      }
      double last_progress = -1;
      uint64_t last_seq = 0;
      for (const WireSnapshot& snap : stream) {
        if (snap.id != id) failures[c] = "snapshot for the wrong query id";
        if (snap.progress < last_progress) {
          failures[c] = "progress ran backwards";
        }
        if (snap.seq < last_seq) failures[c] = "sequence ran backwards";
        if (snap.gnm.ci_half_width < 0) failures[c] = "negative CI";
        last_progress = snap.progress;
        last_seq = snap.seq;
      }
      const ExpectedResult& want = expected[sql];
      if (!final_snap.final_snapshot) failures[c] = "stream did not end final";
      if (final_snap.state != "finished") {
        failures[c] = "terminal state " + final_snap.state;
      }
      if (final_snap.progress != 1.0) failures[c] = "final progress != 1";
      if (final_snap.gnm.total_estimate != want.total_estimate ||
          final_snap.gnm.current_calls != want.current_calls) {
        failures[c] = "terminal T̂/C mismatch vs in-process run";
      }
      if (final_snap.rows != want.rows) failures[c] = "row count mismatch";
      if (final_snap.gnm.ci_half_width != 0.0) {
        failures[c] = "terminal CI half-width nonzero";
      }
      client.Quit();
    });
  }
  for (std::thread& t : clients) t.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(failures[c], "") << "client " << c;
  }
  server->Shutdown();
}

TEST_F(ServiceE2eTest, AdmissionQueueReportsQueuedPhaseFifo) {
  QpiServer::Options options;
  options.max_inflight = 1;  // everything behind the first query queues
  options.exec_workers = 1;
  auto server = StartServer(options);

  QpiClient submitter;
  ASSERT_TRUE(submitter.Connect("127.0.0.1", server->port()).ok());
  const char* kJoin =
      "SELECT * FROM orders JOIN lineitem "
      "ON orders.orderkey = lineitem.orderkey";
  std::vector<uint64_t> ids;
  for (int i = 0; i < 4; ++i) {
    uint64_t id = 0;
    ASSERT_TRUE(submitter.Submit(kJoin, &id).ok());
    ids.push_back(id);
  }
  // With one inflight slot and three statements parked behind a join, the
  // last submission's first snapshot observes the pre-execution phase.
  std::vector<WireSnapshot> stream;
  WireSnapshot final_snap;
  ASSERT_TRUE(submitter
                  .Watch(ids.back(), 2,
                         [&stream](const WireSnapshot& snap) {
                           stream.push_back(snap);
                         },
                         &final_snap)
                  .ok());
  bool saw_queued = false;
  for (const WireSnapshot& snap : stream) {
    if (snap.state == "queued") {
      saw_queued = true;
      EXPECT_EQ(snap.progress, 0.0) << "queued progress must be pinned at 0";
      EXPECT_GT(snap.gnm.total_estimate, 0.0)
          << "queued snapshots carry the optimizer T̂";
    }
  }
  EXPECT_TRUE(saw_queued);
  EXPECT_EQ(final_snap.state, "finished");
  ServerStats stats;
  ASSERT_TRUE(submitter.Stats(&stats).ok());
  EXPECT_EQ(stats.submitted, 4u);
  // The watched query is terminal, so the scheduler fleet ran at least its
  // query-lane task; nothing here fans out subtasks (exec_workers == 1
  // contexts), so the morsel lane stays untouched.
  EXPECT_GE(stats.tasks_query, 1u);
  EXPECT_EQ(stats.tasks_morsel, 0u);
  submitter.Quit();
  server->Shutdown();
}

TEST_F(ServiceE2eTest, CancelQueuedAndRunningQueries) {
  QpiServer::Options options;
  options.max_inflight = 1;
  options.exec_workers = 1;
  auto server = StartServer(options);

  QpiClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()).ok());
  // The first query runs for seconds, so the second is still queued when
  // it is cancelled, however slow the host.
  const char* kLongJoin =
      "SELECT COUNT(*) FROM orders JOIN lineitem ON "
      "orders.orderpriority = lineitem.linenumber JOIN customer ON "
      "lineitem.quantity = customer.mktsegment";
  const char* kJoin =
      "SELECT * FROM orders JOIN lineitem "
      "ON orders.orderkey = lineitem.orderkey";
  uint64_t running_id = 0;
  uint64_t queued_id = 0;
  ASSERT_TRUE(client.Submit(kLongJoin, &running_id).ok());
  ASSERT_TRUE(client.Submit(kJoin, &queued_id).ok());

  // Cancel the queued one first: it never ran, so its terminal snapshot is
  // "cancelled" at progress 0.
  ASSERT_TRUE(client.Cancel(queued_id).ok());
  WireSnapshot final_snap;
  ASSERT_TRUE(client.Watch(queued_id, 2, nullptr, &final_snap).ok());
  EXPECT_EQ(final_snap.state, "cancelled");
  EXPECT_TRUE(final_snap.final_snapshot);
  EXPECT_EQ(final_snap.progress, 0.0);

  // Cancel the (possibly still running) first query; cooperative
  // cancellation drains it to a terminal snapshot either way.
  ASSERT_TRUE(client.Cancel(running_id).ok());
  ASSERT_TRUE(client.Watch(running_id, 2, nullptr, &final_snap).ok());
  EXPECT_TRUE(final_snap.final_snapshot);
  EXPECT_TRUE(final_snap.state == "cancelled" ||
              final_snap.state == "finished")
      << final_snap.state;
  // Cancelling a terminal query is an idempotent no-op.
  EXPECT_TRUE(client.Cancel(queued_id).ok());
  // Cancelling an unknown id is an error, not a crash.
  EXPECT_FALSE(client.Cancel(999999).ok());
  client.Quit();
  server->Shutdown();
}

TEST_F(ServiceE2eTest, WatchAfterCompletionYieldsSingleTerminalSnapshot) {
  QpiServer::Options options;
  auto server = StartServer(options);
  QpiClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()).ok());
  uint64_t id = 0;
  ASSERT_TRUE(client.Submit("SELECT * FROM nation", &id).ok());
  WireSnapshot final_snap;
  ASSERT_TRUE(client.Watch(id, 2, nullptr, &final_snap).ok());
  // Re-attach after completion: exactly one snapshot, final, identical T̂.
  std::vector<WireSnapshot> stream;
  WireSnapshot again;
  ASSERT_TRUE(client
                  .Watch(id, 2,
                         [&stream](const WireSnapshot& snap) {
                           stream.push_back(snap);
                         },
                         &again)
                  .ok());
  EXPECT_EQ(stream.size(), 1u);
  EXPECT_TRUE(again.final_snapshot);
  EXPECT_EQ(again.gnm.total_estimate, final_snap.gnm.total_estimate);
  client.Quit();
  server->Shutdown();
}

TEST_F(ServiceE2eTest, SigtermDrainFlushesWatchersAndJoinsEverything) {
  QpiServer::Options options;
  options.max_inflight = 1;
  options.exec_workers = 1;
  options.drain_deadline = std::chrono::milliseconds(100);
  options.install_sigterm_handler = true;
  auto server = StartServer(options);

  QpiClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()).ok());
  const char* kJoin =
      "SELECT * FROM orders JOIN lineitem "
      "ON orders.orderkey = lineitem.orderkey";
  uint64_t running_id = 0;
  uint64_t queued_id = 0;
  ASSERT_TRUE(client.Submit(kJoin, &running_id).ok());
  ASSERT_TRUE(client.Submit(kJoin, &queued_id).ok());

  // A second connection watches the queued query across the drain.
  WireSnapshot watcher_final;
  Status watcher_status;
  std::thread watcher([&] {
    QpiClient watch_client;
    watcher_status = watch_client.Connect("127.0.0.1", server->port());
    if (!watcher_status.ok()) return;
    watcher_status = watch_client.Watch(queued_id, 20, nullptr, &watcher_final);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));

  // SIGTERM → self-pipe → the accept thread runs the drain state machine.
  ::raise(SIGTERM);
  server->Shutdown();  // waits for the drain to complete, joins all threads

  watcher.join();
  // The drain flushed a terminal snapshot to the watcher before the bye:
  // its watch either completed with a final snapshot or (if the drain beat
  // the watch registration) surfaced the server's bye as a closed stream.
  if (watcher_status.ok()) {
    EXPECT_TRUE(watcher_final.final_snapshot);
    EXPECT_TRUE(watcher_final.state == "cancelled" ||
                watcher_final.state == "finished")
        << watcher_final.state;
  }

  // Post-drain, the server rejects new connections/submissions.
  QpiClient late;
  EXPECT_FALSE(late.Connect("127.0.0.1", server->port()).ok());
}

TEST_F(ServiceE2eTest, SubmitErrorsComeBackOnTheWire) {
  auto server = StartServer(QpiServer::Options{});
  QpiClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()).ok());
  uint64_t id = 0;
  EXPECT_FALSE(client.Submit("SELECT * FROM no_such_table", &id).ok());
  EXPECT_FALSE(client.Submit("THIS IS NOT SQL", &id).ok());
  // The session survives submit errors.
  ASSERT_TRUE(client.Submit("SELECT * FROM nation", &id).ok());
  WireSnapshot final_snap;
  ASSERT_TRUE(client.Watch(id, 2, nullptr, &final_snap).ok());
  EXPECT_EQ(final_snap.state, "finished");
  client.Quit();
  server->Shutdown();
}

}  // namespace
}  // namespace qpi
