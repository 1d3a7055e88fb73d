// Event-loop server behaviors beyond the pre-existing e2e surface: the
// broadcast fan-out (N watchers of one cadence class share each
// serialization), binary snapshot negotiation end to end (including a
// mixed JSON/binary cadence class), multi-shard distribution, and the
// client-side connect deadline. Runs under the service tsan/asan presets.

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/tpch_like.h"
#include "service/client.h"
#include "service/net.h"
#include "service/server.h"
#include "storage/catalog.h"

namespace qpi {
namespace {

class ServiceEventLoopTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TpchLikeGenerator gen(23);
    ASSERT_TRUE(gen.PopulateCatalog(&catalog_, 0.002).ok());
  }

  std::unique_ptr<QpiServer> StartServer(QpiServer::Options options) {
    auto server = std::make_unique<QpiServer>(&catalog_, options);
    EXPECT_TRUE(server->Start().ok());
    return server;
  }

  Catalog catalog_;
};

const char kJoinSql[] =
    "SELECT * FROM orders JOIN lineitem "
    "ON orders.orderkey = lineitem.orderkey WHERE totalprice > 100000.0";

TEST_F(ServiceEventLoopTest, WatchersOfOneCadenceClassShareSerializations) {
  QpiServer::Options options;
  options.max_inflight = 1;
  options.exec_workers = 2;
  options.publish_interval = 256;
  auto server = StartServer(options);

  QpiClient submitter;
  ASSERT_TRUE(submitter.Connect("127.0.0.1", server->port()).ok());
  // The watched join can finish within a few milliseconds, so it waits in
  // the admission queue behind a blocker (seconds of work, cancelled below)
  // until every watcher is subscribed: a watch that opens on a terminal
  // query is a one-shot stream with nothing to share.
  uint64_t blocker = 0;
  ASSERT_TRUE(submitter
                  .Submit("SELECT COUNT(*) FROM orders JOIN lineitem ON "
                          "orders.orderpriority = lineitem.linenumber "
                          "JOIN customer ON "
                          "lineitem.quantity = customer.mktsegment",
                          &blocker)
                  .ok());
  uint64_t id = 0;
  ASSERT_TRUE(submitter.Submit(kJoinSql, &id).ok());

  constexpr int kWatchers = 8;
  std::vector<std::thread> threads;
  std::vector<std::string> failures(kWatchers);
  for (int w = 0; w < kWatchers; ++w) {
    threads.emplace_back([&, w] {
      QpiClient watcher;
      Status s = watcher.Connect("127.0.0.1", server->port());
      if (s.ok()) {
        WireSnapshot final_snap;
        s = watcher.Watch(id, 5, nullptr, &final_snap);
        if (s.ok() && !final_snap.final_snapshot) {
          s = Status::Internal("stream ended without a terminal snapshot");
        }
      }
      if (!s.ok()) failures[w] = s.ToString();
      watcher.Quit();
    });
  }
  ServerStats stats;
  bool stats_ok = true;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  do {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    stats_ok = submitter.Stats(&stats).ok();
  } while (stats_ok && stats.watchers < kWatchers &&
           std::chrono::steady_clock::now() < deadline);
  EXPECT_TRUE(stats_ok);
  EXPECT_EQ(stats.watchers, static_cast<uint64_t>(kWatchers));
  EXPECT_TRUE(submitter.Cancel(blocker).ok());
  for (std::thread& thread : threads) thread.join();
  for (const std::string& failure : failures) EXPECT_EQ(failure, "");

  ASSERT_TRUE(submitter.Stats(&stats).ok());
  // Every delivered snapshot buffer is counted in sends; every distinct
  // serialization in builds. With 8 watchers on one (query, cadence)
  // class, grid-shared instants mean strictly fewer builds than sends —
  // the old per-session path would have builds == sends. Watch-opening
  // immediate snapshots are per-stream builds, so the ratio is below 8,
  // but sharing must be clearly visible, not marginal.
  EXPECT_GT(stats.snapshot_sends, stats.snapshot_builds);
  EXPECT_GE(static_cast<double>(stats.snapshot_sends),
            1.5 * static_cast<double>(stats.snapshot_builds));

  ASSERT_TRUE(submitter.Quit().ok());
  server->Shutdown();
}

TEST_F(ServiceEventLoopTest, BinaryWatcherSeesTheSameStreamAsJson) {
  QpiServer::Options options;
  options.max_inflight = 2;
  options.exec_workers = 2;
  options.publish_interval = 256;
  auto server = StartServer(options);

  QpiClient submitter;
  ASSERT_TRUE(submitter.Connect("127.0.0.1", server->port()).ok());
  uint64_t id = 0;
  ASSERT_TRUE(submitter.Submit(kJoinSql, &id).ok());

  // One JSON and one binary watcher share the same cadence class: the
  // mixed class must serve each member its negotiated framing.
  WireSnapshot json_final;
  WireSnapshot binary_final;
  std::vector<WireSnapshot> binary_stream;
  std::thread json_watcher([&] {
    QpiClient watcher;
    if (!watcher.Connect("127.0.0.1", server->port()).ok()) return;
    watcher.Watch(id, 5, nullptr, &json_final);
    watcher.Quit();
  });
  std::thread binary_watcher([&] {
    QpiClient watcher;
    if (!watcher.Connect("127.0.0.1", server->port()).ok()) return;
    if (!watcher.EnableBinarySnapshots().ok()) return;
    watcher.Watch(
        id, 5,
        [&binary_stream](const WireSnapshot& snap) {
          binary_stream.push_back(snap);
        },
        &binary_final);
    watcher.Quit();
  });
  json_watcher.join();
  binary_watcher.join();

  // Both terminals carry the exact same answer — the binary codec is
  // bit-exact on doubles, like the JSON %.17g path.
  ASSERT_TRUE(json_final.final_snapshot);
  ASSERT_TRUE(binary_final.final_snapshot);
  EXPECT_EQ(binary_final.id, json_final.id);
  EXPECT_EQ(binary_final.state, json_final.state);
  EXPECT_EQ(binary_final.rows, json_final.rows);
  EXPECT_EQ(binary_final.gnm.current_calls, json_final.gnm.current_calls);
  EXPECT_EQ(binary_final.gnm.total_estimate, json_final.gnm.total_estimate);
  EXPECT_EQ(binary_final.progress, 1.0);

  // The binary stream obeys the same monotonicity contract as JSON ones.
  for (size_t i = 1; i < binary_stream.size(); ++i) {
    EXPECT_GE(binary_stream[i].seq, binary_stream[i - 1].seq);
    EXPECT_GE(binary_stream[i].progress, binary_stream[i - 1].progress);
  }

  // Watch-after-completion over the binary wire: exactly one final frame.
  QpiClient late;
  ASSERT_TRUE(late.Connect("127.0.0.1", server->port()).ok());
  ASSERT_TRUE(late.EnableBinarySnapshots().ok());
  int snapshots = 0;
  WireSnapshot late_final;
  ASSERT_TRUE(late.Watch(
                      id, 5, [&snapshots](const WireSnapshot&) { ++snapshots; },
                      &late_final)
                  .ok());
  EXPECT_EQ(snapshots, 1);
  EXPECT_TRUE(late_final.final_snapshot);
  EXPECT_EQ(late_final.gnm.total_estimate, json_final.gnm.total_estimate);
  ASSERT_TRUE(late.Quit().ok());

  ASSERT_TRUE(submitter.Quit().ok());
  server->Shutdown();
}

TEST_F(ServiceEventLoopTest, ManyConnectionsSpreadAcrossShardsAndDrain) {
  QpiServer::Options options;
  options.max_inflight = 2;
  options.exec_workers = 2;
  options.event_loops = 4;
  auto server = StartServer(options);

  // Idle watchers of a long queue plus active submitters across 4 shards;
  // SIGTERM-style Shutdown must flush a final to every watch and join.
  constexpr int kClients = 12;
  std::vector<std::unique_ptr<QpiClient>> clients;
  uint64_t id = 0;
  {
    QpiClient submitter;
    ASSERT_TRUE(submitter.Connect("127.0.0.1", server->port()).ok());
    ASSERT_TRUE(submitter.Submit("SELECT * FROM nation", &id).ok());
    WireSnapshot final_snap;
    ASSERT_TRUE(submitter.Watch(id, 5, nullptr, &final_snap).ok());
    ASSERT_TRUE(submitter.Quit().ok());
  }
  for (int c = 0; c < kClients; ++c) {
    auto client = std::make_unique<QpiClient>();
    ASSERT_TRUE(client->Connect("127.0.0.1", server->port()).ok());
    if (c % 2 == 1) {
      ASSERT_TRUE(client->EnableBinarySnapshots().ok());
    }
    clients.push_back(std::move(client));
  }
  // The submitter's quit closes asynchronously on its loop; poll briefly
  // so the gauge settles at exactly the clients still open.
  ServerStats stats;
  for (int attempt = 0; attempt < 100; ++attempt) {
    ASSERT_TRUE(clients[0]->Stats(&stats).ok());
    if (stats.sessions == static_cast<uint64_t>(kClients)) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(stats.sessions, static_cast<uint64_t>(kClients));

  // Shutdown with the connections still open: the per-loop drain sends
  // bye and closes every socket without hanging.
  server->Shutdown();
  for (auto& client : clients) {
    ServerStats ignored;
    EXPECT_FALSE(client->Stats(&ignored).ok());  // closed or bye'd
  }
}

TEST(ServiceEventLoopNet, TcpConnectTimesOutInsteadOfHanging) {
  // A listener whose accept queue is saturated black-holes further SYNs
  // (loopback drops them silently), which used to hang connect(2)
  // indefinitely. The deadline must fire instead.
  int listen_fd = -1;
  uint16_t port = 0;
  ASSERT_TRUE(TcpListen(0, &listen_fd, &port).ok());
  // Shrink the accept queue to its floor and never accept.
  ::listen(listen_fd, 0);
  std::vector<int> fillers;
  for (int i = 0; i < 16; ++i) {
    int fd = -1;
    Status s = TcpConnect("127.0.0.1", port, &fd,
                          std::chrono::milliseconds(100));
    if (!s.ok()) break;  // queue is full from here on
    fillers.push_back(fd);
  }

  int fd = -1;
  auto start = std::chrono::steady_clock::now();
  Status s = TcpConnect("127.0.0.1", port, &fd,
                        std::chrono::milliseconds(200));
  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_FALSE(s.ok());
  // Bounded: well past the deadline yet nowhere near the kernel's
  // multi-minute connect timeout.
  EXPECT_LT(elapsed.count(), 5000);
  if (fd >= 0) ::close(fd);

  for (int filler : fillers) ::close(filler);
  ::close(listen_fd);
}

TEST(ServiceEventLoopNet, TcpConnectStillWorksAgainstALiveListener) {
  int listen_fd = -1;
  uint16_t port = 0;
  ASSERT_TRUE(TcpListen(0, &listen_fd, &port).ok());
  int fd = -1;
  ASSERT_TRUE(
      TcpConnect("127.0.0.1", port, &fd, std::chrono::milliseconds(2000))
          .ok());
  // The fd came back in blocking mode (the event loop only runs server
  // side; clients use blocking reads).
  int flags = ::fcntl(fd, F_GETFL, 0);
  EXPECT_EQ(flags & O_NONBLOCK, 0);
  ::close(fd);
  ::close(listen_fd);
}

}  // namespace
}  // namespace qpi
