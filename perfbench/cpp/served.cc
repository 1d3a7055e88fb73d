// served_mix: a QpiServer in this process (exec_workers=2, event_loops=1,
// max_inflight=2, ensemble on) over an SF 0.01 catalog, driven by three
// closed-loop clients, each on its own loopback connection. A client
// waits a short seeded think time, submits a query, watches it at a 10 ms
// cadence until its terminal snapshot, then goes on to the next; client 0
// negotiates binary frames. The window runs in segments of a fixed number
// of rounds, each against a freshly started server.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <random>
#include <thread>

#include "alloc_count.h"
#include "exec/compiler.h"
#include "idle_spinners.h"
#include "progress/accuracy_audit.h"
#include "query_run.h"
#include "service/client.h"
#include "service/net.h"
#include "service/server.h"
#include "sql/planner.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr size_t kClients = 3;
/// The watch cadence. The server fires snapshots on an absolute grid of
/// this period, and a terminal snapshot waits for the next grid instant,
/// so a query's latency is quantized to the period. A client that
/// submitted as soon as a result arrived would always submit just after a
/// grid instant, and a small change in execution time would then move a
/// whole shape by one period. Each client therefore first waits a seeded
/// random think time below one period.
constexpr double kWatchPeriodMs = 10.0;
constexpr size_t kRoundsPerSegment = 8;

/// One query as a client saw it.
struct ServedQuery {
  std::string failure;
  double latency_ms = 0;     ///< submit to terminal snapshot received
  double submit_rtt_ms = 0;  ///< the SUBMIT round trip
  double first_ms = 0;       ///< submit to the first snapshot
  double queued_ms = 0;      ///< submit to the first non-queued snapshot
  double plan_ms = 0;        ///< client-side PlanQuery (traced only)
  double compile_ms = 0;     ///< client-side CompilePlan (traced only)
  std::vector<double> delivery_ms;  ///< server send stamp to receipt
  uint64_t gnm_calls = 0;
  uint64_t rows = 0;
  double err_sum = 0;
  uint64_t err_checkpoints = 0;
};

std::string CheckFinal(const qpi::WireSnapshot& final, const Shape& shape,
                       const Expected& expected) {
  if (!final.final_snapshot) return "watch stream ended without a final snapshot";
  if (final.state != "finished") return "terminal state " + final.state;
  if (final.gnm.total_estimate != final.gnm.current_calls) {
    return "terminal T^ != C";
  }
  if (final.rows != expected.digest.rows) {
    return "row count " + std::to_string(final.rows) + ", expected " +
           std::to_string(expected.digest.rows);
  }
  if (shape.ola) {
    const qpi::WireOla& ola = final.ola;
    if (!ola.present || !ola.exact || ola.estimate.size() != 2) {
      return "OLA final answer missing or not exact";
    }
    if (ola.estimate[0] != expected.ola_count) return "OLA COUNT not exact";
    if (std::fabs(ola.estimate[1] - expected.ola_sum) >
        1e-9L * std::fabs(expected.ola_sum)) {
      return "OLA SUM not exact";
    }
  }
  return "";
}

ServedQuery RunOne(qpi::QpiServer* server, qpi::QpiClient* client,
                   const qpi::Catalog* catalog, const Shape& shape,
                   const Expected& expected, bool traced) {
  ServedQuery q;
  if (traced) {
    // The server's own plan and compile are not visible from outside, so
    // the same calls are timed here on the same catalog.
    double mark = NowMs();
    qpi::PlanNodePtr plan;
    qpi::Status s = qpi::SqlPlanner(catalog).PlanQuery(shape.sql, &plan);
    q.plan_ms = NowMs() - mark;
    mark = NowMs();
    qpi::ExecContext ctx;
    ctx.catalog = const_cast<qpi::Catalog*>(catalog);
    qpi::OperatorPtr root;
    if (s.ok()) s = qpi::CompilePlan(plan.get(), &ctx, &root);
    q.compile_ms = NowMs() - mark;
    if (!s.ok()) {
      q.failure = shape.name + ": local plan/compile: " + s.ToString();
      return q;
    }
  }
  const double start = qpi::MonotonicMs();
  uint64_t id = 0;
  qpi::OlaOptions ola;
  qpi::Status s = shape.ola ? client->SubmitOla(shape.sql, ola, &id)
                            : client->Submit(shape.sql, &id);
  q.submit_rtt_ms = qpi::MonotonicMs() - start;
  if (!s.ok()) {
    q.failure = shape.name + ": submit: " + s.ToString();
    return q;
  }
  bool first = true;
  bool running = false;
  auto on_snapshot = [&](const qpi::WireSnapshot& snap) {
    double now = qpi::MonotonicMs();
    // Server and client read the same steady clock (one process).
    q.delivery_ms.push_back(now - snap.server_ms);
    if (first) {
      q.first_ms = now - start;
      first = false;
    }
    if (!running && snap.state != "queued") {
      q.queued_ms = now - start;
      running = true;
    }
  };
  qpi::WireSnapshot final;
  s = shape.ola ? client->WatchOla(id, kWatchPeriodMs, on_snapshot, &final)
                : client->Watch(id, kWatchPeriodMs, on_snapshot, &final);
  q.latency_ms = qpi::MonotonicMs() - start;
  if (!s.ok()) {
    q.failure = shape.name + ": watch: " + s.ToString();
    return q;
  }
  q.gnm_calls = static_cast<uint64_t>(final.gnm.current_calls);
  q.rows = final.rows;
  q.failure = CheckFinal(final, shape, expected);
  if (!q.failure.empty()) {
    q.failure = shape.name + ": " + q.failure;
    return q;
  }
  // The audit the server ran at the end of the query, recomputed from its
  // retained trace (the handle lives for the server's lifetime).
  if (qpi::QueryHandle* handle = server->FindQuery(id)) {
    qpi::AccuracyReport report = qpi::ComputeAccuracyReport(
        handle->trace->Samples(), handle->op_labels);
    for (const qpi::CheckpointAccuracy& cp : report.checkpoints) {
      if (!cp.degenerate && std::isfinite(cp.r) && cp.r > 0) {
        q.err_sum += std::fabs(1.0 - cp.r);
        ++q.err_checkpoints;
      }
    }
  }
  return q;
}

/// What one segment, or a window of segments, collected over all clients.
struct Phase {
  std::vector<ServedQuery> queries;
  std::vector<double> round_means;  ///< mean latency of each client round
  double wall_ms = 0;
  double sends = 0;     ///< ServerStats deltas over the segments
  double builds = 0;
  double subtasks = 0;
  double stolen = 0;
  AllocTotals allocs;   ///< counted in traced segments only

  void Append(Phase&& s) {
    for (ServedQuery& q : s.queries) queries.push_back(std::move(q));
    round_means.insert(round_means.end(), s.round_means.begin(),
                       s.round_means.end());
    wall_ms += s.wall_ms;
    sends += s.sends;
    builds += s.builds;
    subtasks += s.subtasks;
    stolen += s.stolen;
    allocs.news += s.allocs.news;
    allocs.bytes += s.allocs.bytes;
  }
};

/// One segment as the clients see it: the server to use, how many rounds
/// each client runs, and whether the client times plan and compile.
struct SegmentSpec {
  int id = 0;  ///< -1 means stop
  qpi::QpiServer* server = nullptr;
  size_t rounds = 0;
  bool traced = false;
};

/// Releases the clients into one segment at a time and waits for all of
/// them to finish it.
class SegmentGate {
 public:
  void Open(const SegmentSpec& spec) {
    std::lock_guard<std::mutex> lock(mu_);
    spec_ = spec;
    done_ = 0;
    cv_.notify_all();
  }
  /// Client side: wait for a segment after `last_id` and return it.
  SegmentSpec Wait(int last_id) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return spec_.id != last_id; });
    return spec_;
  }
  void Done() {
    std::lock_guard<std::mutex> lock(mu_);
    ++done_;
    cv_.notify_all();
  }
  void WaitAllDone(size_t clients) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return done_ == clients; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  SegmentSpec spec_;
  size_t done_ = 0;
};

/// Where the segments' servers hand their FeedbackCache on: next to the
/// binary, in the build tree, named by process id.
std::string FeedbackCachePath() {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::path exe = fs::read_symlink("/proc/self/exe", ec);
  fs::path dir = ec ? fs::path(".") : exe.parent_path();
  std::string name =
      "served_mix_feedback_cache." + std::to_string(::getpid()) + ".json";
  return (dir / name).string();
}

}  // namespace

void RunServedMix(const Args& args, Report* report) {
  std::unique_ptr<qpi::Catalog> catalog =
      TimedSetups([&args] { return TpchCatalog(args.seed, 0.01); }, report);
  RecordTables(*catalog, {"customer", "orders", "lineitem"}, report);
  const std::vector<Shape> shapes = TpchShapes();
  const std::vector<Expected> expected = TpchExpected(*catalog);

  qpi::QpiServer::Options options;
  options.exec_workers = 2;
  options.event_loops = 1;
  options.max_inflight = 2;
  options.ensemble = true;
  options.publish_interval = 1024;
  // Each segment's server saves its FeedbackCache at shutdown and the next
  // one loads it, as a server restarted with --feedback-cache does, so the
  // warm-up fills the cache for every segment after it.
  options.feedback_cache_path = FeedbackCachePath();
  std::remove(options.feedback_cache_path.c_str());
  report->Context("clients", static_cast<double>(kClients));
  report->Context("rounds_per_segment", static_cast<double>(kRoundsPerSegment));

  SegmentGate gate;
  std::mutex results_mu;
  std::vector<ServedQuery> results;
  std::vector<double> round_means;
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      // Seeded think times: each submit lands at a random phase of the
      // server's absolute 10 ms snapshot grid (see kWatchPeriodMs).
      std::mt19937_64 rng(args.seed * kClients + c);
      std::uniform_real_distribution<double> think_ms(0, kWatchPeriodMs);
      size_t next = 2 * c;  // clients start at different shapes
      SegmentSpec spec;
      while ((spec = gate.Wait(spec.id)).id != -1) {
        std::vector<ServedQuery> mine;
        std::vector<double> my_rounds;
        qpi::QpiClient client;
        qpi::Status s = client.Connect("127.0.0.1", spec.server->port());
        if (s.ok() && c == 0) s = client.EnableBinarySnapshots();
        if (!s.ok()) {
          mine.emplace_back();
          mine.back().failure = "client connect: " + s.ToString();
        }
        for (size_t r = 0; s.ok() && r < spec.rounds; ++r) {
          double round_ms = 0;
          for (size_t k = 0; k < shapes.size(); ++k) {
            size_t i = next++ % shapes.size();
            std::this_thread::sleep_for(
                std::chrono::duration<double, std::milli>(think_ms(rng)));
            mine.push_back(RunOne(spec.server, &client, catalog.get(),
                                  shapes[i], expected[i], spec.traced));
            round_ms += mine.back().latency_ms;
          }
          my_rounds.push_back(round_ms / static_cast<double>(shapes.size()));
        }
        if (client.connected()) (void)client.Quit();
        {
          std::lock_guard<std::mutex> lock(results_mu);
          for (ServedQuery& q : mine) results.push_back(std::move(q));
          round_means.insert(round_means.end(), my_rounds.begin(),
                             my_rounds.end());
        }
        gate.Done();
      }
    });
  }

  // One segment: a fresh server, every client connected to it for
  // `rounds` rounds, then a drained shutdown. The server keeps every
  // QueryHandle until it shuts down, so a fixed number of queries per
  // server keeps peak RSS a measure of that working set, not of how many
  // queries the window happened to complete.
  int segment_id = 0;
  auto run_segment = [&](size_t rounds, bool traced) {
    Phase p;
    qpi::QpiServer server(catalog.get(), options);
    qpi::Status started = server.Start();
    if (!started.ok()) {
      std::fprintf(stderr, "server start: %s\n", started.ToString().c_str());
      std::exit(2);
    }
    const qpi::ServerStats before = server.GetStats();
    SetAllocCounting(traced);
    const AllocTotals allocs_before = ReadAllocTotals();
    const double start = NowMs();
    gate.Open({++segment_id, &server, rounds, traced});
    gate.WaitAllDone(kClients);
    p.wall_ms = NowMs() - start;
    const AllocTotals allocs_after = ReadAllocTotals();
    SetAllocCounting(false);
    const qpi::ServerStats after = server.GetStats();
    server.Shutdown();
    p.allocs.news = allocs_after.news - allocs_before.news;
    p.allocs.bytes = allocs_after.bytes - allocs_before.bytes;
    p.sends = static_cast<double>(after.snapshot_sends - before.snapshot_sends);
    p.builds =
        static_cast<double>(after.snapshot_builds - before.snapshot_builds);
    p.subtasks = static_cast<double>(after.tasks_morsel - before.tasks_morsel);
    p.stolen = static_cast<double>(after.tasks_stolen - before.tasks_stolen);
    std::lock_guard<std::mutex> lock(results_mu);
    p.queries = std::move(results);
    p.round_means = std::move(round_means);
    results.clear();
    round_means.clear();
    return p;
  };
  // Whole segments until `seconds` have passed: a segment that starts
  // before the deadline finishes.
  auto run_window = [&](double seconds, bool traced) {
    Phase window;
    const double deadline = NowMs() + seconds * 1000.0;
    do {
      window.Append(run_segment(kRoundsPerSegment, traced));
    } while (NowMs() < deadline);
    return window;
  };

  std::vector<Phase> phases;
  auto spinners = std::make_unique<IdleSpinners>(HostCpus());
  phases.push_back(run_segment(1, false));  // warm-up
  if (!args.trace) {
    phases.push_back(run_window(args.seconds, false));
  } else {
    phases.push_back(run_window(args.seconds / 2, false));
    phases.push_back(run_window(args.seconds / 2, true));
    const Phase& traced = phases.back();
    uint64_t calls = 0;
    for (const ServedQuery& q : traced.queries) calls += q.gnm_calls;
    calls = std::max<uint64_t>(calls, 1);
    report->Layer("alloc.news_per_call",
                  static_cast<double>(traced.allocs.news) /
                      static_cast<double>(calls));
    report->Layer("alloc.bytes_per_call",
                  static_cast<double>(traced.allocs.bytes) /
                      static_cast<double>(calls));
  }
  gate.Open({-1, nullptr, 0, false});
  for (std::thread& t : clients) t.join();
  spinners.reset();
  std::remove(options.feedback_cache_path.c_str());

  for (const Phase& p : phases) {
    for (const ServedQuery& q : p.queries) report->Check(q.failure);
  }

  // Figures from the last phase: the timed window, or the traced window.
  const Phase& w = phases.back();
  std::vector<double> latencies, delivery, first, rtt, queued, plan, compile;
  uint64_t calls = 0, rows = 0, err_n = 0;
  double err_sum = 0;
  for (const ServedQuery& q : w.queries) {
    if (!q.failure.empty()) continue;
    latencies.push_back(q.latency_ms);
    first.push_back(q.first_ms);
    rtt.push_back(q.submit_rtt_ms);
    queued.push_back(q.queued_ms);
    plan.push_back(q.plan_ms);
    compile.push_back(q.compile_ms);
    delivery.insert(delivery.end(), q.delivery_ms.begin(), q.delivery_ms.end());
    calls += q.gnm_calls;
    rows += q.rows;
    err_sum += q.err_sum;
    err_n += q.err_checkpoints;
  }
  const double n = static_cast<double>(std::max<size_t>(latencies.size(), 1));
  const double wall_s = w.wall_ms / 1000.0;
  double tail_pct = 0, delivery_pct = 0;
  const double query_tail = TailValue(latencies, &tail_pct);
  const double delivery_tail = TailValue(delivery, &delivery_pct);
  const double progress_err = err_n > 0 ? err_sum / err_n : 0;
  const double failed_ratio = static_cast<double>(report->failed()) /
                              static_cast<double>(report->attempted());

  report->EndToEnd("query_p50_ms", Median(w.round_means));
  report->EndToEnd("query_tail_ms", query_tail);
  report->EndToEnd("queries_per_s", static_cast<double>(latencies.size()) / wall_s);
  report->EndToEnd("gnm_calls_per_s", static_cast<double>(calls) / wall_s);
  report->EndToEnd("peak_rss_mb", PeakRssMb());
  report->Context("query_tail_percentile", tail_pct);
  report->Context("query_samples", static_cast<double>(latencies.size()));
  report->Context("delivery_p50_ms", Median(delivery));
  report->Context("delivery_tail_ms", delivery_tail);
  report->Context("delivery_tail_percentile", delivery_pct);
  report->Context("delivery_samples", static_cast<double>(delivery.size()));
  report->Context("first_snapshot_p50_ms", Median(first));
  report->Context("progress_err", progress_err);
  report->Context("failed_ratio", failed_ratio);

  if (args.trace) {
    const Phase& plain = phases[phases.size() - 2];
    double plain_sum = 0, traced_sum = 0;
    for (const ServedQuery& q : plain.queries) plain_sum += q.latency_ms;
    for (double x : latencies) traced_sum += x;
    double plain_mean =
        plain_sum / static_cast<double>(std::max<size_t>(plain.queries.size(), 1));
    double sum_plan = 0, sum_compile = 0;
    for (double x : plan) sum_plan += x;
    for (double x : compile) sum_compile += x;
    report->Layer("sql.plan_ms", sum_plan / n);
    report->Layer("exec.compile_ms", sum_compile / n);
    report->Layer("service.submit_rtt_ms", Median(rtt));
    report->Layer("service.queued_ms", Median(queued));
    report->Layer("service.snapshots_per_query", w.sends / n);
    report->Layer("service.fanout", w.builds > 0 ? w.sends / w.builds : 0);
    report->Layer("delivery_p50_ms", Median(delivery));
    report->Layer("delivery_tail_ms", delivery_tail);
    report->Layer("first_snapshot_p50_ms", Median(first));
    report->Layer("exec.gnm_calls", static_cast<double>(calls) / n);
    report->Layer("exec.rows_out", static_cast<double>(rows) / n);
    if (w.subtasks > 0) {
      report->Layer("sched.subtasks", w.subtasks / n);
      report->Layer("sched.steal_ratio", w.stolen / w.subtasks);
    }
    report->Layer("progress_err", progress_err);
    report->Layer("failed_ratio", failed_ratio);
    report->Layer("trace_overhead_pct",
                  100.0 * (traced_sum / n / plain_mean - 1.0));
  }
}

}  // namespace perfbench
