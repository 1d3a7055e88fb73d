// qpi_shell — an interactive SQL shell with a live query progress bar.
//
// The end-to-end artifact a downstream user adopts: a TPC-H-like catalog
// (or CSV files passed as `--csv name=path` arguments), the SQL front end,
// and the paper's ONCE progress framework rendering gnm progress while each
// query runs.
//
// Usage:
//   qpi_shell                      # TPC-H-like demo catalog, stdin REPL
//   qpi_shell --sf 0.05            # bigger demo catalog
//   qpi_shell --csv t=/path/t.csv  # load your own data
//   echo "SELECT ..." | qpi_shell  # batch mode
//   qpi_shell --connect 127.0.0.1:7878   # client REPL against qpi-serve
//   ... --binary                   # negotiate binary snapshot frames
//   ... --connect-timeout-ms 2000  # bound the TCP connect
// With no piped input and no terminal, three canned queries run as a demo.
//
// Shell commands (backslash-prefixed lines):
//   \queue <sql>     queue a statement without running it
//   \runall-mt [N]   run the queued statements (or the canned demo batch if
//                    the queue is empty) on N scheduler workers (default 4)
//                    with a live combined progress bar from the monitor thread
//   \serve [port]    start qpi-serve on this catalog (port 0 = ephemeral);
//                    \quit, Ctrl-D, or SIGTERM drains and stops it.
//                    `--feedback-cache <path>` persists the estimator
//                    selector's cross-query feedback cache there;
//                    `--exec-workers <n>` sizes the scheduler fleet.
//                    \stats prints admission gauges plus the fleet's
//                    task/steal/queue-depth counters.
//
// In --connect mode every plain SQL line is submitted and watched to
// completion with a live progress bar; \submit defers the watch, \watch
// re-attaches, \cancel aborts, \stats prints server gauges. \ola submits
// an aggregate query with online aggregation and streams its running
// estimate ± CI; \stop accepts the current estimate early.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common/timer.h"
#include "datagen/tpch_like.h"
#include "exec/compiler.h"
#include "exec/executor.h"
#include "progress/concurrent_multi_query.h"
#include "progress/monitor.h"
#include "service/client.h"
#include "service/server.h"
#include "sql/planner.h"
#include "storage/csv.h"

using namespace qpi;

namespace {

// --feedback-cache <path>: where \serve persists the estimator-selection
// feedback cache across server runs (empty = in-memory only).
std::string g_feedback_cache_path;

// --exec-workers <n>: \serve's scheduler fleet size (0 = server default).
size_t g_exec_workers = 0;

void DrawProgress(double fraction) {
  const int kWidth = 36;
  int filled = static_cast<int>(fraction * kWidth);
  std::printf("\r  [");
  for (int i = 0; i < kWidth; ++i) std::printf(i < filled ? "#" : " ");
  std::printf("] %5.1f%%", fraction * 100);
  std::fflush(stdout);
}

void RunQuery(Catalog* catalog, const std::string& sql) {
  SqlPlanner planner(catalog);
  PlanNodePtr plan;
  Status s = planner.PlanQuery(sql, &plan);
  if (!s.ok()) {
    std::printf("error: %s\n", s.ToString().c_str());
    return;
  }

  ExecContext ctx;
  ctx.catalog = catalog;
  ctx.mode = EstimationMode::kOnce;
  OperatorPtr root;
  s = CompilePlan(plan.get(), &ctx, &root);
  if (!s.ok()) {
    std::printf("error: %s\n", s.ToString().c_str());
    return;
  }
  std::printf("%s", plan->ToString(1).c_str());

  GnmAccountant accountant(root.get());
  uint64_t ticks = 0;
  uint64_t last_draw = 0;
  FunctionTickObserver progress_hook([&](uint64_t n) {
    ticks += n;
    if (ticks - last_draw >= 100000) {
      last_draw = ticks;
      DrawProgress(accountant.Snapshot().EstimatedProgress());
    }
  });
  ctx.AddTickObserver(&progress_hook);

  Timer timer;
  std::vector<Row> rows;
  s = QueryExecutor::Run(root.get(), &ctx, &rows, nullptr);
  if (!s.ok()) {
    std::printf("error: %s\n", s.ToString().c_str());
    return;
  }
  DrawProgress(1.0);
  std::printf("\n  %zu row(s) in %.3f s\n", rows.size(),
              timer.ElapsedSeconds());
  size_t shown = 0;
  for (const Row& row : rows) {
    if (shown++ >= 10) {
      std::printf("  ... (%zu more)\n", rows.size() - 10);
      break;
    }
    std::printf("  %s\n", RowToString(row).c_str());
  }
}

const char* kDemoBatch[] = {
    "SELECT * FROM customer WHERE acctbal > 9000.0",
    "SELECT custkey, COUNT(*), SUM(totalprice) FROM orders "
    "GROUP BY custkey ORDER BY custkey",
    "SELECT * FROM orders JOIN lineitem "
    "ON orders.orderkey = lineitem.orderkey "
    "WHERE totalprice > 400000.0",
};

void DrawCombined(const ConcurrentMultiQueryExecutor& mq) {
  const int kWidth = 30;
  double combined = mq.CombinedProgress();
  int filled = static_cast<int>(combined * kWidth);
  std::printf("\r  [");
  for (int i = 0; i < kWidth; ++i) std::printf(i < filled ? "#" : " ");
  std::printf("] %5.1f%% |", combined * 100);
  for (size_t i = 0; i < mq.num_queries(); ++i) {
    std::printf(" q%zu:%3.0f%%", i, mq.QueryProgress(i) * 100);
  }
  std::fflush(stdout);
}

/// \runall-mt — run every queued statement on a worker pool, polling the
/// concurrent executor's lock-free snapshots from this (the UI) thread.
void RunAllConcurrent(Catalog* catalog, std::vector<std::string>* queued,
                      size_t workers) {
  if (queued->empty()) {
    std::printf("queue empty; running the canned demo batch.\n");
    for (const char* sql : kDemoBatch) queued->push_back(sql);
  }

  ConcurrentMultiQueryExecutor::Options options;
  options.num_workers = workers;
  ConcurrentMultiQueryExecutor mq(options);
  SqlPlanner planner(catalog);
  for (size_t i = 0; i < queued->size(); ++i) {
    const std::string& sql = (*queued)[i];
    PlanNodePtr plan;
    Status s = planner.PlanQuery(sql, &plan);
    if (!s.ok()) {
      std::printf("error in q%zu (%s): %s\n", i, sql.c_str(),
                  s.ToString().c_str());
      queued->clear();
      return;
    }
    auto ctx = std::make_unique<ExecContext>();
    ctx->catalog = catalog;
    ctx->mode = EstimationMode::kOnce;
    OperatorPtr root;
    s = CompilePlan(plan.get(), ctx.get(), &root);
    if (s.ok()) {
      s = mq.Add("q" + std::to_string(i), std::move(root), std::move(ctx));
    }
    if (!s.ok()) {
      std::printf("error in q%zu: %s\n", i, s.ToString().c_str());
      queued->clear();
      return;
    }
  }

  std::printf("running %zu quer%s on %zu worker(s)...\n", queued->size(),
              queued->size() == 1 ? "y" : "ies", workers);
  Timer timer;
  Status run_status;
  std::thread runner([&] { run_status = mq.RunAll(); });
  while (!mq.AllDone()) {
    DrawCombined(mq);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  runner.join();
  DrawCombined(mq);
  std::printf("\n");
  double seconds = timer.ElapsedSeconds();
  if (!run_status.ok()) {
    std::printf("error: %s\n", run_status.ToString().c_str());
  }
  for (size_t i = 0; i < mq.num_queries(); ++i) {
    std::printf("  q%zu: %llu row(s)  %s\n", i,
                static_cast<unsigned long long>(mq.entry(i).rows_emitted.load()),
                (*queued)[i].c_str());
  }
  std::printf("  %zu quer%s in %.3f s\n", queued->size(),
              queued->size() == 1 ? "y" : "ies", seconds);
  queued->clear();
}

/// \serve — run qpi-serve over this catalog until \quit / EOF / SIGTERM.
void ServeCommand(Catalog* catalog, uint16_t port) {
  QpiServer::Options options;
  options.port = port;
  options.feedback_cache_path = g_feedback_cache_path;
  if (g_exec_workers > 0) options.exec_workers = g_exec_workers;
  options.install_sigterm_handler = true;
  QpiServer server(catalog, options);
  Status s = server.Start();
  if (!s.ok()) {
    std::printf("error: %s\n", s.ToString().c_str());
    return;
  }
  std::printf(
      "qpi-serve listening on 127.0.0.1:%u "
      "(max_inflight=%zu, exec_workers=%zu)\n"
      "\\quit, Ctrl-D, or SIGTERM drains and stops the server.\n",
      server.port(), options.max_inflight, options.exec_workers);
  std::string line;
  while (std::getline(std::cin, line)) {
    if (line == "\\quit" || line == "quit" || line == "exit") break;
    if (line == "\\stats") {
      ServerStats stats = server.GetStats();
      std::printf(
          "  submitted=%llu queued=%llu running=%llu finished=%llu "
          "failed=%llu cancelled=%llu sessions=%llu watchers=%llu\n"
          "  sched: tasks_query=%llu tasks_morsel=%llu tasks_stolen=%llu "
          "run_queue_depth=%llu\n",
          (unsigned long long)stats.submitted, (unsigned long long)stats.queued,
          (unsigned long long)stats.running, (unsigned long long)stats.finished,
          (unsigned long long)stats.failed, (unsigned long long)stats.cancelled,
          (unsigned long long)stats.sessions,
          (unsigned long long)stats.watchers,
          (unsigned long long)stats.tasks_query,
          (unsigned long long)stats.tasks_morsel,
          (unsigned long long)stats.tasks_stolen,
          (unsigned long long)stats.run_queue_depth);
      continue;
    }
    std::printf("serving; \\quit stops, \\stats prints gauges.\n");
  }
  std::printf("draining...\n");
  server.Shutdown();
  std::printf("server stopped.\n");
}

void DrawWireSnapshot(const WireSnapshot& snap) {
  const int kWidth = 30;
  int filled = static_cast<int>(snap.progress * kWidth);
  std::printf("\r  [");
  for (int i = 0; i < kWidth; ++i) std::printf(i < filled ? "#" : " ");
  std::printf("] %5.1f%% %-9s T\xCC\x82=%.0f\xC2\xB1%.0f rows=%llu",
              snap.progress * 100, snap.state.c_str(),
              snap.gnm.total_estimate, snap.gnm.ci_half_width,
              static_cast<unsigned long long>(snap.rows));
  std::fflush(stdout);
}

void DrawOlaSnapshot(const WireSnapshot& snap) {
  std::printf("\r  %5.1f%% %-11s draws=%-8llu", snap.progress * 100,
              snap.state.c_str(),
              static_cast<unsigned long long>(snap.ola.draws));
  for (size_t a = 0; a < snap.ola.estimate.size(); ++a) {
    const char* label =
        a < snap.ola.labels.size() ? snap.ola.labels[a].c_str() : "?";
    if (snap.ola.exact) {
      std::printf(" %s=%.4g (exact)", label, snap.ola.estimate[a]);
    } else {
      std::printf(" %s=%.4g\xC2\xB1%.3g", label, snap.ola.estimate[a],
                  snap.ola.half_width[a]);
    }
  }
  std::printf("   ");
  std::fflush(stdout);
}

/// \ola — submit with online aggregation and stream estimate ± CI until
/// the query finishes, meets its stop target, or \stop accepts it.
void WatchOlaToCompletion(QpiClient* client, const std::string& sql,
                          const OlaOptions& ola, double period_ms) {
  uint64_t id = 0;
  Status s = client->SubmitOla(sql, ola, &id);
  if (!s.ok()) {
    std::printf("error: %s\n", s.ToString().c_str());
    return;
  }
  std::printf("submitted as q%llu (online aggregation)\n",
              (unsigned long long)id);
  WireSnapshot final_snap;
  s = client->WatchOla(id, period_ms, DrawOlaSnapshot, &final_snap);
  std::printf("\n");
  if (!s.ok()) {
    std::printf("error: %s\n", s.ToString().c_str());
    return;
  }
  std::printf("  q%llu %s after %llu draw(s):\n",
              (unsigned long long)final_snap.id, final_snap.state.c_str(),
              (unsigned long long)final_snap.ola.draws);
  for (size_t a = 0; a < final_snap.ola.estimate.size(); ++a) {
    const char* label =
        a < final_snap.ola.labels.size() ? final_snap.ola.labels[a].c_str()
                                         : "?";
    if (final_snap.ola.exact) {
      std::printf("    %s = %.10g (exact)\n", label,
                  final_snap.ola.estimate[a]);
    } else {
      std::printf("    %s = %.10g \xC2\xB1 %.6g\n", label,
                  final_snap.ola.estimate[a], final_snap.ola.half_width[a]);
    }
  }
}

/// Watch query `id` to its terminal snapshot, drawing the progress bar.
void WatchToCompletion(QpiClient* client, uint64_t id, double period_ms) {
  WireSnapshot final_snap;
  Status s = client->Watch(id, period_ms, DrawWireSnapshot, &final_snap);
  std::printf("\n");
  if (!s.ok()) {
    std::printf("error: %s\n", s.ToString().c_str());
    return;
  }
  std::printf("  q%llu %s: %llu row(s), C=%.0f T\xCC\x82=%.0f\n",
              static_cast<unsigned long long>(final_snap.id),
              final_snap.state.c_str(),
              static_cast<unsigned long long>(final_snap.rows),
              final_snap.gnm.current_calls, final_snap.gnm.total_estimate);
}

/// --connect — a REPL speaking the wire protocol to a remote qpi-serve.
int ConnectRepl(const std::string& host, uint16_t port,
                std::chrono::milliseconds connect_timeout, bool binary) {
  QpiClient client;
  Status s = client.Connect(host, port, kDefaultMaxLineBytes,
                            connect_timeout);
  if (!s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  if (binary) {
    s = client.EnableBinarySnapshots();
    if (!s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
  }
  bool interactive = isatty(STDIN_FILENO);
  std::printf("connected to qpi-serve at %s:%u (%s snapshots)\n",
              host.c_str(), port, binary ? "binary" : "json");
  if (interactive) {
    std::printf(
        "SQL lines are submitted and watched live; \\submit <sql> defers,\n"
        "\\watch <id> [period_ms] re-attaches, \\cancel <id> aborts,\n"
        "\\ola [rel=R] [abs=A] <sql> streams estimate\xC2\xB1"
        "CI (online "
        "aggregation),\n"
        "\\stop <id> accepts an OLA query's current estimate,\n"
        "\\trace <id> dumps a progress curve, \\metrics scrapes the server,\n"
        "\\stats prints gauges, quit exits.\n");
  }
  std::string line;
  while (true) {
    if (interactive) std::printf("qpi> ");
    if (!std::getline(std::cin, line)) break;
    if (line.empty()) continue;
    if (line == "quit" || line == "exit") break;
    if (line == "\\stats") {
      ServerStats stats;
      s = client.Stats(&stats);
      if (!s.ok()) {
        std::printf("error: %s\n", s.ToString().c_str());
        continue;
      }
      std::printf(
          "  submitted=%llu queued=%llu running=%llu finished=%llu "
          "failed=%llu cancelled=%llu sessions=%llu watchers=%llu%s\n"
          "  sched: tasks_query=%llu tasks_morsel=%llu tasks_stolen=%llu "
          "run_queue_depth=%llu\n",
          (unsigned long long)stats.submitted, (unsigned long long)stats.queued,
          (unsigned long long)stats.running, (unsigned long long)stats.finished,
          (unsigned long long)stats.failed, (unsigned long long)stats.cancelled,
          (unsigned long long)stats.sessions,
          (unsigned long long)stats.watchers,
          stats.draining ? " (draining)" : "",
          (unsigned long long)stats.tasks_query,
          (unsigned long long)stats.tasks_morsel,
          (unsigned long long)stats.tasks_stolen,
          (unsigned long long)stats.run_queue_depth);
      continue;
    }
    if (line == "\\metrics") {
      std::string text;
      s = client.Metrics(&text);
      if (!s.ok()) {
        std::printf("error: %s\n", s.ToString().c_str());
      } else {
        std::fputs(text.c_str(), stdout);
      }
      continue;
    }
    if (line.rfind("\\trace ", 0) == 0) {
      uint64_t id = std::strtoull(line.c_str() + 7, nullptr, 10);
      TraceDump dump;
      s = client.Trace(id, &dump);
      if (!s.ok()) {
        std::printf("error: %s\n", s.ToString().c_str());
        continue;
      }
      std::printf("q%llu %s: %zu sample(s), stride=%llu, offered=%llu\n",
                  (unsigned long long)dump.id, dump.state.c_str(),
                  dump.samples.size(), (unsigned long long)dump.stride,
                  (unsigned long long)dump.offered);
      // Candidate columns appear when the server ran the query with the
      // estimator ensemble on (per-candidate T̂ curves ride the trace).
      bool has_candidates = false;
      for (const WireTraceSample& sample : dump.samples) {
        if (!sample.total_candidate.empty()) has_candidates = true;
      }
      if (has_candidates) {
        std::printf("  %10s %12s %14s %12s %14s %14s %14s\n", "tick", "C",
                    "T^", "ci", "T^once", "T^dne", "T^byte");
      } else {
        std::printf("  %10s %12s %14s %12s\n", "tick", "C", "T^", "ci");
      }
      for (const WireTraceSample& sample : dump.samples) {
        std::printf("  %10llu %12.0f %14.1f %12.1f",
                    (unsigned long long)sample.tick, sample.calls,
                    sample.total_estimate, sample.ci_half_width);
        if (has_candidates) {
          for (size_t c = 0; c < kNumEstimatorCandidates; ++c) {
            if (c < sample.total_candidate.size()) {
              std::printf(" %14.1f", sample.total_candidate[c]);
            } else {
              std::printf(" %14s", "-");
            }
          }
        }
        std::printf("%s\n", sample.terminal ? "  <- terminal" : "");
      }
      if (has_candidates && !dump.samples.empty() &&
          !dump.samples.back().op_selected.empty()) {
        const WireTraceSample& last = dump.samples.back();
        std::printf("  selector:");
        for (size_t i = 0; i < last.op_selected.size(); ++i) {
          const char* label =
              i < dump.op_labels.size() ? dump.op_labels[i].c_str() : "?";
          uint8_t pick = last.op_selected[i];
          const char* name =
              pick < kNumEstimatorCandidates
                  ? EstimationModeName(static_cast<EstimationMode>(pick))
                  : "?";
          std::printf(" %s=%s", label, name);
        }
        std::printf("\n");
      }
      if (dump.audit_json != "null") {
        std::printf("  audit: %s\n", dump.audit_json.c_str());
      }
      continue;
    }
    if (line.rfind("\\cancel ", 0) == 0) {
      uint64_t id = std::strtoull(line.c_str() + 8, nullptr, 10);
      s = client.Cancel(id);
      std::printf("%s\n", s.ok() ? "cancelled"
                                 : ("error: " + s.ToString()).c_str());
      continue;
    }
    if (line.rfind("\\stop ", 0) == 0) {
      uint64_t id = std::strtoull(line.c_str() + 6, nullptr, 10);
      s = client.Stop(id);
      std::printf("%s\n", s.ok() ? "stopped (estimate accepted)"
                                 : ("error: " + s.ToString()).c_str());
      continue;
    }
    if (line.rfind("\\ola ", 0) == 0) {
      std::string rest = line.substr(5);
      OlaOptions ola;
      // Optional leading rel=R / abs=A tokens set a CI stop target; the
      // rest of the line is the statement.
      while (true) {
        if (rest.rfind("rel=", 0) == 0) {
          char* end = nullptr;
          ola.rel_target = std::strtod(rest.c_str() + 4, &end);
          ola.has_rel_target = true;
          rest = rest.substr(static_cast<size_t>(end - rest.c_str()));
        } else if (rest.rfind("abs=", 0) == 0) {
          char* end = nullptr;
          ola.abs_target = std::strtod(rest.c_str() + 4, &end);
          ola.has_abs_target = true;
          rest = rest.substr(static_cast<size_t>(end - rest.c_str()));
        } else {
          break;
        }
        while (!rest.empty() && rest[0] == ' ') rest = rest.substr(1);
      }
      if (rest.empty()) {
        std::printf("usage: \\ola [rel=R] [abs=A] <sql>\n");
        continue;
      }
      WatchOlaToCompletion(&client, rest, ola, 50);
      continue;
    }
    if (line.rfind("\\watch ", 0) == 0) {
      char* end = nullptr;
      uint64_t id = std::strtoull(line.c_str() + 7, &end, 10);
      double period = 50;
      if (end != nullptr && *end != '\0') period = std::strtod(end, nullptr);
      if (period <= 0) period = 50;
      WatchToCompletion(&client, id, period);
      continue;
    }
    if (line.rfind("\\submit ", 0) == 0) {
      uint64_t id = 0;
      s = client.Submit(line.substr(8), &id);
      if (!s.ok()) {
        std::printf("error: %s\n", s.ToString().c_str());
      } else {
        std::printf("submitted as q%llu (\\watch %llu to attach)\n",
                    (unsigned long long)id, (unsigned long long)id);
      }
      continue;
    }
    uint64_t id = 0;
    s = client.Submit(line, &id);
    if (!s.ok()) {
      std::printf("error: %s\n", s.ToString().c_str());
      continue;
    }
    WatchToCompletion(&client, id, 50);
  }
  client.Quit();
  return 0;
}

/// Dispatches `\`-prefixed shell commands; returns false for SQL lines.
bool HandleCommand(Catalog* catalog, const std::string& line,
                   std::vector<std::string>* queued) {
  if (line.empty() || line[0] != '\\') return false;
  if (line.rfind("\\queue ", 0) == 0) {
    queued->push_back(line.substr(7));
    std::printf("queued (%zu pending)\n", queued->size());
  } else if (line.rfind("\\runall-mt", 0) == 0) {
    size_t workers = 4;
    std::string arg = line.substr(std::strlen("\\runall-mt"));
    if (!arg.empty()) {
      try {
        workers = std::stoul(arg);
      } catch (...) {
        workers = 0;
      }
      if (workers == 0) {
        std::printf("usage: \\runall-mt [num_workers >= 1]\n");
        return true;
      }
    }
    RunAllConcurrent(catalog, queued, workers);
  } else if (line.rfind("\\serve", 0) == 0) {
    uint16_t port = 0;
    std::string arg = line.substr(std::strlen("\\serve"));
    if (!arg.empty()) port = static_cast<uint16_t>(std::strtoul(
        arg.c_str(), nullptr, 10));
    ServeCommand(catalog, port);
  } else {
    std::printf("unknown command %s (try \\queue, \\runall-mt, \\serve)\n",
                line.c_str());
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  double scale_factor = 0.01;
  Catalog catalog;
  bool loaded_csv = false;

  std::string connect_spec;
  long connect_timeout_ms = 10000;
  bool connect_binary = false;

  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--connect") == 0 && i + 1 < argc) {
      connect_spec = argv[++i];
      if (connect_spec.rfind(':') == std::string::npos) {
        std::fprintf(stderr, "--connect expects host:port\n");
        return 1;
      }
    } else if (std::strcmp(argv[i], "--connect-timeout-ms") == 0 &&
               i + 1 < argc) {
      connect_timeout_ms = std::strtol(argv[++i], nullptr, 10);
      if (connect_timeout_ms <= 0) {
        std::fprintf(stderr, "--connect-timeout-ms expects a positive int\n");
        return 1;
      }
    } else if (std::strcmp(argv[i], "--binary") == 0) {
      connect_binary = true;
    } else if (std::strcmp(argv[i], "--sf") == 0 && i + 1 < argc) {
      scale_factor = std::stod(argv[++i]);
    } else if (std::strcmp(argv[i], "--feedback-cache") == 0 && i + 1 < argc) {
      g_feedback_cache_path = argv[++i];
    } else if (std::strcmp(argv[i], "--exec-workers") == 0 && i + 1 < argc) {
      g_exec_workers = static_cast<size_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--csv") == 0 && i + 1 < argc) {
      std::string spec = argv[++i];
      size_t eq = spec.find('=');
      if (eq == std::string::npos) {
        std::fprintf(stderr, "--csv expects name=path\n");
        return 1;
      }
      TablePtr table;
      Status s = CsvReader::LoadFile(spec.substr(eq + 1), spec.substr(0, eq),
                                     &table);
      if (s.ok()) s = catalog.Register(table);
      if (s.ok()) s = catalog.Analyze(table->name());
      if (!s.ok()) {
        std::fprintf(stderr, "%s\n", s.ToString().c_str());
        return 1;
      }
      loaded_csv = true;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", argv[i]);
      return 1;
    }
  }

  if (!connect_spec.empty()) {
    size_t colon = connect_spec.rfind(':');
    return ConnectRepl(connect_spec.substr(0, colon),
                       static_cast<uint16_t>(std::strtoul(
                           connect_spec.c_str() + colon + 1, nullptr, 10)),
                       std::chrono::milliseconds(connect_timeout_ms),
                       connect_binary);
  }

  if (!loaded_csv) {
    std::printf("Loading TPC-H-like demo catalog at SF %.3g...\n",
                scale_factor);
    TpchLikeGenerator gen(2026);
    Status s = gen.PopulateCatalog(&catalog, scale_factor);
    if (!s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
  }
  std::printf("Tables:");
  for (const std::string& name : catalog.TableNames()) {
    std::printf(" %s(%llu)", name.c_str(),
                static_cast<unsigned long long>(
                    catalog.Find(name)->num_rows()));
  }
  std::printf("\n\n");

  bool interactive = isatty(STDIN_FILENO);
  if (interactive) {
    std::printf(
        "Enter SQL (one statement per line), Ctrl-D to exit.\n"
        "\\queue <sql> defers a statement; \\runall-mt [N] runs the queue "
        "concurrently.\n");
  }

  std::string line;
  std::vector<std::string> queued;
  bool saw_input = false;
  while (true) {
    if (interactive) std::printf("qpi> ");
    if (!std::getline(std::cin, line)) break;
    saw_input = true;
    if (line.empty()) continue;
    if (line == "quit" || line == "exit") break;
    if (HandleCommand(&catalog, line, &queued)) continue;
    RunQuery(&catalog, line);
  }

  if (!saw_input && !interactive) {
    std::printf("No input; running demo queries.\n\n");
    for (const char* sql : kDemoBatch) {
      std::printf("qpi> %s\n", sql);
      RunQuery(&catalog, sql);
      std::printf("\n");
    }
  }
  return 0;
}
