// qpi_perfbench: the repository's end-to-end benchmark. SQL text goes in;
// rows, progress snapshots and the accuracy audit come out, and every
// answer is checked against an oracle computed without the engine.
//
//   qpi_perfbench --workload tpch_mix|skewed_join_par|served_mix
//                 --seed N --seconds S --trace 0|1
//
// See perfbench/README.md for the workloads, metrics and the two modes.

#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "alloc_count.h"
#include "datagen/tpch_like.h"
#include "query_run.h"
#include "report.h"
#include "workloads.h"

namespace perfbench {
namespace {

/// Set-up runs: at least kMinSetupRepeats, and more while they have taken
/// under kSetupBudgetS in total, up to kMaxSetupRepeats, so that a quick
/// set-up still gets a median over enough runs to be steady.
constexpr size_t kMinSetupRepeats = 5;
constexpr size_t kMaxSetupRepeats = 25;
constexpr double kSetupBudgetS = 1.0;

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "qpi_perfbench: %s\n", message.c_str());
  std::exit(2);
}

void RegisterOrDie(qpi::Catalog* catalog, qpi::TablePtr table) {
  qpi::Status s = catalog->Register(table);
  if (s.ok()) s = catalog->Analyze(table->name());
  if (!s.ok()) Die("catalog: " + s.ToString());
}

}  // namespace

size_t HostCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  int n = CPU_COUNT(&set);
  return n > 0 ? static_cast<size_t>(n) : 1;
}

std::unique_ptr<qpi::Catalog> TimedSetups(
    const std::function<std::unique_ptr<qpi::Catalog>()>& build,
    Report* report) {
  std::vector<double> seconds;
  std::unique_ptr<qpi::Catalog> catalog;
  double total_s = 0;
  while (seconds.size() < kMinSetupRepeats ||
         (total_s < kSetupBudgetS && seconds.size() < kMaxSetupRepeats)) {
    catalog.reset();  // at most one catalog alive, so peak RSS sees one
    double start = NowMs();
    catalog = build();
    seconds.push_back((NowMs() - start) / 1000.0);
    total_s += seconds.back();
  }
  report->EndToEnd("setup_s", Median(seconds));
  std::string runs;
  for (double s : seconds) runs += (runs.empty() ? "" : ", ") + std::to_string(s);
  report->Context("setup_runs_s", "[" + runs + "]");
  return catalog;
}

std::unique_ptr<qpi::Catalog> TpchCatalog(uint64_t seed, double scale_factor) {
  auto catalog = std::make_unique<qpi::Catalog>();
  qpi::Status s =
      qpi::TpchLikeGenerator(seed).PopulateCatalog(catalog.get(), scale_factor);
  if (!s.ok()) Die("datagen: " + s.ToString());
  return catalog;
}

void RecordTables(const qpi::Catalog& catalog,
                  const std::vector<std::string>& names, Report* report) {
  std::string sizes;
  for (const std::string& name : names) {
    qpi::TablePtr table = catalog.Find(name);
    if (table == nullptr) Die("missing table " + name);
    sizes += (sizes.empty() ? "" : ", ") + JsonString(name) + ": " +
             std::to_string(table->num_rows());
  }
  report->Context("table_rows", "{" + sizes + "}");
}

namespace {

/// Everything one timed window of in-process queries measured.
struct Window {
  std::vector<double> latencies;
  /// Mean per-query latency of each round of the mix. A round runs every
  /// shape once, so its mean is the mix's per-query latency; the median
  /// over rounds avoids the plain median's seam between two shapes.
  std::vector<double> round_means;
  uint64_t queries = 0;
  uint64_t gnm_calls = 0;
  uint64_t rows = 0;
  double err_sum = 0;
  uint64_t err_checkpoints = 0;
  double wall_ms = 0;
  LayerSample sum;  ///< layer spans summed over the window's queries
  uint64_t join_queries = 0;  ///< queries whose root is a grace hash join
  double join_partition_ms = 0;
  double join_phase_ms = 0;
  std::map<std::string, std::pair<double, double>> publish_drain_by_shape;

  void Add(const std::string& shape, const QueryResult& r) {
    latencies.push_back(r.latency_ms);
    ++queries;
    gnm_calls += r.gnm_calls;
    rows += r.rows;
    err_sum += r.err_sum;
    err_checkpoints += r.err_checkpoints;
    const LayerSample& l = r.layers;
    sum.plan_ms += l.plan_ms;
    sum.compile_ms += l.compile_ms;
    sum.open_ms += l.open_ms;
    sum.partition_ms += l.partition_ms;
    sum.drain_ms += l.drain_ms;
    sum.drain_cpu_ms += l.drain_cpu_ms;
    sum.publish_ms += l.publish_ms;
    sum.finalize_ms += l.finalize_ms;
    sum.publishes += l.publishes;
    sum.news += l.news;
    sum.bytes += l.bytes;
    sum.subtasks += l.subtasks;
    sum.stolen += l.stolen;
    sum.once_selected += l.once_selected;
    sum.selected_total += l.selected_total;
    if (r.root_join) {
      ++join_queries;
      join_partition_ms += l.partition_ms;
      join_phase_ms += l.drain_ms;
    }
    auto& [publish, drain] = publish_drain_by_shape[shape];
    publish += l.publish_ms;
    drain += l.drain_ms;
  }

  double MeanLatency() const {
    double total = 0;
    for (double x : latencies) total += x;
    return queries == 0 ? 0 : total / static_cast<double>(queries);
  }
};

/// What one client thread ran: each query's shape and result, the mean
/// per-query latency of each of its rounds, and when it finished.
struct ClientLog {
  std::vector<std::pair<size_t, QueryResult>> results;
  std::vector<double> round_means;
  double end_ms = 0;
};

/// Run whole rounds of `shapes`, starting at shape `offset`, until
/// `deadline_ms`; a round that starts before the deadline finishes, so
/// every shape runs equally often. A past deadline runs one round.
ClientLog RunRounds(QueryRunner* runner, const std::vector<Shape>& shapes,
                    const std::vector<Expected>& expected, size_t offset,
                    double deadline_ms, bool traced, bool digest_rows) {
  ClientLog log;
  do {
    double round_ms = 0;
    for (size_t k = 0; k < shapes.size(); ++k) {
      size_t i = (offset + k) % shapes.size();
      QueryResult r = runner->Run(shapes[i], expected[i], traced, digest_rows);
      round_ms += r.latency_ms;
      log.results.emplace_back(i, std::move(r));
    }
    log.round_means.push_back(round_ms / static_cast<double>(shapes.size()));
  } while (NowMs() < deadline_ms);
  log.end_ms = NowMs();
  return log;
}

/// Run every client for `seconds` (0: one round each) on its own thread,
/// client c starting at shape c so concurrent clients mix shapes, and fold
/// what they ran into one Window. Every query counts as one check.
Window RunClients(const std::vector<std::unique_ptr<QueryRunner>>& runners,
                  const std::vector<Shape>& shapes,
                  const std::vector<Expected>& expected, double seconds,
                  bool traced, bool digest_rows, Report* report) {
  std::vector<ClientLog> logs(runners.size());
  const double start = NowMs();
  const double deadline = start + seconds * 1000.0;
  std::vector<std::thread> threads;
  for (size_t c = 0; c < runners.size(); ++c) {
    threads.emplace_back([&, c] {
      logs[c] = RunRounds(runners[c].get(), shapes, expected, c, deadline,
                          traced, digest_rows);
    });
  }
  for (std::thread& t : threads) t.join();
  Window w;
  for (const ClientLog& log : logs) {
    for (const auto& [shape, r] : log.results) {
      report->Check(r.failure);
      w.Add(shapes[shape].name, r);
    }
    w.round_means.insert(w.round_means.end(), log.round_means.begin(),
                         log.round_means.end());
    w.wall_ms = std::max(w.wall_ms, log.end_ms - start);
  }
  return w;
}

void ReportEndToEnd(const Window& w, Report* report) {
  const double wall_s = w.wall_ms / 1000.0;
  double percentile = 0;
  report->EndToEnd("query_p50_ms", Median(w.round_means));
  report->EndToEnd("query_tail_ms", TailValue(w.latencies, &percentile));
  report->EndToEnd("queries_per_s", static_cast<double>(w.queries) / wall_s);
  report->EndToEnd("gnm_calls_per_s",
                   static_cast<double>(w.gnm_calls) / wall_s);
  report->Context("query_tail_percentile", percentile);
  report->Context("query_samples", static_cast<double>(w.queries));
  if (w.err_checkpoints > 0) {
    report->Context("progress_err", w.err_sum / w.err_checkpoints);
  }
}

void ReportLayers(const Window& w, double untraced_mean_ms, Report* report) {
  const double q = static_cast<double>(w.queries);
  const LayerSample& s = w.sum;
  report->Layer("sql.plan_ms", s.plan_ms / q);
  report->Layer("exec.compile_ms", s.compile_ms / q);
  report->Layer("exec.open_ms", s.open_ms / q);
  report->Layer("exec.drain_ms", (s.drain_ms - s.publish_ms) / q);
  report->Layer("exec.drain_cpu_ms", s.drain_cpu_ms / q);
  if (w.join_queries > 0) {
    report->Layer("exec.join_partition_ms",
                  w.join_partition_ms / static_cast<double>(w.join_queries));
    report->Layer("exec.join_phase_ms",
                  w.join_phase_ms / static_cast<double>(w.join_queries));
  }
  report->Layer("exec.gnm_calls", static_cast<double>(w.gnm_calls) / q);
  report->Layer("exec.rows_out", static_cast<double>(w.rows) / q);
  const double calls = static_cast<double>(std::max<uint64_t>(w.gnm_calls, 1));
  report->Layer("alloc.news_per_call", static_cast<double>(s.news) / calls);
  report->Layer("alloc.bytes_per_call", static_cast<double>(s.bytes) / calls);
  if (s.subtasks > 0) {
    report->Layer("sched.subtasks", static_cast<double>(s.subtasks) / q);
    report->Layer("sched.steal_ratio", static_cast<double>(s.stolen) /
                                           static_cast<double>(s.subtasks));
  }
  report->Layer("progress.publish_ms", s.publish_ms / q);
  report->Layer("progress.publishes", static_cast<double>(s.publishes) / q);
  report->Layer("progress.publish_share",
                s.drain_ms > 0 ? 100.0 * s.publish_ms / s.drain_ms : 0);
  for (const auto& [shape, pd] : w.publish_drain_by_shape) {
    if (pd.second > 0) {
      report->Layer("progress.publish_share." + shape,
                    100.0 * pd.first / pd.second);
    }
  }
  report->Layer("progress.finalize_ms", s.finalize_ms / q);
  if (s.selected_total > 0) {
    report->Layer("estimators.once_selected_share",
                  static_cast<double>(s.once_selected) /
                      static_cast<double>(s.selected_total));
  }
  if (w.err_checkpoints > 0) {
    report->Layer("progress_err", w.err_sum / w.err_checkpoints);
  }
  report->Layer("trace_overhead_pct",
                100.0 * (w.MeanLatency() / untraced_mean_ms - 1.0));
}

/// tpch_mix and skewed_join_par: the in-process closed loop, one client.
void RunInProcess(const Args& args, bool skewed, Report* report) {
  std::unique_ptr<qpi::Catalog> catalog;
  std::vector<Shape> shapes;
  std::vector<Expected> expected;
  if (skewed) {
    // The paper's Figure 3 tables: 150K rows each, nationkey Zipf(1) over
    // 5000 values, with the two tables' frequent values in different
    // places (peak seeds 1 and 2).
    catalog = TimedSetups(
        [&args] {
          auto c = std::make_unique<qpi::Catalog>();
          qpi::TpchLikeGenerator gen(args.seed);
          RegisterOrDie(c.get(), gen.MakeSkewedCustomer(1.0, 1.0, 5000, 1, "c1"));
          RegisterOrDie(c.get(), gen.MakeSkewedCustomer(1.0, 1.0, 5000, 2, "c2"));
          return c;
        },
        report);
    RecordTables(*catalog, {"c1", "c2"}, report);
    shapes = {SkewedShape()};
    expected = {SkewedExpected(*catalog)};
  } else {
    catalog = TimedSetups([&args] { return TpchCatalog(args.seed, 0.1); },
                          report);
    RecordTables(*catalog, {"customer", "orders", "lineitem"}, report);
    shapes = TpchShapes();
    expected = TpchExpected(*catalog);
  }

  // skewed_join_par runs one query at a time whose workers plus driving
  // thread fit the cores. tpch_mix runs one single-core client per CPU (at
  // most 4): with a single client the idle CPUs let host interference
  // swing throughput by ~20% between runs; a client per CPU measured
  // within ~3%.
  const size_t cpus = HostCpus();
  const size_t workers = skewed ? std::max<size_t>(1, cpus - 1) : 1;
  const size_t clients = skewed ? 1 : std::min<size_t>(cpus, 4);
  report->Context("exec_workers", static_cast<double>(workers));
  report->Context("clients", static_cast<double>(clients));
  std::unique_ptr<qpi::TaskScheduler> scheduler;
  if (workers > 1) scheduler = std::make_unique<qpi::TaskScheduler>(workers);
  std::vector<std::unique_ptr<QueryRunner>> runners;
  for (size_t c = 0; c < clients; ++c) {
    runners.push_back(
        std::make_unique<QueryRunner>(catalog.get(), workers, scheduler.get()));
  }

  // Warm-up round: every output row checked against the oracle; it also
  // fills each FeedbackCache and the allocator before timing.
  RunClients(runners, shapes, expected, 0, false, true, report);
  if (!args.trace) {
    Window w =
        RunClients(runners, shapes, expected, args.seconds, false, false, report);
    ReportEndToEnd(w, report);
  } else {
    Window plain = RunClients(runners, shapes, expected, args.seconds / 2,
                              false, false, report);
    SetAllocCounting(true);
    Window traced = RunClients(runners, shapes, expected, args.seconds / 2,
                               true, false, report);
    SetAllocCounting(false);
    ReportLayers(traced, plain.MeanLatency(), report);
  }
  report->EndToEnd("peak_rss_mb", PeakRssMb());
  if (args.trace) {
    report->Layer("failed_ratio", static_cast<double>(report->failed()) /
                                      static_cast<double>(report->attempted()));
  }
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: qpi_perfbench --workload tpch_mix|skewed_join_par|"
                 "served_mix --seed N --seconds S --trace 0|1\n");
    return 2;
  }
  Report report(args);
  report.Context("nproc", static_cast<double>(HostCpus()));
  std::string build_type = PERFBENCH_BUILD_TYPE;
#ifndef NDEBUG
  build_type += " (assertions on)";
#endif
  if (build_type != "Release") build_type = "NON-RELEASE: " + build_type;
  report.Context("build_type", JsonString(build_type));
  if (args.workload == "tpch_mix") {
    RunInProcess(args, false, &report);
  } else if (args.workload == "skewed_join_par") {
    RunInProcess(args, true, &report);
  } else if (args.workload == "served_mix") {
    RunServedMix(args, &report);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  return report.Print();
}
