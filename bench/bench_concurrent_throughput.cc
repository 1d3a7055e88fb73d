// Concurrent multi-query throughput: combined rows/sec of a TPC-H-like
// multi-query workload on the concurrent engine at 1/2/4/8 pool workers.
//
// Queries are independent (own ExecContext, own operator tree) over a
// shared read-only catalog, so worker scaling is embarrassingly parallel:
// on a machine with >= 4 cores the 4-worker row should be >= 2x the
// 1-worker row. The monitor thread samples combined progress at 1 ms
// throughout, demonstrating that live snapshotting does not stall the
// workers (PF-OLA's negligible-overhead observation).

#include <thread>

#include "bench/bench_util.h"
#include "common/table_printer.h"
#include "common/timer.h"
#include "progress/concurrent_multi_query.h"

namespace qpi {
namespace {

constexpr double kScaleFactor = 0.02;  // 3K customers / 30K orders
constexpr uint64_t kPublishInterval = 4096;

struct Workload {
  bench::Workbench wb;

  Workload() {
    TpchLikeGenerator gen(4711);
    wb.Add(gen.MakeCustomer(kScaleFactor));
    wb.Add(gen.MakeOrders(kScaleFactor));
    wb.Add(gen.MakeLineitem(kScaleFactor));
  }

  /// The mixed 8-query batch: join-heavy, aggregation, and scan shapes, so
  /// workers with different amounts of work drain at different times.
  std::vector<PlanNodePtr> MakePlans() const {
    std::vector<PlanNodePtr> plans;
    for (int i = 0; i < 3; ++i) {
      plans.push_back(HashJoinPlan(ScanPlan("orders"), ScanPlan("lineitem"),
                                   "orders.orderkey", "lineitem.orderkey"));
    }
    for (int i = 0; i < 3; ++i) {
      plans.push_back(HashAggregatePlan(
          ScanPlan("orders"), {"custkey"},
          {AggregateSpec{AggregateSpec::Kind::kCountStar, ""},
           AggregateSpec{AggregateSpec::Kind::kSum, "totalprice"}}));
    }
    plans.push_back(ScanPlan("lineitem"));
    plans.push_back(HashJoinPlan(ScanPlan("customer"), ScanPlan("orders"),
                                 "customer.custkey", "orders.custkey"));
    return plans;
  }

  std::unique_ptr<ExecContext> MakeContext() {
    auto ctx = std::make_unique<ExecContext>();
    ctx->catalog = &wb.catalog;
    ctx->mode = EstimationMode::kOnce;
    return ctx;
  }

  void Register(ConcurrentMultiQueryExecutor* mq) {
    std::vector<PlanNodePtr> plans = MakePlans();
    for (size_t i = 0; i < plans.size(); ++i) {
      auto ctx = MakeContext();
      OperatorPtr root;
      Status s = CompilePlan(plans[i].get(), ctx.get(), &root);
      if (!s.ok()) {
        std::fprintf(stderr, "compile: %s\n", s.ToString().c_str());
        std::abort();
      }
      s = mq->Add("q" + std::to_string(i), std::move(root), std::move(ctx));
      if (!s.ok()) {
        std::fprintf(stderr, "add: %s\n", s.ToString().c_str());
        std::abort();
      }
    }
  }
};

struct RunResult {
  double seconds = 0;
  uint64_t rows = 0;
  size_t samples = 0;  // combined-progress history points recorded
};

RunResult RunConcurrent(Workload* workload, size_t workers) {
  ConcurrentMultiQueryExecutor::Options options;
  options.num_workers = workers;
  options.publish_interval = kPublishInterval;
  options.monitor_period = std::chrono::milliseconds(1);
  ConcurrentMultiQueryExecutor mq(options);
  workload->Register(&mq);
  Timer timer;
  Status s = mq.RunAll();
  RunResult result;
  result.seconds = timer.ElapsedSeconds();
  if (!s.ok()) std::abort();
  for (size_t i = 0; i < mq.num_queries(); ++i) {
    result.rows += mq.entry(i).rows_emitted.load();
  }
  result.samples = mq.combined_history().size();
  if (mq.combined_history().back() != 1.0) std::abort();
  return result;
}

}  // namespace
}  // namespace qpi

int main() {
  using namespace qpi;
  std::printf(
      "Concurrent multi-query throughput: 8-query TPC-H-like batch "
      "(SF %.2f),\nworker pool + monitor thread.\nHardware threads "
      "available: %u\n\n",
      kScaleFactor, std::thread::hardware_concurrency());

  Workload workload;
  TablePrinter table({"workers", "seconds", "rows/sec", "speedup", "samples"});
  double one_worker_seconds = 0;
  // The catalog is read-only during execution; each run registers freshly
  // compiled operator trees over the same shared tables.
  for (size_t workers : {1, 2, 4, 8}) {
    RunResult r = RunConcurrent(&workload, workers);
    if (workers == 1) one_worker_seconds = r.seconds;
    table.AddRow({std::to_string(workers), FormatDouble(r.seconds, 3),
                  FormatDouble(static_cast<double>(r.rows) / r.seconds, 0),
                  FormatDouble(one_worker_seconds / r.seconds, 2),
                  std::to_string(r.samples)});
  }
  table.Print();
  std::printf(
      "\nExpected shape: rows/sec grows with workers until the batch's 8 "
      "queries or\nthe machine's cores are exhausted (>= 2x at 4 workers "
      "on >= 4 cores);\nspeedup is relative to the 1-worker row.\n");
  return 0;
}
