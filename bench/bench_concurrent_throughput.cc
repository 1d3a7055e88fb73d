// Concurrent multi-query throughput: wall time of a TPC-H-like 8-query
// batch on the concurrent engine at 1/2/4 pool workers. Queries are
// independent over a shared read-only catalog, so on >= 4 cores the
// 4-worker batch should take <= 1/2 the 1-worker time. Each query publishes
// through its QueryRun's TracePublisher while the monitor thread samples
// combined progress at 1 ms, showing that live snapshotting does not stall
// the workers (PF-OLA's negligible-overhead observation).
//
// Output: BENCH_concurrent_throughput.json — wall time per worker count
// (min of 3, with the spread (max - min) / min), rows per batch, speedup
// t_1 / t_N, and host_cpus to compare against.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "bench/bench_util.h"
#include "bench/overhead_json.h"
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

void BM_ConcurrentBatch(benchmark::State& state) {
  // Built once (first call, before any timed window); read-only after.
  static Workload* workload = new Workload();
  uint64_t rows = 0;
  for (auto _ : state) {
    ConcurrentMultiQueryExecutor::Options options;
    options.num_workers = static_cast<size_t>(state.range(0));
    options.publish_interval = kPublishInterval;
    options.monitor_period = std::chrono::milliseconds(1);
    ConcurrentMultiQueryExecutor mq(options);
    workload->Register(&mq);
    auto start = std::chrono::steady_clock::now();
    Status s = mq.RunAll();
    std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    state.SetIterationTime(elapsed.count());
    if (!s.ok() || mq.combined_history().back() != 1.0) std::abort();
    rows = 0;
    for (size_t i = 0; i < mq.num_queries(); ++i) {
      rows += mq.entry(i).rows_emitted.load();
    }
  }
  state.counters["rows"] = static_cast<double>(rows);
}

BENCHMARK(BM_ConcurrentBatch)
    ->ArgName("workers")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseManualTime()
    ->MeasureProcessCPUTime()
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1)
    ->Repetitions(3)
    ->ReportAggregatesOnly(false);

}  // namespace
}  // namespace qpi

int main(int argc, char** argv) {
  qpi::bench::OverheadRecorder::PairingSpec spec;
  spec.key = "workers";
  spec.baseline = "1";
  spec.speedup_on_real_time = true;
  return qpi::bench::RunOverheadBenchmarks(
      argc, argv, "BENCH_concurrent_throughput.json", spec);
}
