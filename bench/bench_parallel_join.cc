// Parallel-join scaling: wall-clock speedup of the grace hash join's join
// phase as partition pairs fan out across worker threads, on the Figure 3
// skewed workload (150K-row customer tables, Zipf(1) keys with mismatched
// peaks). The build and probe-partition passes — the ONCE estimation
// windows, which must stay sequential for bit-identical freeze semantics —
// run in PreparePartitions() outside the timed region; the measurement
// covers exactly the phase the parallel driver accelerates.
//
// Output: BENCH_parallel_join.json with per-thread-count wall times and
// speedup = t_1 / t_N (min of 3 repetitions), plus host_cpus: a speedup
// is only meaningful next to the core count it was measured on.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <memory>

#include "bench/bench_util.h"
#include "bench/overhead_json.h"
#include "exec/grace_hash_join.h"

namespace qpi {
namespace {

constexpr uint64_t kRows = 150000;
constexpr double kZipf = 1.0;
constexpr uint32_t kDomain = 5000;

/// Tables are immutable after Build, so one copy is shared by every run.
const Catalog& SharedCatalog() {
  static const Catalog* catalog = [] {
    auto* c = new Catalog();
    auto add = [c](TablePtr t) {
      Status s = c->Register(t);
      if (s.ok()) s = c->Analyze(t->name());
      if (!s.ok()) {
        std::fprintf(stderr, "catalog: %s\n", s.ToString().c_str());
        std::abort();
      }
    };
    add(bench::SkewedCustomer("c1", kRows, kZipf, kDomain, /*peak_seed=*/1,
                              /*seed=*/101));
    add(bench::SkewedCustomer("c2", kRows, kZipf, kDomain, /*peak_seed=*/2,
                              /*seed=*/202));
    return c;
  }();
  return *catalog;
}

void BM_GraceJoinPhase(benchmark::State& state) {
  const size_t threads = static_cast<size_t>(state.range(0));
  // Touch the shared catalog before timing starts (first call builds it).
  const Catalog& catalog = SharedCatalog();

  uint64_t rows_out = 0;
  for (auto _ : state) {
    ExecContext ctx;
    ctx.catalog = const_cast<Catalog*>(&catalog);
    ctx.exec_workers = threads;
    ctx.hash_join_partitions = 64;

    PlanNodePtr plan = HashJoinPlan(ScanPlan("c1"), ScanPlan("c2"),
                                    "c1.nationkey", "c2.nationkey");
    OperatorPtr root;
    Status s = CompilePlan(plan.get(), &ctx, &root);
    if (!s.ok()) {
      std::fprintf(stderr, "compile: %s\n", s.ToString().c_str());
      std::abort();
    }
    auto* join = dynamic_cast<GraceHashJoinOp*>(root.get());

    s = root->Open(&ctx);
    if (!s.ok()) {
      std::fprintf(stderr, "open: %s\n", s.ToString().c_str());
      std::abort();
    }
    ctx.BeginExecution();
    // Sequential phases (build + probe partitioning) excluded from the
    // measurement; the parallel workers only launch at the first NextBatch,
    // so the timed window brackets the join phase's full worker lifetime.
    join->PreparePartitions();

    auto start = std::chrono::steady_clock::now();
    RowBatch batch(ctx.batch_size);
    uint64_t n = 0;
    while (root->NextBatch(&batch)) n += batch.size();
    auto elapsed = std::chrono::duration_cast<std::chrono::duration<double>>(
        std::chrono::steady_clock::now() - start);
    state.SetIterationTime(elapsed.count());

    root->Close();
    ctx.EndExecution();
    rows_out = n;
  }
  state.counters["rows_out"] = static_cast<double>(rows_out);
}

BENCHMARK(BM_GraceJoinPhase)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
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
  spec.key = "threads";
  spec.baseline = "1";
  spec.speedup_on_real_time = true;
  return qpi::bench::RunOverheadBenchmarks(argc, argv,
                                           "BENCH_parallel_join.json", spec);
}
