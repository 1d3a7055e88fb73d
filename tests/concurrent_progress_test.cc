// Concurrent multi-query execution: N queries on M pool workers with a
// monitor thread snapshotting live — race-free under ThreadSanitizer,
// per-query progress within bounds, combined progress terminal at 1.0,
// prompt cancellation of a runaway query.

#include "progress/concurrent_multi_query.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "datagen/table_builder.h"
#include "exec/compiler.h"
#include "exec/executor.h"
#include "storage/catalog.h"

namespace qpi {
namespace {

TablePtr MakeSkewed(const std::string& name, uint64_t rows, double z,
                    uint32_t domain, uint64_t peak, uint64_t seed) {
  TableBuilder b(name);
  b.AddColumn("k", std::make_unique<ZipfSpec>(z, domain, peak))
      .AddColumn("id", std::make_unique<SequentialSpec>(0));
  return b.Build(rows, seed);
}

ConcurrentMultiQueryExecutor::Options FastMonitorOptions(size_t workers) {
  ConcurrentMultiQueryExecutor::Options options;
  options.num_workers = workers;
  options.publish_interval = 64;
  options.monitor_period = std::chrono::microseconds(200);
  return options;
}

class ConcurrentProgressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(catalog_.Register(MakeSkewed("a", 2000, 1.0, 40, 1, 1)).ok());
    ASSERT_TRUE(catalog_.Register(MakeSkewed("b", 2000, 1.0, 40, 2, 2)).ok());
    ASSERT_TRUE(catalog_.Register(MakeSkewed("c", 500, 0.0, 20, 3, 3)).ok());
    for (const char* name : {"a", "b", "c"}) {
      ASSERT_TRUE(catalog_.Analyze(name).ok());
    }
  }

  void AddQuery(ConcurrentMultiQueryExecutor* mq, const std::string& name,
                PlanNodePtr plan) {
    auto ctx = std::make_unique<ExecContext>();
    ctx->catalog = &catalog_;
    ctx->mode = EstimationMode::kOnce;
    OperatorPtr root;
    ASSERT_TRUE(CompilePlan(plan.get(), ctx.get(), &root).ok());
    ASSERT_TRUE(mq->Add(name, std::move(root), std::move(ctx)).ok());
  }

  uint64_t SoloRowCount(PlanNodePtr plan) {
    ExecContext ctx;
    ctx.catalog = &catalog_;
    ctx.mode = EstimationMode::kOnce;
    OperatorPtr root;
    EXPECT_TRUE(CompilePlan(plan.get(), &ctx, &root).ok());
    uint64_t rows = 0;
    EXPECT_TRUE(QueryExecutor::Run(root.get(), &ctx, nullptr, &rows).ok());
    return rows;
  }

  Catalog catalog_;
};

TEST_F(ConcurrentProgressTest, ConcurrentRunsMatchSoloResults) {
  uint64_t join_rows =
      SoloRowCount(HashJoinPlan(ScanPlan("a"), ScanPlan("b"), "a.k", "b.k"));
  uint64_t agg_rows = SoloRowCount(HashAggregatePlan(
      ScanPlan("c"), {"k"},
      {AggregateSpec{AggregateSpec::Kind::kCountStar, ""}}));

  ConcurrentMultiQueryExecutor mq(FastMonitorOptions(2));
  AddQuery(&mq, "join",
           HashJoinPlan(ScanPlan("a"), ScanPlan("b"), "a.k", "b.k"));
  AddQuery(&mq, "agg",
           HashAggregatePlan(
               ScanPlan("c"), {"k"},
               {AggregateSpec{AggregateSpec::Kind::kCountStar, ""}}));
  AddQuery(&mq, "sort", SortPlan(ScanPlan("c"), {"k"}));
  AddQuery(&mq, "scan", ScanPlan("b"));
  ASSERT_TRUE(mq.RunAll().ok());
  EXPECT_TRUE(mq.AllDone());
  EXPECT_EQ(mq.entry(0).rows_emitted.load(), join_rows);
  EXPECT_EQ(mq.entry(1).rows_emitted.load(), agg_rows);
  EXPECT_EQ(mq.entry(2).rows_emitted.load(), 500u);
  EXPECT_EQ(mq.entry(3).rows_emitted.load(), 2000u);
}

TEST_F(ConcurrentProgressTest, PerQueryAndCombinedProgressReachOne) {
  ConcurrentMultiQueryExecutor mq(FastMonitorOptions(4));
  AddQuery(&mq, "q0",
           HashJoinPlan(ScanPlan("a"), ScanPlan("b"), "a.k", "b.k"));
  AddQuery(&mq, "q1", SortPlan(ScanPlan("c"), {"k"}));
  ASSERT_TRUE(mq.RunAll().ok());
  EXPECT_DOUBLE_EQ(mq.QueryProgress(0), 1.0);
  EXPECT_DOUBLE_EQ(mq.QueryProgress(1), 1.0);
  EXPECT_DOUBLE_EQ(mq.CombinedProgress(), 1.0);
}

TEST_F(ConcurrentProgressTest, MoreQueriesThanWorkersAllComplete) {
  ConcurrentMultiQueryExecutor mq(FastMonitorOptions(1));
  for (int i = 0; i < 5; ++i) {
    AddQuery(&mq, "q" + std::to_string(i), ScanPlan(i % 2 ? "a" : "c"));
  }
  ASSERT_TRUE(mq.RunAll().ok());
  EXPECT_TRUE(mq.AllDone());
  for (size_t i = 0; i < mq.num_queries(); ++i) {
    EXPECT_EQ(mq.entry(i).rows_emitted.load(), i % 2 ? 2000u : 500u);
  }
}

TEST_F(ConcurrentProgressTest, MonitorHistoryBoundedAndTerminal) {
  ConcurrentMultiQueryExecutor mq(FastMonitorOptions(2));
  AddQuery(&mq, "q0",
           HashJoinPlan(ScanPlan("a"), ScanPlan("b"), "a.k", "b.k"));
  AddQuery(&mq, "q1", ScanPlan("c"));
  ASSERT_TRUE(mq.RunAll().ok());

  std::vector<double> history = mq.combined_history();
  ASSERT_GE(history.size(), 1u);
  for (double p : history) {
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
  EXPECT_DOUBLE_EQ(history.back(), 1.0);

  // Each query's own curve is its run's trace ring: bounded by the ring's
  // decimation, and ending on the terminal sample.
  for (size_t i = 0; i < mq.num_queries(); ++i) {
    std::vector<TraceSample> samples = mq.entry(i).trace->Samples();
    ASSERT_GE(samples.size(), 1u);
    EXPECT_LE(samples.size(), mq.entry(i).trace->capacity());
    double prev_calls = -1.0;
    for (const TraceSample& s : samples) {
      EXPECT_GE(s.calls, prev_calls);  // C(Q) never runs backward
      prev_calls = s.calls;
      double p = s.total_estimate > 0 ? s.calls / s.total_estimate : 0.0;
      EXPECT_GE(p, 0.0);
      EXPECT_LE(p, 1.0);
    }
    EXPECT_TRUE(samples.back().terminal);
    EXPECT_DOUBLE_EQ(samples.back().calls / samples.back().total_estimate,
                     1.0);
  }
}

TEST_F(ConcurrentProgressTest, PerQueryProgressMonotoneForScans) {
  // Scans have exact totals, so per-query estimated progress is monotone
  // non-decreasing snapshot to snapshot.
  ConcurrentMultiQueryExecutor mq(FastMonitorOptions(2));
  AddQuery(&mq, "q0", ScanPlan("a"));
  AddQuery(&mq, "q1", ScanPlan("c"));
  ASSERT_TRUE(mq.RunAll().ok());
  for (size_t i = 0; i < mq.num_queries(); ++i) {
    std::vector<TraceSample> samples = mq.entry(i).trace->Samples();
    ASSERT_GE(samples.size(), 2u);  // seed + terminal at least
    double prev = 0.0;
    for (const TraceSample& s : samples) {
      double p = s.total_estimate > 0 ? s.calls / s.total_estimate : 0.0;
      EXPECT_GE(p, prev - 1e-12);
      prev = p;
    }
  }
}

TEST_F(ConcurrentProgressTest, LivePollingWhileRunning) {
  // Exercises the cross-thread read path (slots + relaxed counters) from a
  // foreign thread while workers execute — the scenario TSan validates.
  ConcurrentMultiQueryExecutor mq(FastMonitorOptions(2));
  AddQuery(&mq, "q0",
           HashJoinPlan(ScanPlan("a"), ScanPlan("b"), "a.k", "b.k"));
  AddQuery(&mq, "q1", ScanPlan("a"));
  Status run_status;
  std::thread runner([&] { run_status = mq.RunAll(); });
  while (!mq.AllDone()) {
    for (size_t i = 0; i < mq.num_queries(); ++i) {
      double p = mq.QueryProgress(i);
      EXPECT_GE(p, 0.0);
      EXPECT_LE(p, 1.0);
    }
    double combined = mq.CombinedProgress();
    EXPECT_GE(combined, 0.0);
    EXPECT_LE(combined, 1.0);
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  runner.join();
  ASSERT_TRUE(run_status.ok());
  EXPECT_DOUBLE_EQ(mq.CombinedProgress(), 1.0);
}

TEST_F(ConcurrentProgressTest, CancelTerminatesLongQuery) {
  // A fat join (every key matches every probe row within its group) that
  // would emit far more rows than the short scan riding alongside it.
  ASSERT_TRUE(
      catalog_.Register(MakeSkewed("big1", 8000, 0.0, 10, 1, 11)).ok());
  ASSERT_TRUE(
      catalog_.Register(MakeSkewed("big2", 8000, 0.0, 10, 2, 12)).ok());
  ASSERT_TRUE(catalog_.Analyze("big1").ok());
  ASSERT_TRUE(catalog_.Analyze("big2").ok());

  ConcurrentMultiQueryExecutor mq(FastMonitorOptions(2));
  AddQuery(&mq, "runaway",
           HashJoinPlan(ScanPlan("big1"), ScanPlan("big2"), "big1.k",
                        "big2.k"));
  AddQuery(&mq, "short", ScanPlan("c"));

  Status run_status;
  std::thread runner([&] { run_status = mq.RunAll(); });
  // Wait until the runaway join is demonstrably mid-flight, then cancel.
  while (mq.entry(0).rows_emitted.load(std::memory_order_relaxed) < 1000 &&
         !mq.entry(0).IsTerminal()) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  mq.Cancel(0);
  runner.join();
  ASSERT_TRUE(run_status.ok());
  EXPECT_TRUE(mq.AllDone());
  // ~6.4M rows if run to completion; cancellation must cut that short.
  EXPECT_LT(mq.entry(0).rows_emitted.load(), 6000000u);
  EXPECT_TRUE(mq.entry(0).ctx->IsCancelled());
  // The short query is unaffected.
  EXPECT_EQ(mq.entry(1).rows_emitted.load(), 500u);
  // A cancelled query reads as done: progress 1.0, terminal snapshot.
  EXPECT_DOUBLE_EQ(mq.QueryProgress(0), 1.0);
  EXPECT_DOUBLE_EQ(mq.CombinedProgress(), 1.0);
}

TEST_F(ConcurrentProgressTest, CancelBeforeRunAllDrainsImmediately) {
  ConcurrentMultiQueryExecutor mq(FastMonitorOptions(2));
  AddQuery(&mq, "q0",
           HashJoinPlan(ScanPlan("a"), ScanPlan("b"), "a.k", "b.k"));
  mq.Cancel(0);
  ASSERT_TRUE(mq.RunAll().ok());
  EXPECT_EQ(mq.entry(0).rows_emitted.load(), 0u);
  EXPECT_DOUBLE_EQ(mq.QueryProgress(0), 1.0);
}

TEST_F(ConcurrentProgressTest, AddRejectsNullInputs) {
  ConcurrentMultiQueryExecutor mq;
  EXPECT_EQ(mq.Add("bad", nullptr, nullptr).code(),
            Status::Code::kInvalidArgument);
}

}  // namespace
}  // namespace qpi
