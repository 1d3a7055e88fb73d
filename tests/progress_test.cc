// gnm accounting, pipeline decomposition, baseline estimators, and the
// end-to-end progress monitor across estimation modes.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "datagen/table_builder.h"
#include "estimators/baselines.h"
#include "exec/compiler.h"
#include "exec/executor.h"
#include "progress/gnm.h"
#include "progress/monitor.h"
#include "progress/pipelines.h"

namespace qpi {
namespace {

TEST(DneEstimator, ExtrapolatesLinearly) {
  DneEstimator dne(500.0);
  EXPECT_DOUBLE_EQ(dne.Estimate(1000.0), 500.0);  // optimizer before start
  dne.Update(100, 40);
  EXPECT_DOUBLE_EQ(dne.Estimate(1000.0), 400.0);
  dne.Update(1000, 430);
  EXPECT_DOUBLE_EQ(dne.Estimate(1000.0), 430.0);
}

TEST(ByteEstimator, BlendsOptimizerAndObservation) {
  ByteEstimator byte(1000.0);
  EXPECT_DOUBLE_EQ(byte.Estimate(1000.0), 1000.0);
  byte.Update(100, 10);  // observed rate → 100 over the full input
  // f = 0.1: 0.1 * 100 + 0.9 * 1000 = 910 — pulled hard toward optimizer.
  EXPECT_DOUBLE_EQ(byte.Estimate(1000.0), 910.0);
  byte.Update(1000, 100);
  EXPECT_DOUBLE_EQ(byte.Estimate(1000.0), 100.0);  // converged at the end
}

TEST(ByteEstimator, ConvergesSlowerThanDneWhenOptimizerWrong) {
  DneEstimator dne(1000.0);
  ByteEstimator byte(1000.0);
  dne.Update(100, 10);
  byte.Update(100, 10);
  double truth = 100.0;
  EXPECT_LT(std::abs(dne.Estimate(1000.0) - truth),
            std::abs(byte.Estimate(1000.0) - truth));
}

struct EngineFixture {
  Catalog catalog;
  ExecContext ctx;
  EngineFixture() { ctx.catalog = &catalog; }
  void Add(TablePtr t) {
    ASSERT_TRUE(catalog.Register(t).ok());
    ASSERT_TRUE(catalog.Analyze(t->name()).ok());
  }
};

TablePtr SkewedTable(const std::string& name, uint64_t rows, double z,
                     uint32_t domain, uint64_t peak, uint64_t seed) {
  TableBuilder b(name);
  b.AddColumn("k", std::make_unique<ZipfSpec>(z, domain, peak))
      .AddColumn("v", std::make_unique<UniformIntSpec>(1, 100));
  return b.Build(rows, seed);
}

PlanNodePtr TwoJoinAggPlan() {
  return HashAggregatePlan(
      HashJoinPlan(ScanPlan("a"),
                   HashJoinPlan(ScanPlan("b"), ScanPlan("c"), "b.k", "c.k"),
                   "a.k", "c.k"),
      {"c.k"}, {AggregateSpec{AggregateSpec::Kind::kCountStar, ""}});
}

TEST(Pipelines, HashJoinChainDecomposition) {
  EngineFixture fx;
  fx.Add(SkewedTable("a", 100, 0.0, 10, 1, 1));
  fx.Add(SkewedTable("b", 100, 0.0, 10, 2, 2));
  fx.Add(SkewedTable("c", 100, 0.0, 10, 3, 3));
  PlanNodePtr plan = TwoJoinAggPlan();
  OperatorPtr root;
  ASSERT_TRUE(CompilePlan(plan.get(), &fx.ctx, &root).ok());

  std::vector<Pipeline> pipelines = PipelineDecomposer::Decompose(root.get());
  // Expected: p0 = {agg}, p1 = {join_a, join_b, scan c} (probe chain),
  // p2 = {scan a}, p3 = {scan b}.
  ASSERT_EQ(pipelines.size(), 4u);
  EXPECT_EQ(pipelines[0].ops.size(), 1u);  // aggregate alone
  // The probe-chain pipeline has both joins and the driver scan.
  bool found_chain = false;
  for (const Pipeline& p : pipelines) {
    if (p.ops.size() == 3) found_chain = true;
  }
  EXPECT_TRUE(found_chain);
}

TEST(Pipelines, MergeJoinSplitsBothIntakes) {
  EngineFixture fx;
  fx.Add(SkewedTable("a", 50, 0.0, 10, 1, 1));
  fx.Add(SkewedTable("b", 50, 0.0, 10, 2, 2));
  PlanNodePtr plan = MergeJoinPlan(ScanPlan("a"), ScanPlan("b"), "a.k", "b.k");
  OperatorPtr root;
  ASSERT_TRUE(CompilePlan(plan.get(), &fx.ctx, &root).ok());
  std::vector<Pipeline> pipelines = PipelineDecomposer::Decompose(root.get());
  ASSERT_EQ(pipelines.size(), 3u);
  EXPECT_EQ(pipelines[0].ops.size(), 1u);
  std::string rendered = PipelinesToString(pipelines);
  EXPECT_NE(rendered.find("MergeJoin"), std::string::npos);
}

TEST(Gnm, CurrentCallsSumsEmittedTuples) {
  EngineFixture fx;
  fx.Add(SkewedTable("a", 200, 0.0, 10, 1, 1));
  fx.Add(SkewedTable("b", 200, 0.0, 10, 2, 2));
  PlanNodePtr plan = HashJoinPlan(ScanPlan("a"), ScanPlan("b"), "a.k", "b.k");
  OperatorPtr root;
  ASSERT_TRUE(CompilePlan(plan.get(), &fx.ctx, &root).ok());
  GnmAccountant acc(root.get());
  EXPECT_EQ(acc.CurrentCalls(), 0u);
  uint64_t rows = 0;
  ASSERT_TRUE(QueryExecutor::Run(root.get(), &fx.ctx, nullptr, &rows).ok());
  EXPECT_EQ(acc.CurrentCalls(), 200 + 200 + rows);
}

TEST(Gnm, FinalEstimateEqualsTruth) {
  EngineFixture fx;
  fx.Add(SkewedTable("a", 300, 1.0, 20, 1, 1));
  fx.Add(SkewedTable("b", 300, 1.0, 20, 2, 2));
  PlanNodePtr plan = HashJoinPlan(ScanPlan("a"), ScanPlan("b"), "a.k", "b.k");
  OperatorPtr root;
  ASSERT_TRUE(CompilePlan(plan.get(), &fx.ctx, &root).ok());
  ASSERT_TRUE(QueryExecutor::Run(root.get(), &fx.ctx, nullptr, nullptr).ok());
  GnmAccountant acc(root.get());
  EXPECT_DOUBLE_EQ(acc.TotalEstimate(),
                   static_cast<double>(acc.CurrentCalls()));
  GnmSnapshot snap = acc.Snapshot(0);
  EXPECT_DOUBLE_EQ(snap.EstimatedProgress(), 1.0);
}

TEST(Gnm, CiCombinationPinsBothFormulasOnTwoJoinPlan) {
  // Regression: TotalHalfWidth used to add per-operator CI half-widths,
  // overstating the query-level interval — independent CLT estimators
  // combine by root-sum-square (variances add, not half-widths). The
  // conservative sum stays available behind CiCombine::kConservativeSum.
  // This pins both formulas against per-operator widths mid-query on a
  // two-join plan, where at least two operators carry live intervals.
  EngineFixture fx;
  fx.Add(SkewedTable("a", 2000, 1.0, 50, 1, 1));
  fx.Add(SkewedTable("b", 2000, 1.0, 50, 2, 2));
  fx.Add(SkewedTable("c", 2000, 1.0, 50, 3, 3));
  fx.ctx.mode = EstimationMode::kOnce;
  PlanNodePtr plan = TwoJoinAggPlan();
  OperatorPtr root;
  ASSERT_TRUE(CompilePlan(plan.get(), &fx.ctx, &root).ok());
  GnmAccountant acc(root.get());
  double conf = fx.ctx.confidence;

  // The aggregate drains its whole input inside one NextBatch, so the
  // joins are only ever mid-flight *inside* the tick path — probe from a
  // TickObserver, exactly where the service publisher samples.
  struct CiProbe : TickObserver {
    GnmAccountant* acc;
    double conf;
    bool saw_two_live_intervals = false;
    void OnTick(uint64_t) override {
      double sum = 0;
      double sum_sq = 0;
      int positive = 0;
      for (const Operator* op : acc->operators()) {
        if (op->state() != OpState::kRunning) continue;
        double w = op->CurrentCardinalityHalfWidth(conf);
        sum += w;
        sum_sq += w * w;
        if (w > 0) ++positive;
      }
      // Pin both combination rules against the per-operator widths.
      EXPECT_DOUBLE_EQ(acc->TotalHalfWidth(conf, CiCombine::kConservativeSum),
                       sum);
      EXPECT_DOUBLE_EQ(acc->TotalHalfWidth(conf, CiCombine::kRootSumSquare),
                       std::sqrt(sum_sq));
      // Root-sum-square is the default, in TotalHalfWidth and snapshots.
      EXPECT_DOUBLE_EQ(acc->TotalHalfWidth(conf), std::sqrt(sum_sq));
      EXPECT_DOUBLE_EQ(acc->SnapshotWithConfidence(0, conf).ci_half_width,
                       std::sqrt(sum_sq));
      EXPECT_DOUBLE_EQ(
          acc->SnapshotWithConfidence(0, conf, CiCombine::kConservativeSum)
              .ci_half_width,
          sum);
      if (positive >= 2) {
        saw_two_live_intervals = true;
        // With two live intervals the formulas genuinely differ, and RSS
        // is the tighter while still covering the widest single one.
        EXPECT_LT(std::sqrt(sum_sq), sum);
        for (const Operator* op : acc->operators()) {
          if (op->state() == OpState::kRunning) {
            EXPECT_GE(std::sqrt(sum_sq),
                      op->CurrentCardinalityHalfWidth(conf));
          }
        }
      }
    }
  } probe;
  probe.acc = &acc;
  probe.conf = conf;
  fx.ctx.AddTickObserver(&probe);
  ASSERT_TRUE(QueryExecutor::Run(root.get(), &fx.ctx, nullptr, nullptr).ok());
  fx.ctx.RemoveTickObserver(&probe);
  EXPECT_TRUE(probe.saw_two_live_intervals)
      << "the two-join plan never had two concurrent live intervals; the "
         "combination rules were not actually distinguished";
  // Finished query: no running operators, zero width under both rules.
  EXPECT_DOUBLE_EQ(acc.TotalHalfWidth(conf, CiCombine::kRootSumSquare), 0.0);
  EXPECT_DOUBLE_EQ(acc.TotalHalfWidth(conf, CiCombine::kConservativeSum),
                   0.0);
}

TEST(Gnm, FutureOperatorRefinedByInputRatio) {
  EngineFixture fx;
  fx.Add(SkewedTable("a", 100, 0.0, 10, 1, 1));
  PlanNodePtr plan = HashAggregatePlan(
      ScanPlan("a"), {"k"},
      {AggregateSpec{AggregateSpec::Kind::kCountStar, ""}});
  OperatorPtr root;
  ASSERT_TRUE(CompilePlan(plan.get(), &fx.ctx, &root).ok());
  GnmAccountant acc(root.get());
  // Nothing started: refined estimate equals the optimizer estimate.
  EXPECT_DOUBLE_EQ(acc.RefinedEstimate(root.get()),
                   root->optimizer_estimate());
}

class MonitorModeSweep : public ::testing::TestWithParam<EstimationMode> {};

TEST_P(MonitorModeSweep, SnapshotsAreSaneAndConverge) {
  EngineFixture fx;
  fx.Add(SkewedTable("a", 2000, 1.0, 50, 1, 1));
  fx.Add(SkewedTable("b", 2000, 1.0, 50, 2, 2));
  fx.Add(SkewedTable("c", 2000, 1.0, 50, 3, 3));
  fx.ctx.mode = GetParam();

  PlanNodePtr plan = TwoJoinAggPlan();
  OperatorPtr root;
  ASSERT_TRUE(CompilePlan(plan.get(), &fx.ctx, &root).ok());
  ProgressMonitor monitor(root.get(), /*tick_interval=*/500);
  monitor.InstallOn(&fx.ctx);
  ASSERT_TRUE(QueryExecutor::Run(root.get(), &fx.ctx, nullptr, nullptr).ok());
  monitor.Finalize();

  const auto& snaps = monitor.snapshots();
  ASSERT_GE(snaps.size(), 3u);
  double prev_calls = -1;
  for (size_t i = 0; i < snaps.size(); ++i) {
    EXPECT_GE(snaps[i].current_calls, prev_calls);  // C(Q) monotone
    prev_calls = snaps[i].current_calls;
    EXPECT_GE(snaps[i].EstimatedProgress(), 0.0);
    EXPECT_LE(snaps[i].EstimatedProgress(), 1.0);
    EXPECT_GE(monitor.ActualProgressAt(i), 0.0);
    EXPECT_LE(monitor.ActualProgressAt(i), 1.0);
  }
  // Terminal snapshot: exactly converged.
  EXPECT_DOUBLE_EQ(snaps.back().EstimatedProgress(), 1.0);
  EXPECT_DOUBLE_EQ(monitor.RatioErrorAt(snaps.size() - 1), 1.0);
}

INSTANTIATE_TEST_SUITE_P(Modes, MonitorModeSweep,
                         ::testing::Values(EstimationMode::kNone,
                                           EstimationMode::kOnce,
                                           EstimationMode::kDne,
                                           EstimationMode::kByte));

TEST(Monitor, FinalizeDoesNotDuplicateTerminalSnapshot) {
  // With tick_interval=1, OnTick snapshots on every tick, including the
  // last one — Finalize must then be a no-op instead of appending a
  // duplicate terminal observation.
  EngineFixture fx;
  fx.Add(SkewedTable("a", 100, 0.0, 10, 1, 1));
  PlanNodePtr plan = ScanPlan("a");
  OperatorPtr root;
  ASSERT_TRUE(CompilePlan(plan.get(), &fx.ctx, &root).ok());
  // Tuple-granular ticks: this test counts one snapshot per emitted tuple.
  fx.ctx.batch_size = 1;
  ProgressMonitor monitor(root.get(), /*tick_interval=*/1);
  monitor.InstallOn(&fx.ctx);
  ASSERT_TRUE(QueryExecutor::Run(root.get(), &fx.ctx, nullptr, nullptr).ok());
  monitor.Finalize();

  const auto& snaps = monitor.snapshots();
  ASSERT_EQ(snaps.size(), static_cast<size_t>(monitor.TrueTotalCalls()));
  for (size_t i = 1; i < snaps.size(); ++i) {
    EXPECT_LT(snaps[i - 1].tick, snaps[i].tick);  // ticks strictly increase
  }
  // Finalize is idempotent.
  monitor.Finalize();
  EXPECT_EQ(monitor.snapshots().size(), snaps.size());
}

TEST(Monitor, FinalizeStillAppendsWhenLastTickUnsampled) {
  EngineFixture fx;
  fx.Add(SkewedTable("a", 100, 0.0, 10, 1, 1));
  PlanNodePtr plan = ScanPlan("a");
  OperatorPtr root;
  ASSERT_TRUE(CompilePlan(plan.get(), &fx.ctx, &root).ok());
  // 100 ticks with interval 64: snapshots at tick 64 only; Finalize must
  // add the terminal one at tick 100. Needs tuple-granular ticks.
  fx.ctx.batch_size = 1;
  ProgressMonitor monitor(root.get(), /*tick_interval=*/64);
  monitor.InstallOn(&fx.ctx);
  ASSERT_TRUE(QueryExecutor::Run(root.get(), &fx.ctx, nullptr, nullptr).ok());
  monitor.Finalize();
  ASSERT_EQ(monitor.snapshots().size(), 2u);
  EXPECT_EQ(monitor.snapshots().back().tick, 100u);
  EXPECT_DOUBLE_EQ(monitor.snapshots().back().EstimatedProgress(), 1.0);
}

TEST(Monitor, RatioErrorMatchesPaperOrientation) {
  // Section 5.1: R = T(Q)/T̂(Q) = estimated_progress / actual_progress.
  // On these mismatched-peak Zipf(2) tables the uniformity optimizer badly
  // OVERestimates the join pipeline, so the dne baseline's T̂ is too large
  // for most of the run: estimated progress lags actual progress and R
  // must come out well BELOW 1. The pre-fix inverted ratio reported those
  // same snapshots as R > 1 — i.e., it claimed the monitor was
  // overestimating progress while it was underestimating it.
  EngineFixture fx;
  fx.Add(SkewedTable("a", 4000, 2.0, 100, 1, 1));
  fx.Add(SkewedTable("b", 4000, 2.0, 100, 2, 2));
  fx.Add(SkewedTable("c", 4000, 2.0, 100, 3, 3));
  fx.ctx.mode = EstimationMode::kDne;
  PlanNodePtr plan = TwoJoinAggPlan();
  OperatorPtr root;
  ASSERT_TRUE(CompilePlan(plan.get(), &fx.ctx, &root).ok());
  ProgressMonitor monitor(root.get(), /*tick_interval=*/1000);
  monitor.InstallOn(&fx.ctx);
  ASSERT_TRUE(QueryExecutor::Run(root.get(), &fx.ctx, nullptr, nullptr).ok());
  monitor.Finalize();

  double min_ratio = 1e300;
  for (size_t i = 0; i < monitor.snapshots().size(); ++i) {
    double actual = monitor.ActualProgressAt(i);
    if (actual <= 0) continue;
    double expected =
        monitor.snapshots()[i].EstimatedProgress() / actual;
    EXPECT_DOUBLE_EQ(monitor.RatioErrorAt(i), expected);
    min_ratio = std::min(min_ratio, monitor.RatioErrorAt(i));
  }
  EXPECT_LT(min_ratio, 0.5);
  // Terminal snapshot: exact convergence, R = 1 in either orientation.
  EXPECT_DOUBLE_EQ(monitor.RatioErrorAt(monitor.snapshots().size() - 1), 1.0);
}

TEST(Monitor, OnceBeatsDneMidQueryOnSkewedPipeline) {
  // The Fig-8 claim in miniature: mid-run, ONCE's ratio error must be
  // closer to 1 than dne's on a skew pipeline whose optimizer estimates
  // are wrong.
  auto mean_abs_log_ratio = [](EstimationMode mode) {
    EngineFixture fx;
    fx.Add(SkewedTable("a", 4000, 2.0, 100, 1, 1));
    fx.Add(SkewedTable("b", 4000, 2.0, 100, 2, 2));
    fx.Add(SkewedTable("c", 4000, 2.0, 100, 3, 3));
    fx.ctx.mode = mode;
    PlanNodePtr plan = TwoJoinAggPlan();
    OperatorPtr root;
    EXPECT_TRUE(CompilePlan(plan.get(), &fx.ctx, &root).ok());
    ProgressMonitor monitor(root.get(), 1000);
    monitor.InstallOn(&fx.ctx);
    EXPECT_TRUE(
        QueryExecutor::Run(root.get(), &fx.ctx, nullptr, nullptr).ok());
    monitor.Finalize();
    double total = 0;
    size_t n = 0;
    for (size_t i = 0; i + 1 < monitor.snapshots().size(); ++i) {
      double r = monitor.RatioErrorAt(i);
      if (r > 0) {
        total += std::abs(std::log(r));
        ++n;
      }
    }
    return n == 0 ? 0.0 : total / static_cast<double>(n);
  };
  EXPECT_LT(mean_abs_log_ratio(EstimationMode::kOnce),
            mean_abs_log_ratio(EstimationMode::kDne));
}

}  // namespace
}  // namespace qpi
