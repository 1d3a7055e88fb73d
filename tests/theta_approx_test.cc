// Inequality-predicate joins with order-statistics estimation (the paper's
// "other kinds of join predicates" extension) and the fixed-memory
// bucketized histograms of the conclusions' accuracy/memory trade-off.

#include <gtest/gtest.h>

#include <cmath>

#include "datagen/table_builder.h"
#include "estimators/approx_join.h"
#include "estimators/theta_join.h"
#include "exec/compiler.h"
#include "exec/executor.h"
#include "exec/nl_join.h"
#include "stats/bucket_histogram.h"
#include "storage/catalog.h"

namespace qpi {
namespace {

// ---- BucketHistogram --------------------------------------------------------

TEST(BucketHistogram, CountUpperBoundsTrueCount) {
  BucketHistogram h(64);
  for (uint64_t k = 0; k < 1000; ++k) h.Increment(k);
  h.Increment(42, 5);
  EXPECT_GE(h.Count(42), 6u);
  EXPECT_EQ(h.total_count(), 1005u);
}

TEST(BucketHistogram, MemoryIsFixed) {
  BucketHistogram h(1024);
  size_t before = h.MemoryBytes();
  for (uint64_t k = 0; k < 100000; ++k) h.Increment(k);
  EXPECT_EQ(h.MemoryBytes(), before);
  EXPECT_EQ(h.MemoryBytes(), 1024 * sizeof(uint64_t));
}

TEST(BucketHistogram, RoundsBucketsUpToPowerOfTwo) {
  BucketHistogram h(100);
  EXPECT_EQ(h.num_buckets(), 128u);
}

TEST(BucketizedJoin, MoreBucketsMeansLessBias) {
  // Exact join size vs bucketized estimates at increasing resolutions.
  ZipfGenerator zb(1.0, 2000, 1);
  ZipfGenerator zp(1.0, 2000, 2);
  Pcg32 rng(7);
  std::vector<uint64_t> build;
  std::vector<uint64_t> probe;
  for (int i = 0; i < 20000; ++i) {
    build.push_back(static_cast<uint64_t>(zb.Next(&rng)));
    probe.push_back(static_cast<uint64_t>(zp.Next(&rng)));
  }
  std::map<uint64_t, uint64_t> counts;
  for (uint64_t k : build) ++counts[k];
  double exact = 0;
  for (uint64_t k : probe) {
    auto it = counts.find(k);
    if (it != counts.end()) exact += static_cast<double>(it->second);
  }

  double prev_bias = 1e300;
  for (size_t buckets : {64u, 1024u, 16384u}) {
    BucketizedJoinEstimator est([] { return 20000.0; }, buckets);
    for (uint64_t k : build) est.ObserveBuildKey(k);
    est.BuildComplete();
    for (uint64_t k : probe) est.ObserveProbeKey(k);
    est.ProbeComplete();
    double bias = est.Estimate() - exact;
    EXPECT_GE(bias, -1e-6) << buckets;  // collisions only inflate
    EXPECT_LE(bias, prev_bias + 1e-6) << buckets;
    prev_bias = bias;
    // Bias correction lands closer than the raw estimate.
    EXPECT_LE(std::abs(est.BiasCorrectedEstimate() - exact),
              std::abs(est.Estimate() - exact) + 1e-6)
        << buckets;
  }
}

// ---- OnceInequalityJoinEstimator ---------------------------------------------

TEST(ThetaEstimator, MatchCountsAgainstBruteForce) {
  OnceInequalityJoinEstimator est(CompareOp::kGt, [] { return 1.0; });
  std::vector<int64_t> inner = {5, 1, 3, 3, 9, 7};
  for (int64_t v : inner) est.ObserveInnerKey(Value(v));
  est.InnerComplete();
  for (int64_t probe : {0, 1, 3, 4, 9, 10}) {
    uint64_t expected = 0;
    for (int64_t v : inner) {
      if (probe > v) ++expected;
    }
    EXPECT_EQ(est.MatchCount(Value(int64_t{probe})), expected) << probe;
  }
}

class ThetaOpSweep : public ::testing::TestWithParam<CompareOp> {};

TEST_P(ThetaOpSweep, ExactAtOuterCompletion) {
  CompareOp op = GetParam();
  OnceInequalityJoinEstimator est(op, [] { return 500.0; });
  Pcg32 rng(11);
  std::vector<int64_t> inner;
  for (int i = 0; i < 400; ++i) {
    inner.push_back(static_cast<int64_t>(rng.NextBounded(50)));
    est.ObserveInnerKey(Value(inner.back()));
  }
  est.InnerComplete();
  double exact = 0;
  for (int i = 0; i < 500; ++i) {
    int64_t o = static_cast<int64_t>(rng.NextBounded(50));
    est.ObserveOuterKey(Value(o));
    for (int64_t v : inner) {
      int cmp = Value(o).Compare(Value(v));
      bool match = false;
      switch (op) {
        case CompareOp::kEq:
          match = cmp == 0;
          break;
        case CompareOp::kNe:
          match = cmp != 0;
          break;
        case CompareOp::kLt:
          match = cmp < 0;
          break;
        case CompareOp::kLe:
          match = cmp <= 0;
          break;
        case CompareOp::kGt:
          match = cmp > 0;
          break;
        case CompareOp::kGe:
          match = cmp >= 0;
          break;
      }
      if (match) exact += 1;
    }
  }
  est.OuterComplete();
  EXPECT_TRUE(est.Exact());
  EXPECT_DOUBLE_EQ(est.Estimate(), exact);
}

INSTANTIATE_TEST_SUITE_P(Ops, ThetaOpSweep,
                         ::testing::Values(CompareOp::kEq, CompareOp::kNe,
                                           CompareOp::kLt, CompareOp::kLe,
                                           CompareOp::kGt, CompareOp::kGe));

// ---- through the engine -----------------------------------------------------

struct Fixture {
  Catalog catalog;
  ExecContext ctx;
  Fixture() { ctx.catalog = &catalog; }
  void Add(TablePtr t) {
    ASSERT_TRUE(catalog.Register(t).ok());
    ASSERT_TRUE(catalog.Analyze(t->name()).ok());
  }
};

TablePtr UniformTable(const std::string& name, uint64_t rows, int64_t max,
                      uint64_t seed) {
  TableBuilder b(name);
  b.AddColumn("k", std::make_unique<UniformIntSpec>(1, max))
      .AddColumn("id", std::make_unique<SequentialSpec>(0));
  return b.Build(rows, seed);
}

TEST(ThetaJoin, BandJoinThroughEngineMatchesOracle) {
  Fixture fx;
  TablePtr outer = UniformTable("o", 300, 100, 1);
  TablePtr inner = UniformTable("i", 300, 100, 2);
  fx.Add(outer);
  fx.Add(inner);

  uint64_t expected = 0;
  for (uint64_t a = 0; a < 300; ++a) {
    for (uint64_t b = 0; b < 300; ++b) {
      if (outer->RowAt(a)[0].AsInt64() > inner->RowAt(b)[0].AsInt64()) {
        ++expected;
      }
    }
  }

  PlanNodePtr plan = ThetaNestedLoopsJoinPlan(ScanPlan("o"), ScanPlan("i"),
                                              "o.k", "i.k", CompareOp::kGt);
  OperatorPtr root;
  ASSERT_TRUE(CompilePlan(plan.get(), &fx.ctx, &root).ok());
  std::vector<Row> rows;
  ASSERT_TRUE(QueryExecutor::Run(root.get(), &fx.ctx, &rows, nullptr).ok());
  EXPECT_EQ(rows.size(), expected);

  auto* join = dynamic_cast<NestedLoopsJoinOp*>(root.get());
  ASSERT_NE(join, nullptr);
  ASSERT_NE(join->theta_estimator(), nullptr);
  EXPECT_TRUE(join->theta_estimator()->Exact());
  EXPECT_DOUBLE_EQ(join->theta_estimator()->Estimate(),
                   static_cast<double>(expected));
}

TEST(ThetaJoin, EstimateConvergesDuringOuterScan) {
  Fixture fx;
  fx.Add(UniformTable("o", 20000, 1000, 3));
  fx.Add(UniformTable("i", 5000, 1000, 4));
  PlanNodePtr plan = ThetaNestedLoopsJoinPlan(ScanPlan("o"), ScanPlan("i"),
                                              "o.k", "i.k", CompareOp::kLe);
  OperatorPtr root;
  ASSERT_TRUE(CompilePlan(plan.get(), &fx.ctx, &root).ok());
  auto* join = dynamic_cast<NestedLoopsJoinOp*>(root.get());

  fx.ctx.batch_size = 1;  // sampled at an exact outer index
  ASSERT_TRUE(root->Open(&fx.ctx).ok());
  RowBatch batch(fx.ctx.batch_size);
  uint64_t emitted = 0;
  double early = -1;
  double early_ci = 0;
  while (root->NextBatch(&batch)) {
    emitted += batch.size();
    if (early < 0 && join->theta_estimator()->outer_tuples_seen() >= 2000) {
      early = join->theta_estimator()->Estimate();
      early_ci = join->theta_estimator()->ConfidenceHalfWidth();
    }
  }
  root->Close();
  ASSERT_GT(early, 0);
  EXPECT_NEAR(early, static_cast<double>(emitted), early_ci + 1e-9);
}

TEST(ThetaJoin, EquijoinStaysOnDne) {
  Fixture fx;
  fx.Add(UniformTable("o", 100, 20, 5));
  fx.Add(UniformTable("i", 100, 20, 6));
  PlanNodePtr plan =
      NestedLoopsJoinPlan(ScanPlan("o"), ScanPlan("i"), "o.k", "i.k");
  OperatorPtr root;
  ASSERT_TRUE(CompilePlan(plan.get(), &fx.ctx, &root).ok());
  auto* join = dynamic_cast<NestedLoopsJoinOp*>(root.get());
  EXPECT_EQ(join->theta_estimator(), nullptr);
}

TEST(ThetaJoin, NoneModeReportsOptimizerEstimateMidRun) {
  // EstimationMode::kNone is "optimizer only": a running NL join reports
  // the optimizer's number, like every other join, not its dne estimate.
  Fixture fx;
  fx.Add(UniformTable("o", 100, 20, 5));
  fx.Add(UniformTable("i", 100, 20, 6));
  fx.ctx.mode = EstimationMode::kNone;
  fx.ctx.batch_size = 1;
  PlanNodePtr plan =
      NestedLoopsJoinPlan(ScanPlan("o"), ScanPlan("i"), "o.k", "i.k");
  OperatorPtr root;
  ASSERT_TRUE(CompilePlan(plan.get(), &fx.ctx, &root).ok());
  auto* join = dynamic_cast<NestedLoopsJoinOp*>(root.get());
  ASSERT_NE(join, nullptr);
  ASSERT_TRUE(root->Open(&fx.ctx).ok());
  RowBatch batch(fx.ctx.batch_size);
  ASSERT_TRUE(root->NextBatch(&batch));
  ASSERT_EQ(join->state(), OpState::kRunning);
  EXPECT_EQ(join->CurrentCardinalityEstimate(), join->optimizer_estimate());
  root->Close();
}

}  // namespace
}  // namespace qpi
