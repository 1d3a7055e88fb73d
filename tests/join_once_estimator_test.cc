// ONCE binary join estimator (Sections 4.1.1-4.1.2): exactness at the end
// of the probe partitioning pass, unbiased convergence on random prefixes,
// CLT confidence-interval coverage, and freeze semantics.

#include "estimators/join_once.h"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <vector>

#include "common/rng.h"
#include "common/zipf.h"
#include "datagen/table_builder.h"
#include "exec/compiler.h"
#include "exec/executor.h"
#include "exec/grace_hash_join.h"
#include "exec/merge_join.h"
#include "storage/catalog.h"

namespace qpi {
namespace {

/// Generate two key streams and the exact join size between them.
struct JoinCase {
  std::vector<uint64_t> build;
  std::vector<uint64_t> probe;
  double exact_join_size = 0;
};

JoinCase MakeCase(double z, uint32_t domain, size_t build_n, size_t probe_n,
                  uint64_t seed) {
  JoinCase jc;
  ZipfGenerator zb(z, domain, 1);
  ZipfGenerator zp(z, domain, 2);
  Pcg32 rng(seed);
  std::map<uint64_t, uint64_t> nb;
  std::map<uint64_t, uint64_t> np;
  for (size_t i = 0; i < build_n; ++i) {
    uint64_t v = static_cast<uint64_t>(zb.Next(&rng));
    jc.build.push_back(v);
    ++nb[v];
  }
  for (size_t i = 0; i < probe_n; ++i) {
    uint64_t v = static_cast<uint64_t>(zp.Next(&rng));
    jc.probe.push_back(v);
    ++np[v];
  }
  for (const auto& [v, c] : nb) {
    auto it = np.find(v);
    if (it != np.end()) {
      jc.exact_join_size += static_cast<double>(c * it->second);
    }
  }
  return jc;
}

TEST(OnceBinary, ExactAtEndOfProbePass) {
  JoinCase jc = MakeCase(1.0, 100, 2000, 3000, 7);
  OnceBinaryJoinEstimator est([&] { return 3000.0; });
  for (uint64_t k : jc.build) est.ObserveBuildKey(k);
  est.BuildComplete();
  for (uint64_t k : jc.probe) est.ObserveProbeKey(k);
  est.ProbeComplete();
  EXPECT_TRUE(est.Exact());
  EXPECT_DOUBLE_EQ(est.Estimate(), jc.exact_join_size);
  EXPECT_DOUBLE_EQ(est.ConfidenceHalfWidth(), 0.0);
}

TEST(OnceBinary, EmptyProbeEstimatesZero) {
  OnceBinaryJoinEstimator est([] { return 0.0; });
  est.ObserveBuildKey(1);
  est.BuildComplete();
  est.ProbeComplete();
  EXPECT_DOUBLE_EQ(est.Estimate(), 0.0);
}

class OnceBinarySkewSweep : public ::testing::TestWithParam<double> {};

TEST_P(OnceBinarySkewSweep, TenPercentPrefixIsClose) {
  double z = GetParam();
  JoinCase jc = MakeCase(z, 500, 20000, 20000, 13);
  OnceBinaryJoinEstimator est([&] { return 20000.0; });
  for (uint64_t k : jc.build) est.ObserveBuildKey(k);
  est.BuildComplete();
  for (size_t i = 0; i < 2000; ++i) est.ObserveProbeKey(jc.probe[i]);
  // The probe stream is i.i.d., so 10% should land within the 99.99% CI.
  double err = std::abs(est.Estimate() - jc.exact_join_size);
  EXPECT_LE(err, est.ConfidenceHalfWidth() + 1e-9)
      << "z=" << z << " estimate=" << est.Estimate()
      << " exact=" << jc.exact_join_size;
}

INSTANTIATE_TEST_SUITE_P(Skews, OnceBinarySkewSweep,
                         ::testing::Values(0.0, 0.5, 1.0, 2.0));

TEST(OnceBinary, ConfidenceIntervalCoverageAcrossSeeds) {
  // Property: across many independent probe-prefix draws, the 95% CI covers
  // the truth for at least ~90% of runs (binomial slack on 60 trials).
  int covered = 0;
  const int kTrials = 60;
  for (int trial = 0; trial < kTrials; ++trial) {
    JoinCase jc =
        MakeCase(1.0, 200, 5000, 5000, 1000 + static_cast<uint64_t>(trial));
    OnceBinaryJoinEstimator est([&] { return 5000.0; });
    for (uint64_t k : jc.build) est.ObserveBuildKey(k);
    est.BuildComplete();
    for (size_t i = 0; i < 500; ++i) est.ObserveProbeKey(jc.probe[i]);
    double err = std::abs(est.Estimate() - jc.exact_join_size);
    if (err <= est.ConfidenceHalfWidth(0.95)) ++covered;
  }
  EXPECT_GE(covered, kTrials * 9 / 10);
}

TEST(OnceBinary, ConfidenceShrinksWithMoreProbeTuples) {
  JoinCase jc = MakeCase(1.0, 200, 10000, 10000, 3);
  OnceBinaryJoinEstimator est([&] { return 10000.0; });
  for (uint64_t k : jc.build) est.ObserveBuildKey(k);
  est.BuildComplete();
  for (size_t i = 0; i < 100; ++i) est.ObserveProbeKey(jc.probe[i]);
  double early = est.ConfidenceHalfWidth();
  for (size_t i = 100; i < 6400; ++i) est.ObserveProbeKey(jc.probe[i]);
  double late = est.ConfidenceHalfWidth();
  EXPECT_LT(late, early / 4);  // ~1/sqrt(64) = 1/8, allow slack
}

TEST(OnceBinary, FreezeStopsRefinement) {
  JoinCase jc = MakeCase(1.0, 50, 1000, 1000, 5);
  OnceBinaryJoinEstimator est([&] { return 1000.0; });
  for (uint64_t k : jc.build) est.ObserveBuildKey(k);
  est.BuildComplete();
  for (size_t i = 0; i < 200; ++i) est.ObserveProbeKey(jc.probe[i]);
  double frozen_at = est.Estimate();
  est.Freeze();
  for (size_t i = 200; i < 1000; ++i) est.ObserveProbeKey(jc.probe[i]);
  EXPECT_DOUBLE_EQ(est.Estimate(), frozen_at);
  est.ProbeComplete();
  EXPECT_FALSE(est.Exact());  // frozen runs are approximate
}

// ---- through the engine -----------------------------------------------------

struct EngineFixture {
  Catalog catalog;
  ExecContext ctx;
  EngineFixture() { ctx.catalog = &catalog; }
};

TablePtr SkewedTable(const std::string& name, uint64_t rows, double z,
                     uint32_t domain, uint64_t peak, uint64_t seed) {
  TableBuilder b(name);
  b.AddColumn("k", std::make_unique<ZipfSpec>(z, domain, peak))
      .AddColumn("id", std::make_unique<SequentialSpec>(0));
  return b.Build(rows, seed);
}

TEST(OnceBinaryEngine, MergeJoinEstimateExactBeforeMergePhase) {
  EngineFixture fx;
  ASSERT_TRUE(fx.catalog.Register(SkewedTable("l", 3000, 1.0, 60, 1, 1)).ok());
  ASSERT_TRUE(fx.catalog.Register(SkewedTable("r", 3000, 1.0, 60, 2, 2)).ok());
  ASSERT_TRUE(fx.catalog.Analyze("l").ok());
  ASSERT_TRUE(fx.catalog.Analyze("r").ok());

  PlanNodePtr plan = MergeJoinPlan(ScanPlan("l"), ScanPlan("r"), "l.k", "r.k");
  OperatorPtr root;
  ASSERT_TRUE(CompilePlan(plan.get(), &fx.ctx, &root).ok());
  auto* join = dynamic_cast<MergeJoinOp*>(root.get());
  ASSERT_NE(join, nullptr);
  ASSERT_NE(join->once_estimator(), nullptr);

  fx.ctx.batch_size = 1;
  ASSERT_TRUE(root->Open(&fx.ctx).ok());
  // Pull exactly one output row: intake phases (and thus estimation) have
  // completed, but the merge has barely begun.
  RowBatch batch(fx.ctx.batch_size);
  ASSERT_TRUE(root->NextBatch(&batch));
  EXPECT_TRUE(join->once_estimator()->Exact());
  double claimed = join->once_estimator()->Estimate();
  uint64_t total = batch.size();
  while (root->NextBatch(&batch)) total += batch.size();
  root->Close();
  EXPECT_DOUBLE_EQ(claimed, static_cast<double>(total));
}

TEST(OnceBinaryEngine, SampledScanFreezesEstimateNearTruth) {
  EngineFixture fx;
  ASSERT_TRUE(
      fx.catalog.Register(SkewedTable("l", 30000, 1.0, 100, 1, 3)).ok());
  ASSERT_TRUE(
      fx.catalog.Register(SkewedTable("r", 30000, 1.0, 100, 2, 4)).ok());
  ASSERT_TRUE(fx.catalog.Analyze("l").ok());
  ASSERT_TRUE(fx.catalog.Analyze("r").ok());
  fx.ctx.sample_fraction = 0.1;

  PlanNodePtr plan = HashJoinPlan(ScanPlan("l"), ScanPlan("r"), "l.k", "r.k");
  OperatorPtr root;
  ASSERT_TRUE(CompilePlan(plan.get(), &fx.ctx, &root).ok());
  auto* join = dynamic_cast<GraceHashJoinOp*>(root.get());
  ASSERT_NE(join, nullptr);

  uint64_t rows = 0;
  ASSERT_TRUE(QueryExecutor::Run(root.get(), &fx.ctx, nullptr, &rows).ok());
  const auto* est = join->once_estimator();
  ASSERT_NE(est, nullptr);
  EXPECT_TRUE(est->frozen());
  EXPECT_FALSE(est->Exact());
  // ~10% random sample: should still land within ~3x of the 99.99% CI.
  EXPECT_NEAR(est->Estimate(), static_cast<double>(rows),
              3 * est->ConfidenceHalfWidth() + 0.05 * static_cast<double>(rows));
  // Only the sample prefix was observed.
  EXPECT_LE(est->probe_tuples_seen(), 30000u / 8);
}

// A running sort-merge join whose estimate froze on a 10% sample reports
// its ONCE interval to the query CI, as the hash join does.
TEST(OnceBinaryEngine, SampledMergeJoinReportsConfidenceInterval) {
  EngineFixture fx;
  ASSERT_TRUE(
      fx.catalog.Register(SkewedTable("l", 30000, 1.0, 100, 1, 3)).ok());
  ASSERT_TRUE(
      fx.catalog.Register(SkewedTable("r", 30000, 1.0, 100, 2, 4)).ok());
  ASSERT_TRUE(fx.catalog.Analyze("l").ok());
  ASSERT_TRUE(fx.catalog.Analyze("r").ok());
  fx.ctx.sample_fraction = 0.1;

  PlanNodePtr plan = MergeJoinPlan(ScanPlan("l"), ScanPlan("r"), "l.k", "r.k");
  OperatorPtr root;
  ASSERT_TRUE(CompilePlan(plan.get(), &fx.ctx, &root).ok());
  auto* join = dynamic_cast<MergeJoinOp*>(root.get());
  ASSERT_NE(join, nullptr);
  const auto* est = join->once_estimator();
  ASSERT_NE(est, nullptr);

  ASSERT_TRUE(root->Open(&fx.ctx).ok());
  RowBatch batch(fx.ctx.batch_size);
  ASSERT_TRUE(root->NextBatch(&batch));
  EXPECT_EQ(join->state(), OpState::kRunning);
  EXPECT_TRUE(est->frozen());
  EXPECT_FALSE(join->CardinalityExact());
  const double half_width = est->ConfidenceHalfWidth(0.95);
  EXPECT_GT(half_width, 0.0);
  EXPECT_EQ(join->CurrentCardinalityHalfWidth(0.95), half_width);
  root->Close();
}

}  // namespace
}  // namespace qpi
