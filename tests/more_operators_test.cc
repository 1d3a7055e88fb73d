// Coverage for the extended operator set: index nested-loops joins with
// hash-join-style estimation (Section 4.1.3), cancellation of both
// nested-loops lookups, and sort-merge join pipelines sharing a push-down
// estimator (Section 4.1.4.3).

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "datagen/table_builder.h"
#include "exec/compiler.h"
#include "exec/executor.h"
#include "exec/merge_join.h"
#include "exec/nl_join.h"
#include "storage/catalog.h"

namespace qpi {
namespace {

struct Fixture {
  Catalog catalog;
  ExecContext ctx;
  Fixture() { ctx.catalog = &catalog; }
  void Add(TablePtr t) {
    ASSERT_TRUE(catalog.Register(t).ok());
    ASSERT_TRUE(catalog.Analyze(t->name()).ok());
  }
  std::vector<Row> Run(PlanNodePtr plan, OperatorPtr* root_out = nullptr) {
    OperatorPtr root;
    Status s = CompilePlan(plan.get(), &ctx, &root);
    EXPECT_TRUE(s.ok()) << s.ToString();
    std::vector<Row> rows;
    EXPECT_TRUE(QueryExecutor::Run(root.get(), &ctx, &rows, nullptr).ok());
    if (root_out != nullptr) *root_out = std::move(root);
    return rows;
  }
};

TablePtr MakeSkewed(const std::string& name, uint64_t rows, double z,
                    uint32_t domain, uint64_t peak, uint64_t seed) {
  TableBuilder b(name);
  b.AddColumn("k", std::make_unique<ZipfSpec>(z, domain, peak))
      .AddColumn("id", std::make_unique<SequentialSpec>(0));
  return b.Build(rows, seed);
}

class IndexNlSweep : public ::testing::TestWithParam<double> {};

TEST_P(IndexNlSweep, MatchesHashJoinAndEstimatesExactly) {
  double z = GetParam();
  Fixture fx;
  fx.Add(MakeSkewed("outer_t", 900, z, 50, 1, 1));
  fx.Add(MakeSkewed("inner_t", 1100, z, 50, 2, 2));

  OperatorPtr inl_root;
  std::vector<Row> inl_rows =
      fx.Run(IndexNestedLoopsJoinPlan(ScanPlan("outer_t"), ScanPlan("inner_t"),
                                      "outer_t.k", "inner_t.k"),
             &inl_root);

  Fixture fx2;
  fx2.Add(MakeSkewed("outer_t", 900, z, 50, 1, 1));
  fx2.Add(MakeSkewed("inner_t", 1100, z, 50, 2, 2));
  // Hash join with swapped sides (build = inner) for the same result set.
  std::vector<Row> hash_rows = fx2.Run(HashJoinPlan(
      ScanPlan("inner_t"), ScanPlan("outer_t"), "inner_t.k", "outer_t.k"));

  EXPECT_EQ(inl_rows.size(), hash_rows.size());

  auto* join = dynamic_cast<NestedLoopsJoinOp*>(inl_root.get());
  ASSERT_NE(join, nullptr);
  ASSERT_NE(join->once_estimator(), nullptr);
  EXPECT_TRUE(join->once_estimator()->Exact());
  EXPECT_DOUBLE_EQ(join->once_estimator()->Estimate(),
                   static_cast<double>(inl_rows.size()));
}

INSTANTIATE_TEST_SUITE_P(Skews, IndexNlSweep,
                         ::testing::Values(0.0, 1.0, 2.0));

TEST(IndexNl, EstimateAvailableMidOuterScanWithinCI) {
  Fixture fx;
  fx.Add(MakeSkewed("outer_t", 20000, 1.0, 200, 1, 3));
  fx.Add(MakeSkewed("inner_t", 20000, 1.0, 200, 2, 4));
  PlanNodePtr plan = IndexNestedLoopsJoinPlan(
      ScanPlan("outer_t"), ScanPlan("inner_t"), "outer_t.k", "inner_t.k");
  OperatorPtr root;
  ASSERT_TRUE(CompilePlan(plan.get(), &fx.ctx, &root).ok());
  auto* join = dynamic_cast<NestedLoopsJoinOp*>(root.get());

  // Tuple-granular drive: the estimate is sampled at an exact outer index.
  fx.ctx.batch_size = 1;
  ASSERT_TRUE(root->Open(&fx.ctx).ok());
  RowBatch batch(fx.ctx.batch_size);
  uint64_t emitted = 0;
  double mid_estimate = 0;
  double mid_ci = 0;
  // Drain; capture the estimate when 10% of the outer input is consumed.
  while (root->NextBatch(&batch)) {
    emitted += batch.size();
    if (join->outer_consumed() == 2000 && mid_estimate == 0) {
      mid_estimate = join->once_estimator()->Estimate();
      mid_ci = join->once_estimator()->ConfidenceHalfWidth();
    }
  }
  root->Close();
  ASSERT_GT(mid_estimate, 0);
  EXPECT_NEAR(mid_estimate, static_cast<double>(emitted), mid_ci + 1e-9);
}

TEST(MergeJoinPipeline, SameAttributeChainSharesEstimator) {
  Fixture fx;
  fx.Add(MakeSkewed("a", 800, 1.0, 30, 1, 11));
  fx.Add(MakeSkewed("b", 800, 1.0, 30, 2, 22));
  fx.Add(MakeSkewed("c", 800, 1.0, 30, 3, 33));
  PlanNodePtr plan = MergeJoinPlan(
      ScanPlan("a"),
      MergeJoinPlan(ScanPlan("b"), ScanPlan("c"), "b.k", "c.k"), "a.k", "c.k");
  OperatorPtr root;
  std::vector<Row> rows = fx.Run(std::move(plan), &root);

  auto* upper = dynamic_cast<MergeJoinOp*>(root.get());
  ASSERT_NE(upper, nullptr);
  auto* lower = dynamic_cast<MergeJoinOp*>(upper->child(1));
  ASSERT_NE(lower, nullptr);
  const PipelineJoinEstimator* est = upper->pipeline_estimator();
  ASSERT_NE(est, nullptr);
  EXPECT_EQ(est, lower->pipeline_estimator());
  EXPECT_TRUE(est->Resolved(0));
  EXPECT_TRUE(est->Resolved(1));
  EXPECT_TRUE(est->Exact());
  EXPECT_DOUBLE_EQ(est->EstimateForJoin(0),
                   static_cast<double>(lower->tuples_emitted()));
  EXPECT_DOUBLE_EQ(est->EstimateForJoin(1), static_cast<double>(rows.size()));
}

TEST(MergeJoinPipeline, MatchesEquivalentHashPipelineRowCount) {
  auto run = [](bool merge) {
    Fixture fx;
    fx.Add(MakeSkewed("a", 500, 1.0, 25, 1, 5));
    fx.Add(MakeSkewed("b", 500, 1.0, 25, 2, 6));
    fx.Add(MakeSkewed("c", 500, 1.0, 25, 3, 7));
    PlanNodePtr inner_join =
        merge ? MergeJoinPlan(ScanPlan("b"), ScanPlan("c"), "b.k", "c.k")
              : HashJoinPlan(ScanPlan("b"), ScanPlan("c"), "b.k", "c.k");
    PlanNodePtr plan =
        merge ? MergeJoinPlan(ScanPlan("a"), std::move(inner_join), "a.k",
                              "c.k")
              : HashJoinPlan(ScanPlan("a"), std::move(inner_join), "a.k",
                             "c.k");
    return fx.Run(std::move(plan)).size();
  };
  EXPECT_EQ(run(true), run(false));
}

TEST(IndexNl, DneEstimateCoincidesWithOnceInExpectation) {
  // Section 4.1.3: without preprocessing NL estimation *is* dne; with the
  // index, ONCE leads dne only within the current outer tuple's fan-out.
  Fixture fx;
  fx.Add(MakeSkewed("outer_t", 5000, 0.0, 100, 1, 8));
  fx.Add(MakeSkewed("inner_t", 5000, 0.0, 100, 2, 9));
  PlanNodePtr plan = IndexNestedLoopsJoinPlan(
      ScanPlan("outer_t"), ScanPlan("inner_t"), "outer_t.k", "inner_t.k");
  OperatorPtr root;
  ASSERT_TRUE(CompilePlan(plan.get(), &fx.ctx, &root).ok());
  auto* join = dynamic_cast<NestedLoopsJoinOp*>(root.get());
  fx.ctx.batch_size = 1;  // sampled at an exact outer index
  ASSERT_TRUE(root->Open(&fx.ctx).ok());
  RowBatch batch(fx.ctx.batch_size);
  while (root->NextBatch(&batch)) {
    if (join->outer_consumed() == 2500) {
      double once_est = join->once_estimator()->Estimate();
      double dne_est = join->CardinalityEstimate(EstimationMode::kDne);
      EXPECT_NEAR(dne_est, once_est, 0.1 * once_est + 100.0);
    }
  }
  root->Close();
}

/// A nested-loops join's outer-tuple lookup: the rescan or the index.
class NlCancel : public ::testing::TestWithParam<PlanKind> {};

TEST_P(NlCancel, StopsAtTheNextOuterTuple) {
  // A cancel requested as the outer scan emits its first batch stops the
  // join at its next outer tuple. Nothing matches, so a join that checked
  // only between outer batches would work through the whole first batch
  // (a full inner rescan per tuple on the rescan path).
  Fixture fx;
  TableBuilder outer_b("outer_t");
  outer_b.AddColumn("k", std::make_unique<SequentialSpec>(0));
  fx.Add(outer_b.Build(4096, 1));
  TableBuilder inner_b("inner_t");
  inner_b.AddColumn("k", std::make_unique<SequentialSpec>(1000000));
  fx.Add(inner_b.Build(2000, 2));
  PlanNodePtr plan =
      GetParam() == PlanKind::kIndexNestedLoopsJoin
          ? IndexNestedLoopsJoinPlan(ScanPlan("outer_t"), ScanPlan("inner_t"),
                                     "outer_t.k", "inner_t.k")
          : NestedLoopsJoinPlan(ScanPlan("outer_t"), ScanPlan("inner_t"),
                                "outer_t.k", "inner_t.k");
  OperatorPtr root;
  ASSERT_TRUE(CompilePlan(plan.get(), &fx.ctx, &root).ok());
  auto* join = dynamic_cast<NestedLoopsJoinOp*>(root.get());
  ASSERT_NE(join, nullptr);
  const Operator* outer_scan = join->child(0);
  FunctionTickObserver cancel([&](uint64_t) {
    if (outer_scan->tuples_emitted() > 0) fx.ctx.RequestCancel();
  });
  fx.ctx.AddTickObserver(&cancel);
  std::vector<Row> rows;
  ASSERT_TRUE(QueryExecutor::Run(root.get(), &fx.ctx, &rows, nullptr).ok());
  fx.ctx.RemoveTickObserver(&cancel);
  ASSERT_GT(outer_scan->tuples_emitted(), 1u);
  EXPECT_TRUE(rows.empty());
  EXPECT_EQ(join->state(), OpState::kFinished);
  EXPECT_LE(join->outer_consumed(), 1u);
}

INSTANTIATE_TEST_SUITE_P(
    Lookups, NlCancel,
    ::testing::Values(PlanKind::kNestedLoopsJoin,
                      PlanKind::kIndexNestedLoopsJoin),
    [](const ::testing::TestParamInfo<PlanKind>& info) {
      return std::string(PlanKindName(info.param));
    });

}  // namespace
}  // namespace qpi
