// Conjunctive multi-attribute hash equijoins (Section 4.1's "conjunctions
// of multiple attributes"): correctness vs a brute-force oracle at 1 and 4
// workers, composite key estimation exactness, collision safety of the
// value-equality check, and optimizer/compile error paths.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "datagen/table_builder.h"
#include "exec/compiler.h"
#include "exec/executor.h"
#include "exec/grace_hash_join.h"
#include "plan/optimizer.h"
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
};

TablePtr TwoKeyTable(const std::string& name, uint64_t rows, uint32_t d1,
                     uint32_t d2, uint64_t seed) {
  TableBuilder b(name);
  b.AddColumn("x", std::make_unique<UniformIntSpec>(1, d1))
      .AddColumn("y", std::make_unique<UniformIntSpec>(1, d2))
      .AddColumn("id", std::make_unique<SequentialSpec>(0));
  return b.Build(rows, seed);
}

TEST(MultiKeyJoin, MatchesBruteForceOracle) {
  Fixture fx;
  TablePtr l = TwoKeyTable("l", 400, 10, 8, 1);
  TablePtr r = TwoKeyTable("r", 500, 10, 8, 2);
  fx.Add(l);
  fx.Add(r);

  // (l.id, r.id) of every matching pair.
  std::vector<std::pair<int64_t, int64_t>> expected;
  for (uint64_t a = 0; a < l->num_rows(); ++a) {
    for (uint64_t b = 0; b < r->num_rows(); ++b) {
      if (l->RowAt(a)[0].AsInt64() == r->RowAt(b)[0].AsInt64() &&
          l->RowAt(a)[1].AsInt64() == r->RowAt(b)[1].AsInt64()) {
        expected.emplace_back(l->RowAt(a)[2].AsInt64(),
                              r->RowAt(b)[2].AsInt64());
      }
    }
  }
  std::sort(expected.begin(), expected.end());

  // The sequential and the parallel join phase.
  for (size_t workers : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE(workers);
    fx.ctx.exec_workers = workers;
    PlanNodePtr plan = MultiKeyHashJoinPlan(ScanPlan("l"), ScanPlan("r"),
                                            {"l.x", "l.y"}, {"r.x", "r.y"});
    OperatorPtr root;
    ASSERT_TRUE(CompilePlan(plan.get(), &fx.ctx, &root).ok());
    std::vector<Row> rows;
    ASSERT_TRUE(QueryExecutor::Run(root.get(), &fx.ctx, &rows, nullptr).ok());
    std::vector<std::pair<int64_t, int64_t>> emitted;
    for (const Row& row : rows) {
      EXPECT_EQ(row[0].AsInt64(), row[3].AsInt64());  // l.x == r.x
      EXPECT_EQ(row[1].AsInt64(), row[4].AsInt64());  // l.y == r.y
      emitted.emplace_back(row[2].AsInt64(), row[5].AsInt64());
    }
    std::sort(emitted.begin(), emitted.end());
    EXPECT_EQ(emitted, expected);
  }
}

TEST(MultiKeyJoin, OnceEstimatorExactOnCompositeKeys) {
  Fixture fx;
  fx.Add(TwoKeyTable("l", 2000, 40, 25, 3));
  fx.Add(TwoKeyTable("r", 2500, 40, 25, 4));
  PlanNodePtr plan = MultiKeyHashJoinPlan(ScanPlan("l"), ScanPlan("r"),
                                          {"l.x", "l.y"}, {"r.x", "r.y"});
  OperatorPtr root;
  ASSERT_TRUE(CompilePlan(plan.get(), &fx.ctx, &root).ok());
  auto* join = dynamic_cast<GraceHashJoinOp*>(root.get());
  ASSERT_NE(join, nullptr);
  EXPECT_EQ(join->num_key_columns(), 2u);
  ASSERT_NE(join->once_estimator(), nullptr);

  uint64_t rows = 0;
  ASSERT_TRUE(QueryExecutor::Run(root.get(), &fx.ctx, nullptr, &rows).ok());
  EXPECT_TRUE(join->once_estimator()->Exact());
  EXPECT_DOUBLE_EQ(join->once_estimator()->Estimate(),
                   static_cast<double>(rows));
}

TEST(MultiKeyJoin, SingleKeySubsetGivesStrictlyMoreRows) {
  Fixture fx;
  fx.Add(TwoKeyTable("l", 600, 12, 6, 5));
  fx.Add(TwoKeyTable("r", 600, 12, 6, 6));
  uint64_t multi = 0;
  uint64_t single = 0;
  {
    PlanNodePtr plan = MultiKeyHashJoinPlan(ScanPlan("l"), ScanPlan("r"),
                                            {"l.x", "l.y"}, {"r.x", "r.y"});
    OperatorPtr root;
    ASSERT_TRUE(CompilePlan(plan.get(), &fx.ctx, &root).ok());
    ASSERT_TRUE(QueryExecutor::Run(root.get(), &fx.ctx, nullptr, &multi).ok());
  }
  {
    PlanNodePtr plan = HashJoinPlan(ScanPlan("l"), ScanPlan("r"), "l.x",
                                    "r.x");
    OperatorPtr root;
    ASSERT_TRUE(CompilePlan(plan.get(), &fx.ctx, &root).ok());
    ASSERT_TRUE(
        QueryExecutor::Run(root.get(), &fx.ctx, nullptr, &single).ok());
  }
  EXPECT_LT(multi, single);
  EXPECT_GT(multi, 0u);
}

TEST(MultiKeyJoin, OptimizerUsesProductOfDistincts) {
  Fixture fx;
  fx.Add(TwoKeyTable("l", 1000, 10, 20, 7));
  fx.Add(TwoKeyTable("r", 1000, 10, 20, 8));
  PlanNodePtr plan = MultiKeyHashJoinPlan(ScanPlan("l"), ScanPlan("r"),
                                          {"l.x", "l.y"}, {"r.x", "r.y"});
  OptimizerEstimator opt(&fx.catalog);
  ASSERT_TRUE(opt.Annotate(plan.get()).ok());
  // 1000 * 1000 / (10 * 20) = 5000.
  EXPECT_NEAR(plan->optimizer_cardinality, 5000.0, 1e-6);
}

TEST(MultiKeyJoin, MismatchedKeyCountsFailToCompile) {
  Fixture fx;
  fx.Add(TwoKeyTable("l", 10, 5, 5, 9));
  fx.Add(TwoKeyTable("r", 10, 5, 5, 10));
  PlanNodePtr plan = MultiKeyHashJoinPlan(ScanPlan("l"), ScanPlan("r"),
                                          {"l.x", "l.y"}, {"r.x"});
  OperatorPtr root;
  Status s = CompilePlan(plan.get(), &fx.ctx, &root);
  EXPECT_EQ(s.code(), Status::Code::kInvalidArgument);
}

TEST(MultiKeyJoin, BreaksPipelineChains) {
  // A multi-key join above a single-key join must not share a pipeline
  // estimator; the lower join still gets wired.
  Fixture fx;
  fx.Add(TwoKeyTable("a", 300, 10, 5, 11));
  fx.Add(TwoKeyTable("b", 300, 10, 5, 12));
  fx.Add(TwoKeyTable("c", 300, 10, 5, 13));
  PlanNodePtr plan = MultiKeyHashJoinPlan(
      ScanPlan("a"),
      HashJoinPlan(ScanPlan("b"), ScanPlan("c"), "b.x", "c.x"),
      {"a.x", "a.y"}, {"c.x", "c.y"});
  OperatorPtr root;
  ASSERT_TRUE(CompilePlan(plan.get(), &fx.ctx, &root).ok());
  auto* top = dynamic_cast<GraceHashJoinOp*>(root.get());
  auto* below = dynamic_cast<GraceHashJoinOp*>(top->child(1));
  EXPECT_EQ(top->pipeline_estimator(), nullptr);
  ASSERT_NE(below->once_estimator(), nullptr);
  uint64_t rows = 0;
  ASSERT_TRUE(QueryExecutor::Run(root.get(), &fx.ctx, nullptr, &rows).ok());
  EXPECT_TRUE(below->once_estimator()->Exact());
}

}  // namespace
}  // namespace qpi
