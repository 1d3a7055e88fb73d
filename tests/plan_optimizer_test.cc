#include <gtest/gtest.h>

#include "datagen/table_builder.h"
#include "plan/optimizer.h"
#include "plan/plan_node.h"
#include "storage/catalog.h"

namespace qpi {
namespace {

class PlanOptimizerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // r: 1000 rows, key dense 1..1000, val uniform 1..10.
    TableBuilder rb("r");
    rb.AddColumn("key", std::make_unique<SequentialSpec>(1))
        .AddColumn("val", std::make_unique<UniformIntSpec>(1, 10));
    ASSERT_TRUE(catalog_.Register(rb.Build(1000, 1)).ok());
    // s: 100 rows, fkey uniform over 1..1000.
    TableBuilder sb("s");
    sb.AddColumn("fkey", std::make_unique<UniformIntSpec>(1, 1000))
        .AddColumn("payload", std::make_unique<UniformIntSpec>(1, 5));
    ASSERT_TRUE(catalog_.Register(sb.Build(100, 2)).ok());
    ASSERT_TRUE(catalog_.Analyze("r").ok());
    ASSERT_TRUE(catalog_.Analyze("s").ok());
  }

  Catalog catalog_;
};

TEST_F(PlanOptimizerTest, DeriveSchemaScan) {
  PlanNodePtr plan = ScanPlan("r");
  Schema schema;
  ASSERT_TRUE(plan->DeriveSchema(catalog_, &schema).ok());
  EXPECT_EQ(schema.num_columns(), 2u);
  EXPECT_EQ(schema.column(0).QualifiedName(), "r.key");
}

TEST_F(PlanOptimizerTest, DeriveSchemaMissingTableFails) {
  PlanNodePtr plan = ScanPlan("nope");
  Schema schema;
  EXPECT_EQ(plan->DeriveSchema(catalog_, &schema).code(),
            Status::Code::kNotFound);
}

TEST_F(PlanOptimizerTest, DeriveSchemaJoinConcatenates) {
  PlanNodePtr plan =
      HashJoinPlan(ScanPlan("r"), ScanPlan("s"), "r.key", "s.fkey");
  Schema schema;
  ASSERT_TRUE(plan->DeriveSchema(catalog_, &schema).ok());
  EXPECT_EQ(schema.num_columns(), 4u);
  EXPECT_EQ(schema.column(2).QualifiedName(), "s.fkey");
}

TEST_F(PlanOptimizerTest, DeriveSchemaAggregate) {
  PlanNodePtr plan = HashAggregatePlan(
      ScanPlan("r"), {"val"},
      {AggregateSpec{AggregateSpec::Kind::kCountStar, ""},
       AggregateSpec{AggregateSpec::Kind::kSum, "key"}});
  Schema schema;
  ASSERT_TRUE(plan->DeriveSchema(catalog_, &schema).ok());
  ASSERT_EQ(schema.num_columns(), 3u);
  EXPECT_EQ(schema.column(0).name, "val");
  EXPECT_EQ(schema.column(1).name, "count");
  EXPECT_EQ(schema.column(2).name, "sum_key");
}

TEST_F(PlanOptimizerTest, DeriveSchemaProjectSubsets) {
  PlanNodePtr plan = ProjectPlan(ScanPlan("r"), {"val"});
  Schema schema;
  ASSERT_TRUE(plan->DeriveSchema(catalog_, &schema).ok());
  ASSERT_EQ(schema.num_columns(), 1u);
  EXPECT_EQ(schema.column(0).QualifiedName(), "r.val");
}

TEST_F(PlanOptimizerTest, ScanEstimateIsRowCount) {
  PlanNodePtr plan = ScanPlan("r");
  OptimizerEstimator opt(&catalog_);
  ASSERT_TRUE(opt.Annotate(plan.get()).ok());
  EXPECT_DOUBLE_EQ(plan->optimizer_cardinality, 1000.0);
}

TEST_F(PlanOptimizerTest, EqualityFilterUsesDistinctCount) {
  PlanNodePtr plan = FilterPlan(
      ScanPlan("r"), MakeCompare("val", CompareOp::kEq, Value(int64_t{3})));
  OptimizerEstimator opt(&catalog_);
  ASSERT_TRUE(opt.Annotate(plan.get()).ok());
  EXPECT_NEAR(plan->optimizer_cardinality, 100.0, 1e-9);  // 1000 / 10
}

TEST_F(PlanOptimizerTest, RangeFilterAssumesUniformity) {
  PlanNodePtr plan = FilterPlan(
      ScanPlan("r"), MakeCompare("key", CompareOp::kLt, Value(int64_t{500})));
  OptimizerEstimator opt(&catalog_);
  ASSERT_TRUE(opt.Annotate(plan.get()).ok());
  // (500 - 1) / (1000 - 1) of 1000 rows.
  EXPECT_NEAR(plan->optimizer_cardinality, 1000.0 * 499 / 999, 1.0);
}

TEST_F(PlanOptimizerTest, JoinEstimateSystemR) {
  PlanNodePtr plan =
      HashJoinPlan(ScanPlan("r"), ScanPlan("s"), "r.key", "s.fkey");
  OptimizerEstimator opt(&catalog_);
  ASSERT_TRUE(opt.Annotate(plan.get()).ok());
  // |r|*|s| / max(d_key, d_fkey) = 1000*100/1000 = 100 (PK-FK estimate).
  EXPECT_NEAR(plan->optimizer_cardinality, 100.0, 20.0);
  // Children annotated too.
  EXPECT_DOUBLE_EQ(plan->children[0]->optimizer_cardinality, 1000.0);
}

TEST_F(PlanOptimizerTest, GroupByEstimateUsesColumnDistinct) {
  PlanNodePtr plan = HashAggregatePlan(
      ScanPlan("r"), {"val"},
      {AggregateSpec{AggregateSpec::Kind::kCountStar, ""}});
  OptimizerEstimator opt(&catalog_);
  ASSERT_TRUE(opt.Annotate(plan.get()).ok());
  EXPECT_NEAR(plan->optimizer_cardinality, 10.0, 1e-9);
}

TEST(PlanOptimizer, UniformInterpolationMissesZipfSkew) {
  // The naive-optimizer regime of Figure 4: min/max interpolation assumes
  // uniformity, so on Zipf(2) data, where values 1..5 hold most of the
  // mass, a range filter's estimate is off by more than 3x.
  Catalog catalog;
  TableBuilder b("t");
  b.AddColumn("q", std::make_unique<ZipfSpec>(2.0, 50, 0));
  ASSERT_TRUE(catalog.Register(b.Build(50000, 7)).ok());
  ASSERT_TRUE(catalog.Analyze("t").ok());

  TablePtr t = catalog.Find("t");
  double actual = 0;
  for (uint64_t i = 0; i < t->num_rows(); ++i) {
    if (t->RowAt(i)[0].AsInt64() <= 5) actual += 1;
  }

  PlanNodePtr plan = FilterPlan(
      ScanPlan("t"), MakeCompare("q", CompareOp::kLe, Value(int64_t{5})));
  OptimizerEstimator opt(&catalog);
  ASSERT_TRUE(opt.Annotate(plan.get()).ok());
  EXPECT_LT(plan->optimizer_cardinality, 0.3 * actual);
}

TEST_F(PlanOptimizerTest, AndSelectivityMultiplies) {
  PlanNodePtr plan = FilterPlan(
      ScanPlan("r"),
      MakeAnd(MakeCompare("val", CompareOp::kEq, Value(int64_t{1})),
              MakeCompare("key", CompareOp::kLt, Value(int64_t{501}))));
  OptimizerEstimator opt(&catalog_);
  ASSERT_TRUE(opt.Annotate(plan.get()).ok());
  EXPECT_NEAR(plan->optimizer_cardinality, 1000.0 * 0.1 * 0.5, 5.0);
}

TEST_F(PlanOptimizerTest, ToStringShowsTreeAndEstimates) {
  PlanNodePtr plan =
      HashJoinPlan(ScanPlan("r"), ScanPlan("s"), "r.key", "s.fkey");
  OptimizerEstimator opt(&catalog_);
  ASSERT_TRUE(opt.Annotate(plan.get()).ok());
  std::string text = plan->ToString();
  EXPECT_NE(text.find("HashJoin"), std::string::npos);
  EXPECT_NE(text.find("Scan r"), std::string::npos);
  EXPECT_NE(text.find("opt est"), std::string::npos);
}

}  // namespace
}  // namespace qpi
