// Metamorphic/differential properties: the progress framework must be
// purely observational. For randomly generated queries, the result
// multiset must be identical across estimation modes, sample fractions,
// hash-join partition counts, and join algorithms. Batch size must not
// change results, counters, estimates or estimator freeze points at all.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "datagen/table_builder.h"
#include "exec/compiler.h"
#include "exec/executor.h"
#include "exec/grace_hash_join.h"
#include "exec/merge_join.h"
#include "exec/nl_join.h"
#include "storage/catalog.h"

namespace qpi {
namespace {

/// Deterministic random catalog: three tables with mixed skew.
void BuildCatalog(Catalog* catalog, uint64_t seed) {
  Pcg32 rng(seed);
  for (const char* name : {"r1", "r2", "r3"}) {
    TableBuilder b(name);
    double z = (rng.NextBounded(3)) * 0.75;  // 0, 0.75, 1.5
    uint32_t domain = 10 + rng.NextBounded(90);
    b.AddColumn("k", std::make_unique<ZipfSpec>(z, domain,
                                                rng.NextUint64() | 1))
        .AddColumn("v", std::make_unique<UniformIntSpec>(1, 50));
    uint64_t rows = 300 + rng.NextBounded(700);
    ASSERT_TRUE(catalog->Register(b.Build(rows, rng.NextUint64())).ok());
    ASSERT_TRUE(catalog->Analyze(name).ok());
  }
}

/// A deterministic "random" query over the catalog, selected by seed.
PlanNodePtr MakeQuery(uint64_t seed) {
  Pcg32 rng(seed * 7919);
  int shape = static_cast<int>(rng.NextBounded(5));
  int64_t lit = 1 + rng.NextBounded(40);
  switch (shape) {
    case 0:
      return HashJoinPlan(ScanPlan("r1"), ScanPlan("r2"), "r1.k", "r2.k");
    case 1:
      return HashJoinPlan(
          ScanPlan("r1"),
          HashJoinPlan(ScanPlan("r2"), ScanPlan("r3"), "r2.k", "r3.k"),
          "r1.k", "r3.k");
    case 2:
      return FlavoredHashJoinPlan(
          ScanPlan("r1"),
          FilterPlan(ScanPlan("r2"),
                     MakeCompare("v", CompareOp::kLe, Value(lit))),
          "r1.k", "r2.k", JoinFlavor::kSemi);
    case 3:
      return HashAggregatePlan(
          HashJoinPlan(ScanPlan("r1"), ScanPlan("r2"), "r1.k", "r2.k"),
          {"r2.k"},
          {AggregateSpec{AggregateSpec::Kind::kCountStar, ""},
           AggregateSpec{AggregateSpec::Kind::kSum, "r1.v"}});
    default:
      return SortPlan(FilterPlan(ScanPlan("r3"),
                                 MakeCompare("k", CompareOp::kGt,
                                             Value(lit))),
                      {"k", "v"});
  }
}

/// Canonical (sorted) rendering of a result multiset.
std::vector<std::string> CanonicalResult(const std::vector<Row>& rows) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const Row& row : rows) out.push_back(RowToString(row));
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::string> RunConfigured(uint64_t catalog_seed,
                                       uint64_t query_seed,
                                       EstimationMode mode,
                                       double sample_fraction,
                                       size_t partitions) {
  Catalog catalog;
  BuildCatalog(&catalog, catalog_seed);
  ExecContext ctx;
  ctx.catalog = &catalog;
  ctx.mode = mode;
  ctx.sample_fraction = sample_fraction;
  ctx.hash_join_partitions = partitions;
  PlanNodePtr plan = MakeQuery(query_seed);
  OperatorPtr root;
  Status s = CompilePlan(plan.get(), &ctx, &root);
  EXPECT_TRUE(s.ok()) << s.ToString();
  std::vector<Row> rows;
  EXPECT_TRUE(QueryExecutor::Run(root.get(), &ctx, &rows, nullptr).ok());
  return CanonicalResult(rows);
}

class DifferentialSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DifferentialSweep, EstimationModeNeverChangesResults) {
  uint64_t seed = GetParam();
  std::vector<std::string> reference =
      RunConfigured(seed, seed, EstimationMode::kNone, 0.0, 64);
  for (EstimationMode mode :
       {EstimationMode::kOnce, EstimationMode::kDne, EstimationMode::kByte}) {
    EXPECT_EQ(RunConfigured(seed, seed, mode, 0.0, 64), reference)
        << "mode " << EstimationModeName(mode) << " seed " << seed;
  }
}

TEST_P(DifferentialSweep, SampleFractionNeverChangesResults) {
  uint64_t seed = GetParam();
  std::vector<std::string> reference =
      RunConfigured(seed, seed, EstimationMode::kOnce, 0.0, 64);
  for (double fraction : {0.01, 0.1, 0.5, 1.0}) {
    EXPECT_EQ(RunConfigured(seed, seed, EstimationMode::kOnce, fraction, 64),
              reference)
        << "sample " << fraction << " seed " << seed;
  }
}

TEST_P(DifferentialSweep, PartitionCountNeverChangesResults) {
  uint64_t seed = GetParam();
  std::vector<std::string> reference =
      RunConfigured(seed, seed, EstimationMode::kOnce, 0.0, 64);
  for (size_t partitions : {1u, 3u, 16u, 257u}) {
    EXPECT_EQ(
        RunConfigured(seed, seed, EstimationMode::kOnce, 0.0, partitions),
        reference)
        << "partitions " << partitions << " seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialSweep,
                         ::testing::Range<uint64_t>(1, 11));

TEST(Differential, HashAndMergeJoinAgreeOnRandomCatalogs) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Catalog catalog;
    BuildCatalog(&catalog, seed);
    auto run = [&](PlanNodePtr plan) {
      ExecContext ctx;
      ctx.catalog = &catalog;
      OperatorPtr root;
      EXPECT_TRUE(CompilePlan(plan.get(), &ctx, &root).ok());
      std::vector<Row> rows;
      EXPECT_TRUE(QueryExecutor::Run(root.get(), &ctx, &rows, nullptr).ok());
      return CanonicalResult(rows);
    };
    EXPECT_EQ(
        run(HashJoinPlan(ScanPlan("r1"), ScanPlan("r2"), "r1.k", "r2.k")),
        run(MergeJoinPlan(ScanPlan("r1"), ScanPlan("r2"), "r1.k", "r2.k")))
        << "seed " << seed;
  }
}

// ---- batch-size sweep -------------------------------------------------------
//
// For every operator shape and estimation mode, runs at batch_size 7, 256
// and 1024 must reproduce the batch_size 1 run (tuple-granular: every
// operator consumes one row per call) exactly:
//   (a) the same result multiset,
//   (b) the same final tuples_emitted() and cardinality estimate on every
//       operator in the tree, and
//   (c) the same freeze state and tuples observed for every ONCE/theta
//       estimator — RowBatch::random_run must put each freeze on the same
//       tuple whatever the batch size.

struct SweepShape {
  const char* name;
  PlanNodePtr (*make)();
};

const SweepShape kSweepShapes[] = {
    {"scan", [] { return ScanPlan("r1"); }},
    {"filter",
     [] {
       return FilterPlan(ScanPlan("r2"), MakeCompare("v", CompareOp::kLe,
                                                     Value(int64_t{25})));
     }},
    {"agg",
     [] {
       return HashAggregatePlan(
           ScanPlan("r1"), {"k"},
           {AggregateSpec{AggregateSpec::Kind::kCountStar, ""},
            AggregateSpec{AggregateSpec::Kind::kSum, "v"}});
     }},
    {"hash_join",
     [] {
       return HashJoinPlan(ScanPlan("r1"), ScanPlan("r2"), "r1.k", "r2.k");
     }},
    {"merge_join",
     [] {
       return MergeJoinPlan(ScanPlan("r1"), ScanPlan("r2"), "r1.k", "r2.k");
     }},
    {"pipeline",
     [] {
       return HashJoinPlan(
           ScanPlan("r1"),
           HashJoinPlan(ScanPlan("r2"), ScanPlan("r3"), "r2.k", "r3.k"),
           "r1.k", "r3.k");
     }},
    {"sort_filter",
     [] {
       return SortPlan(FilterPlan(ScanPlan("r3"),
                                  MakeCompare("v", CompareOp::kGt,
                                              Value(int64_t{10}))),
                       {"k", "v"});
     }},
    {"nl_join",
     [] {
       return NestedLoopsJoinPlan(ScanPlan("r1"), ScanPlan("r2"), "r1.k",
                                  "r2.k");
     }},
    {"theta_nl_join",
     [] {
       // A filtered outer keeps the inequality join's output small.
       return ThetaNestedLoopsJoinPlan(
           FilterPlan(ScanPlan("r1"),
                      MakeCompare("v", CompareOp::kLe, Value(int64_t{10}))),
           ScanPlan("r2"), "r1.k", "r2.k", CompareOp::kLe);
     }},
    {"index_nl_join",
     [] {
       return IndexNestedLoopsJoinPlan(ScanPlan("r1"), ScanPlan("r2"), "r1.k",
                                       "r2.k");
     }},
};

struct OpObservation {
  std::string label;
  uint64_t emitted;
  double estimate;
};

struct EstimatorObservation {
  bool frozen;
  uint64_t seen;  // probe_tuples_seen() or outer_tuples_seen()
};

struct SweepRun {
  std::vector<std::string> rows;
  std::vector<OpObservation> ops;  // pre-order over the tree
  std::vector<EstimatorObservation> estimators;
};

SweepRun RunAtBatchSize(Catalog* catalog, const SweepShape& shape,
                        EstimationMode mode, size_t batch_size) {
  ExecContext ctx;
  ctx.catalog = catalog;
  ctx.mode = mode;
  ctx.sample_fraction = 0.1;
  ctx.batch_size = batch_size;
  PlanNodePtr plan = shape.make();
  OperatorPtr root;
  Status s = CompilePlan(plan.get(), &ctx, &root);
  EXPECT_TRUE(s.ok()) << s.ToString();
  std::vector<Row> rows;
  EXPECT_TRUE(QueryExecutor::Run(root.get(), &ctx, &rows, nullptr).ok());
  SweepRun out;
  out.rows = CanonicalResult(rows);
  root->Visit([&](Operator* op) {
    out.ops.push_back(
        {op->label(), op->tuples_emitted(), op->CurrentCardinalityEstimate()});
    const OnceBinaryJoinEstimator* once = nullptr;
    if (auto* j = dynamic_cast<GraceHashJoinOp*>(op)) {
      once = j->once_estimator();
    }
    if (auto* j = dynamic_cast<MergeJoinOp*>(op)) once = j->once_estimator();
    const OnceInequalityJoinEstimator* theta = nullptr;
    if (auto* j = dynamic_cast<NestedLoopsJoinOp*>(op)) {
      once = j->once_estimator();
      theta = j->theta_estimator();
    }
    if (once != nullptr) {
      out.estimators.push_back({once->frozen(), once->probe_tuples_seen()});
    }
    if (theta != nullptr) {
      out.estimators.push_back({theta->frozen(), theta->outer_tuples_seen()});
    }
  });
  return out;
}

class BatchSizeSweep : public ::testing::TestWithParam<EstimationMode> {};

TEST_P(BatchSizeSweep, IdenticalResultsCountersEstimatesAndFreezePoints) {
  EstimationMode mode = GetParam();
  Catalog catalog;
  BuildCatalog(&catalog, 42);

  size_t frozen_estimators = 0;
  for (const SweepShape& shape : kSweepShapes) {
    SweepRun reference = RunAtBatchSize(&catalog, shape, mode, 1);
    for (const EstimatorObservation& e : reference.estimators) {
      if (e.frozen) ++frozen_estimators;
    }
    for (size_t batch_size : {size_t{7}, size_t{256}, size_t{1024}}) {
      SCOPED_TRACE(std::string(shape.name) + " mode " +
                   EstimationModeName(mode) + " batch " +
                   std::to_string(batch_size));
      SweepRun batched = RunAtBatchSize(&catalog, shape, mode, batch_size);
      EXPECT_EQ(batched.rows, reference.rows);
      ASSERT_EQ(batched.ops.size(), reference.ops.size());
      for (size_t i = 0; i < reference.ops.size(); ++i) {
        EXPECT_EQ(batched.ops[i].label, reference.ops[i].label);
        EXPECT_EQ(batched.ops[i].emitted, reference.ops[i].emitted)
            << "operator " << reference.ops[i].label;
        EXPECT_EQ(batched.ops[i].estimate, reference.ops[i].estimate)
            << "operator " << reference.ops[i].label;
      }
      ASSERT_EQ(batched.estimators.size(), reference.estimators.size());
      for (size_t i = 0; i < reference.estimators.size(); ++i) {
        EXPECT_EQ(batched.estimators[i].frozen, reference.estimators[i].frozen)
            << "estimator " << i;
        EXPECT_EQ(batched.estimators[i].seen, reference.estimators[i].seen)
            << "estimator " << i;
      }
    }
  }
  // The 10% sample prefix must actually end inside the ONCE windows, or the
  // freeze comparison above would be vacuous.
  if (mode == EstimationMode::kOnce) {
    EXPECT_GT(frozen_estimators, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, BatchSizeSweep,
                         ::testing::Values(EstimationMode::kNone,
                                           EstimationMode::kOnce,
                                           EstimationMode::kDne,
                                           EstimationMode::kByte));

}  // namespace
}  // namespace qpi
