// Parallel-vs-sequential differential: intra-query parallelism (morsel-
// parallel scans, partition-parallel grace hash join phases) must be
// observationally equivalent to the sequential engine. For every query
// shape and estimation mode, running the batch path with exec_workers in
// {2, 4, 8} must reproduce the exec_workers == 1 run exactly:
//   (a) the same result multiset (join-phase emission order may interleave
//       partitions, so rows are compared canonically sorted),
//   (b) the same final tuples_emitted() on every operator in the tree,
//   (c) the same final cardinality estimate on every operator, and
//   (d) bit-identical ONCE/theta estimator state (estimate, tuples seen,
//       freeze flag) on every join — the estimation windows are sequential
//       phases fed by the ordered morsel merge (for the nested-loops joins,
//       the outer input itself), so the parallel layer must not move a
//       single freeze boundary.
// A single-hot-key join additionally pins the exact *ordered* stream
// through the join phase's ready-cap stall/resume cycle, batch recycling
// and the split of partitions into probe-row join units sharing one build
// table, for every join flavor, three batch sizes and one or four
// partitions. Also covers partition-count normalization (round up to a
// power of two, reject 0) and cooperative cancellation under parallel
// execution, including while a join unit is stalled and inside a hot
// bucket. Morsel geometries across batch sizes, with sample boundaries
// inside a unit, pin the fused scan's batch-by-batch (size, random_run)
// sequence at 1, 2 and 4 workers against a stream the test builds from the
// scan order itself, and a filter that passes one row of a large table
// pins that banked scan ticks reach the observers unit by unit. At one
// worker the join runs the same units inline: it must cut them and submit
// no task. With a fleet the join hands each unit's batches to the
// consumer whole: the hand-off test pins what may and may not change about
// join output batches. Shapes whose estimators read a fused scan chain's
// counters between batches (an aggregate, a sort, the merge and
// nested-loops joins over filtered scans, filter chains) must show every
// observer call, and every count, state and estimate it reads, exactly as
// at one worker: the ordered merge is the one place progress is
// attributed.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <functional>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "common/task_scheduler.h"
#include "datagen/table_builder.h"
#include "exec/compiler.h"
#include "exec/executor.h"
#include "exec/grace_hash_join.h"
#include "exec/merge_join.h"
#include "exec/nl_join.h"
#include "exec/ordered_merge.h"
#include "exec/seq_scan.h"
#include "exec/aggregate.h"
#include "progress/concurrent_multi_query.h"
#include "progress/ensemble.h"
#include "progress/gnm.h"
#include "storage/catalog.h"

namespace qpi {
namespace {

/// Same deterministic catalog recipe as differential_test.cc: three tables
/// with mixed skew for realistic key overlap.
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

struct Shape {
  const char* name;
  PlanNodePtr (*make)();
};

const Shape kShapes[] = {
    {"scan", [] { return ScanPlan("r1"); }},
    {"filter",
     [] {
       return FilterPlan(ScanPlan("r2"), MakeCompare("v", CompareOp::kLe,
                                                     Value(int64_t{25})));
     }},
    {"filter_project",
     [] {
       return ProjectPlan(
           FilterPlan(ScanPlan("r1"),
                      MakeCompare("v", CompareOp::kGe, Value(int64_t{10}))),
           {"k"});
     }},
    {"hash_join",
     [] {
       return HashJoinPlan(ScanPlan("r1"), ScanPlan("r2"), "r1.k", "r2.k");
     }},
    {"join_filtered_probe",
     [] {
       return HashJoinPlan(
           ScanPlan("r1"),
           FilterPlan(ScanPlan("r2"),
                      MakeCompare("v", CompareOp::kLe, Value(int64_t{40}))),
           "r1.k", "r2.k");
     }},
    {"semi_join",
     [] {
       return FlavoredHashJoinPlan(ScanPlan("r1"), ScanPlan("r2"), "r1.k",
                                   "r2.k", JoinFlavor::kSemi);
     }},
    {"outer_join",
     [] {
       return FlavoredHashJoinPlan(ScanPlan("r1"), ScanPlan("r2"), "r1.k",
                                   "r2.k", JoinFlavor::kProbeOuter);
     }},
    {"pipeline",
     [] {
       return HashJoinPlan(
           ScanPlan("r1"),
           HashJoinPlan(ScanPlan("r2"), ScanPlan("r3"), "r2.k", "r3.k"),
           "r1.k", "r3.k");
     }},
    {"merge_join",
     [] {
       return MergeJoinPlan(ScanPlan("r1"), ScanPlan("r2"), "r1.k", "r2.k");
     }},
    {"index_nl_join",
     [] {
       return IndexNestedLoopsJoinPlan(ScanPlan("r1"), ScanPlan("r2"), "r1.k",
                                       "r2.k");
     }},
    {"theta_nl_join",
     [] {
       return ThetaNestedLoopsJoinPlan(
           FilterPlan(ScanPlan("r1"),
                      MakeCompare("v", CompareOp::kLe, Value(int64_t{10}))),
           ScanPlan("r2"), "r1.k", "r2.k", CompareOp::kLe);
     }},
};

struct OpObservation {
  std::string label;
  uint64_t emitted;
  double estimate;
};

/// ONCE (binary or theta) estimator internals of one join (zeros when not
/// attached).
struct OnceObservation {
  uint64_t probe_seen = 0;
  double estimate = 0.0;
  bool frozen = false;
  bool exact = false;
};

OnceObservation ObserveOnce(const OnceBinaryJoinEstimator* est) {
  OnceObservation once;
  if (est != nullptr) {
    once.probe_seen = est->probe_tuples_seen();
    once.estimate = est->Estimate();
    once.frozen = est->frozen();
    once.exact = est->Exact();
  }
  return once;
}

OnceObservation ObserveOnce(const OnceInequalityJoinEstimator* est) {
  OnceObservation once;
  if (est != nullptr) {
    once.probe_seen = est->outer_tuples_seen();
    once.estimate = est->Estimate();
    once.frozen = est->frozen();
    once.exact = est->Exact();
  }
  return once;
}

struct RunResult {
  std::vector<std::string> rows;   // canonical (sorted) multiset, or the
                                   // emitted sequence when run `ordered`
  std::vector<OpObservation> ops;  // pre-order over the tree
  std::vector<OnceObservation> once;
  uint64_t rows_emitted = 0;
};

RunResult RunQuery(const Catalog& catalog, const Shape& shape,
                   EstimationMode mode, size_t workers,
                   size_t batch_size = 256, size_t partitions = 16,
                   bool ordered = false) {
  ExecContext ctx;
  ctx.catalog = const_cast<Catalog*>(&catalog);
  ctx.mode = mode;
  ctx.sample_fraction = 0.1;
  ctx.batch_size = batch_size;
  ctx.exec_workers = workers;
  ctx.hash_join_partitions = partitions;
  PlanNodePtr plan = shape.make();
  OperatorPtr root;
  Status s = CompilePlan(plan.get(), &ctx, &root);
  EXPECT_TRUE(s.ok()) << s.ToString();
  std::vector<Row> rows;
  RunResult out;
  EXPECT_TRUE(
      QueryExecutor::Run(root.get(), &ctx, &rows, &out.rows_emitted).ok());
  out.rows.reserve(rows.size());
  for (const Row& row : rows) out.rows.push_back(RowToString(row));
  if (!ordered) std::sort(out.rows.begin(), out.rows.end());
  root->Visit([&](Operator* op) {
    out.ops.push_back(
        {op->label(), op->tuples_emitted(), op->CurrentCardinalityEstimate()});
    if (auto* j = dynamic_cast<GraceHashJoinOp*>(op)) {
      out.once.push_back(ObserveOnce(j->once_estimator()));
    }
    if (auto* j = dynamic_cast<MergeJoinOp*>(op)) {
      out.once.push_back(ObserveOnce(j->once_estimator()));
    }
    if (auto* j = dynamic_cast<NestedLoopsJoinOp*>(op)) {
      out.once.push_back(ObserveOnce(j->once_estimator()));
      out.once.push_back(ObserveOnce(j->theta_estimator()));
    }
  });
  return out;
}

class ParallelVsSequential : public ::testing::TestWithParam<EstimationMode> {};

TEST_P(ParallelVsSequential, IdenticalResultsCountersAndEstimates) {
  EstimationMode mode = GetParam();
  Catalog catalog;
  BuildCatalog(&catalog, 42);

  for (const Shape& shape : kShapes) {
    RunResult reference = RunQuery(catalog, shape, mode, 1);
    for (size_t workers : {size_t{2}, size_t{4}, size_t{8}}) {
      SCOPED_TRACE(std::string(shape.name) + " mode " +
                   EstimationModeName(mode) + " workers " +
                   std::to_string(workers));
      RunResult parallel = RunQuery(catalog, shape, mode, workers);
      EXPECT_EQ(parallel.rows_emitted, reference.rows_emitted);
      EXPECT_EQ(parallel.rows, reference.rows);
      ASSERT_EQ(parallel.ops.size(), reference.ops.size());
      for (size_t i = 0; i < reference.ops.size(); ++i) {
        EXPECT_EQ(parallel.ops[i].label, reference.ops[i].label);
        EXPECT_EQ(parallel.ops[i].emitted, reference.ops[i].emitted)
            << "operator " << reference.ops[i].label;
        EXPECT_EQ(parallel.ops[i].estimate, reference.ops[i].estimate)
            << "operator " << reference.ops[i].label;
      }
      ASSERT_EQ(parallel.once.size(), reference.once.size());
      for (size_t i = 0; i < reference.once.size(); ++i) {
        EXPECT_EQ(parallel.once[i].probe_seen, reference.once[i].probe_seen);
        EXPECT_EQ(parallel.once[i].estimate, reference.once[i].estimate);
        EXPECT_EQ(parallel.once[i].frozen, reference.once[i].frozen);
        EXPECT_EQ(parallel.once[i].exact, reference.once[i].exact);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, ParallelVsSequential,
                         ::testing::Values(EstimationMode::kNone,
                                           EstimationMode::kOnce,
                                           EstimationMode::kDne,
                                           EstimationMode::kByte));

/// A table whose blocks each end in six rows with v == 0, so a predicate
/// on v >= 1 rejects the last rows of every block — among them the last
/// row of the sampled prefix, the first input past the random run. A
/// partial last block keeps the row count off any unit multiple.
void BuildBlockEdgeTable(Catalog* catalog, const std::string& name,
                         uint64_t rows) {
  Schema schema({Column{name, "id", ValueType::kInt64},
                 Column{name, "v", ValueType::kInt64},
                 Column{name, "s", ValueType::kString}});
  auto t = std::make_shared<Table>(name, schema);
  for (uint64_t id = 0; id < rows; ++id) {
    const uint64_t pos = id % kRowsPerBlock;
    const int64_t v =
        pos >= kRowsPerBlock - 6 ? 0 : static_cast<int64_t>(1 + id % 50);
    ASSERT_TRUE(t->Append({Value(static_cast<int64_t>(id)), Value(v),
                           Value("s" + std::to_string(id % 97))})
                    .ok());
  }
  ASSERT_TRUE(catalog->Register(t).ok());
  ASSERT_TRUE(catalog->Analyze(name).ok());
}

/// Everything a consumer sees of one sampled run, batch by batch.
struct DrainedRun {
  /// (size, random_run) of every emitted batch, in order.
  std::vector<std::pair<size_t, uint64_t>> batches;
  std::vector<std::string> rows;  // emitted order
  uint64_t prefix_rows = 0;       // the scan's random prefix
  ScanOrder order;                // the scan's resolved block order
};

/// What a scan → filter → project chain over `table` must emit, built
/// without the engine: walk `order` over the table's blocks, keep the rows
/// `keep` passes, project them onto `columns` (all columns when empty),
/// mark output row j (from input row v) in-run iff v + 1 < prefix, and cut
/// the stream into batch_size batches.
DrainedRun ExpectedChainRun(const Table& table, const ScanOrder& order,
                            size_t batch_size,
                            const std::function<bool(const Row&)>& keep,
                            const std::vector<size_t>& columns) {
  DrainedRun out;
  out.order = order;
  const bool sampled = order.sample_block_count != 0;
  out.prefix_rows = sampled ? order.sample_row_count : table.num_rows();
  const uint64_t prefix = sampled ? order.sample_row_count : UINT64_MAX;
  uint64_t v = 0;
  for (uint32_t block_id : order.block_order) {
    const Block& block = table.block(block_id);
    for (size_t i = 0; i < block.num_rows(); ++i, ++v) {
      const Row& row = block.row(i);
      if (!keep(row)) continue;
      Row emitted = columns.empty() ? row : Row();
      for (size_t c : columns) emitted.push_back(row[c]);
      if (out.batches.empty() || out.batches.back().first == batch_size) {
        out.batches.emplace_back(0, 0);
      }
      out.batches.back().first++;
      if (v + 1 < prefix) out.batches.back().second++;
      out.rows.push_back(RowToString(emitted));
    }
  }
  return out;
}

DrainedRun DrainSampled(const Catalog& catalog, PlanNodePtr plan,
                        size_t workers, size_t batch_size) {
  ExecContext ctx;
  ctx.catalog = const_cast<Catalog*>(&catalog);
  ctx.mode = EstimationMode::kOnce;
  ctx.sample_fraction = 0.1;
  ctx.batch_size = batch_size;
  ctx.exec_workers = workers;
  OperatorPtr root;
  DrainedRun out;
  EXPECT_TRUE(CompilePlan(plan.get(), &ctx, &root).ok());
  if (root == nullptr) return out;
  EXPECT_TRUE(root->Open(&ctx).ok());
  ctx.BeginExecution();
  RowBatch batch(batch_size);
  while (root->NextBatch(&batch)) {
    out.batches.emplace_back(batch.size(), batch.random_run());
    for (size_t i = 0; i < batch.size(); ++i) {
      out.rows.push_back(RowToString(batch.row(i)));
    }
  }
  root->Close();
  ctx.EndExecution();
  root->Visit([&](Operator* op) {
    if (auto* scan = dynamic_cast<SeqScanOp*>(op)) {
      out.order = scan->scan_order();
      out.prefix_rows = out.order.sample_block_count != 0
                            ? out.order.sample_row_count
                            : scan->scan_table().num_rows();
    }
  });
  return out;
}

/// Morsel geometries across batch sizes: each table holds over 30 scan
/// units (OrderedMerge::UnitTarget rows each), units of 256 rows do not
/// divide batch sizes 7 and 33, and with 400- and 4000-row units the
/// sample boundary falls inside a unit. No row, batch boundary or
/// random-run boundary may move from the chain's expected stream
/// (ExpectedChainRun) at 1, 2 or 4 workers.
TEST(ParallelMorselGeometry, BatchSizesMatchSequential) {
  for (size_t batch_size :
       {size_t{1}, size_t{7}, size_t{33}, size_t{100}, size_t{1000}}) {
    SCOPED_TRACE("batch " + std::to_string(batch_size));
    const uint64_t unit = OrderedMerge::UnitTarget(batch_size);
    const std::string name = "g" + std::to_string(batch_size);
    Catalog catalog;
    BuildBlockEdgeTable(&catalog, name, 31 * unit + 77);
    auto make = [&] {
      return ProjectPlan(
          FilterPlan(ScanPlan(name),
                     MakeCompare("v", CompareOp::kLe, Value(int64_t{25}))),
          {"s", "id"});
    };
    const Table& table = *catalog.Find(name);
    DrainedRun expected;
    for (size_t workers : {size_t{1}, size_t{2}, size_t{4}}) {
      SCOPED_TRACE("workers " + std::to_string(workers));
      DrainedRun run = DrainSampled(catalog, make(), workers, batch_size);
      if (workers == 1) {
        expected = ExpectedChainRun(
            table, run.order, batch_size,
            [](const Row& row) { return row[1].AsInt64() <= 25; }, {2, 0});
        ASSERT_GT(expected.prefix_rows, 0u);
        if (unit % kRowsPerBlock != 0) {
          EXPECT_NE(expected.prefix_rows % unit, 0u)
              << "sample boundary on a unit edge";
        }
      }
      EXPECT_EQ(run.order.block_order, expected.order.block_order);
      EXPECT_EQ(run.prefix_rows, expected.prefix_rows);
      EXPECT_TRUE(run.batches == expected.batches)
          << "batch sizes or random runs differ";
      // The exact row ORDER, not just the multiset.
      ASSERT_EQ(run.rows.size(), expected.rows.size());
      for (size_t i = 0; i < run.rows.size(); ++i) {
        EXPECT_EQ(run.rows[i], expected.rows[i]) << "row " << i;
      }
    }
  }
}

/// The per-batch random run of a sampled scan chain — a plain scan, a
/// filter that rejects the rows at the sample boundary, and
/// filter→project — is the expected one (ExpectedChainRun) at every
/// worker count: the same (size, random_run) for every emitted batch, and
/// the same rows in the same order.
TEST(ParallelMorselGeometry, PerBatchRandomRunMatchesSequential) {
  Catalog catalog;
  BuildBlockEdgeTable(&catalog, "e", 20000);
  const Table& table = *catalog.Find("e");
  struct ChainShape {
    const char* name;
    PlanNodePtr (*make)();
    bool filtered;                // keeps rows with v >= 1
    std::vector<size_t> columns;  // projection (empty: every column)
  };
  const ChainShape shapes[] = {
      {"scan", [] { return ScanPlan("e"); }, false, {}},
      {"filter",
       [] {
         return FilterPlan(ScanPlan("e"), MakeCompare("v", CompareOp::kGe,
                                                      Value(int64_t{1})));
       },
       true,
       {}},
      {"filter_project",
       [] {
         return ProjectPlan(
             FilterPlan(ScanPlan("e"), MakeCompare("v", CompareOp::kGe,
                                                   Value(int64_t{1}))),
             {"id", "v"});
       },
       true,
       {0, 1}},
  };
  for (const ChainShape& shape : shapes) {
    const bool filtered = shape.filtered;
    for (size_t batch_size : {size_t{1}, size_t{7}, size_t{1024}}) {
      DrainedRun expected;
      for (size_t workers : {size_t{1}, size_t{2}, size_t{4}}) {
        SCOPED_TRACE(std::string(shape.name) + " batch " +
                     std::to_string(batch_size) + " workers " +
                     std::to_string(workers));
        DrainedRun run =
            DrainSampled(catalog, shape.make(), workers, batch_size);
        if (workers == 1) {
          expected = ExpectedChainRun(
              table, run.order, batch_size,
              [filtered](const Row& row) {
                return !filtered || row[1].AsInt64() >= 1;
              },
              shape.columns);
          // The run ends inside the stream, not at its start or end.
          ASSERT_GT(expected.prefix_rows, 0u);
          ASSERT_LT(expected.prefix_rows, 20000u);
        }
        EXPECT_EQ(run.order.block_order, expected.order.block_order);
        EXPECT_EQ(run.prefix_rows, expected.prefix_rows);
        EXPECT_TRUE(run.batches == expected.batches)
            << "batch sizes or random runs differ";
        EXPECT_TRUE(run.rows == expected.rows)
            << "emitted row sequence differs";
      }
    }
  }
}

/// Observers hear a scan's getnext calls as the scan advances, however
/// selective the filter above it. The filter passes only the table's last
/// row, so the driving operator emits one batch in the whole run: every
/// tick the scan banks must still reach the observers within about one
/// window of units, and the observers' total must be the run's getnext
/// total.
TEST(ParallelTickDelivery, SelectiveFilterDeliversBankedTicksPerUnit) {
  const uint64_t rows = 100 * OrderedMerge::UnitTarget(1024) + 17;
  Catalog catalog;
  TableBuilder b("t");
  b.AddColumn("id", std::make_unique<SequentialSpec>(0));
  ASSERT_TRUE(catalog.Register(b.Build(rows, 3)).ok());
  ASSERT_TRUE(catalog.Analyze("t").ok());
  for (size_t workers : {size_t{1}, size_t{2}, size_t{4}}) {
    for (size_t batch_size : {size_t{7}, size_t{1024}}) {
      SCOPED_TRACE("workers " + std::to_string(workers) + " batch " +
                   std::to_string(batch_size));
      ExecContext ctx;
      ctx.catalog = &catalog;
      ctx.exec_workers = workers;
      ctx.batch_size = batch_size;
      PlanNodePtr plan = FilterPlan(
          ScanPlan("t"), MakeCompare("id", CompareOp::kGe,
                                     Value(static_cast<int64_t>(rows - 1))));
      OperatorPtr root;
      ASSERT_TRUE(CompilePlan(plan.get(), &ctx, &root).ok());
      uint64_t delivered = 0;
      uint64_t largest = 0;
      FunctionTickObserver observer([&](uint64_t n) {
        delivered += n;
        largest = std::max(largest, n);
      });
      ctx.AddTickObserver(&observer);
      std::vector<Row> out;
      ASSERT_TRUE(QueryExecutor::Run(root.get(), &ctx, &out).ok());
      ctx.RemoveTickObserver(&observer);
      ASSERT_EQ(out.size(), 1u);
      uint64_t getnext = 0;
      root->Visit([&](Operator* op) { getnext += op->tuples_emitted(); });
      EXPECT_EQ(getnext, rows + 1);
      EXPECT_EQ(delivered, getnext);
      EXPECT_LE(largest,
                (2 * workers + 3) * OrderedMerge::UnitTarget(batch_size) * 2);
    }
  }
}

/// Shapes whose estimators read the counters of a fused scan chain below
/// them between batches: an aggregate, a sort, the merge join and the
/// three nested-loops modes over filtered scans, and filter chains whose
/// lower stages a fused scan captures. f spans several morsels at every
/// batch size; s is a small inner side.
void BuildAttributionCatalog(Catalog* catalog) {
  TableBuilder f("f");
  f.AddColumn("k", std::make_unique<ZipfSpec>(0.75, 200, 77))
      .AddColumn("v", std::make_unique<UniformIntSpec>(1, 50));
  ASSERT_TRUE(catalog->Register(f.Build(17000, 5)).ok());
  ASSERT_TRUE(catalog->Analyze("f").ok());
  TableBuilder s("s");
  s.AddColumn("k", std::make_unique<ZipfSpec>(0.0, 60, 3))
      .AddColumn("v", std::make_unique<UniformIntSpec>(1, 50));
  ASSERT_TRUE(catalog->Register(s.Build(300, 6)).ok());
  ASSERT_TRUE(catalog->Analyze("s").ok());
}

PlanNodePtr FilteredScan(const char* table, CompareOp op, int64_t v) {
  return FilterPlan(ScanPlan(table), MakeCompare("v", op, Value(v)));
}

const Shape kAttributionShapes[] = {
    {"group_by_over_filter",
     [] {
       return HashAggregatePlan(
           FilteredScan("f", CompareOp::kLe, 30), {"k"},
           {AggregateSpec{AggregateSpec::Kind::kCountStar, ""}});
     }},
    {"group_by_over_filter_project",
     [] {
       return HashAggregatePlan(
           ProjectPlan(FilteredScan("f", CompareOp::kLe, 30), {"k", "v"}),
           {"k"}, {AggregateSpec{AggregateSpec::Kind::kSum, "v"}});
     }},
    {"sort_over_filter",
     [] { return SortPlan(FilteredScan("f", CompareOp::kGe, 20), {"k", "v"}); }},
    {"merge_join_over_filters",
     [] {
       return MergeJoinPlan(FilteredScan("s", CompareOp::kLe, 40),
                            FilteredScan("f", CompareOp::kLe, 25), "s.k",
                            "f.k");
     }},
    {"rescan_nl_over_filters",
     [] {
       return NestedLoopsJoinPlan(FilteredScan("f", CompareOp::kLe, 10),
                                  FilteredScan("s", CompareOp::kLe, 25), "f.k",
                                  "s.k");
     }},
    {"theta_nl_over_filters",
     [] {
       return ThetaNestedLoopsJoinPlan(FilteredScan("f", CompareOp::kLe, 5),
                                       FilteredScan("s", CompareOp::kLe, 25),
                                       "f.k", "s.k", CompareOp::kLt);
     }},
    {"index_nl_over_filters",
     [] {
       return IndexNestedLoopsJoinPlan(FilteredScan("f", CompareOp::kLe, 25),
                                       FilteredScan("s", CompareOp::kLe, 40),
                                       "f.k", "s.k");
     }},
    {"filter_filter",
     [] {
       return FilterPlan(FilteredScan("f", CompareOp::kLe, 40),
                         MakeCompare("k", CompareOp::kLe, Value(int64_t{20})));
     }},
    {"filter_project_filter",
     [] {
       return FilterPlan(
           ProjectPlan(FilteredScan("f", CompareOp::kLe, 40), {"k", "v"}),
           MakeCompare("k", CompareOp::kLe, Value(int64_t{20})));
     }},
};

/// Everything the progress layer can read of one run.
struct AttributionRun {
  std::vector<std::string> rows;  ///< emitted order
  std::vector<OpObservation> ops;
  std::vector<OnceObservation> once;
  /// Per aggregate: the group estimator's Estimate() and MLE recomputes.
  std::vector<std::pair<double, uint64_t>> groups;
  /// Per observer call: n, then each operator's emitted count, state and
  /// estimate bits.
  std::vector<std::vector<uint64_t>> ticks;
  std::vector<EstimationMode> selected;  ///< the ensemble's, per operator
};

AttributionRun RunAttribution(const Catalog& catalog, const Shape& shape,
                              size_t workers, size_t batch_size) {
  ExecContext ctx;
  ctx.catalog = const_cast<Catalog*>(&catalog);
  ctx.mode = EstimationMode::kOnce;
  ctx.batch_size = batch_size;
  ctx.exec_workers = workers;
  PlanNodePtr plan = shape.make();
  OperatorPtr root;
  AttributionRun out;
  Status s = CompilePlan(plan.get(), &ctx, &root);
  EXPECT_TRUE(s.ok()) << s.ToString();
  if (!s.ok()) return out;
  std::vector<Operator*> ops;
  root->Visit([&](Operator* op) { ops.push_back(op); });
  GnmAccountant accountant(root.get());
  EstimatorEnsemble ensemble(&accountant, &ctx, nullptr);
  FunctionTickObserver observer([&](uint64_t n) {
    std::vector<uint64_t> tick = {n};
    for (const Operator* op : ops) {
      tick.push_back(op->tuples_emitted());
      tick.push_back(static_cast<uint64_t>(op->state()));
      tick.push_back(std::bit_cast<uint64_t>(op->CurrentCardinalityEstimate()));
    }
    out.ticks.push_back(std::move(tick));
    ensemble.Observe(out.ticks.size());
  });
  ctx.AddTickObserver(&observer);
  std::vector<Row> rows;
  EXPECT_TRUE(QueryExecutor::Run(root.get(), &ctx, &rows).ok());
  ctx.RemoveTickObserver(&observer);
  for (const Row& row : rows) out.rows.push_back(RowToString(row));
  for (const Operator* op : ops) {
    out.ops.push_back(
        {op->label(), op->tuples_emitted(), op->CurrentCardinalityEstimate()});
    out.selected.push_back(ensemble.SelectedFor(op));
    if (auto* j = dynamic_cast<const MergeJoinOp*>(op)) {
      out.once.push_back(ObserveOnce(j->once_estimator()));
    }
    if (auto* j = dynamic_cast<const NestedLoopsJoinOp*>(op)) {
      out.once.push_back(ObserveOnce(j->once_estimator()));
      out.once.push_back(ObserveOnce(j->theta_estimator()));
    }
    if (auto* agg = dynamic_cast<const AggregateBaseOp*>(op)) {
      const AdaptiveGroupEstimator* est = agg->group_estimator();
      EXPECT_NE(est, nullptr);
      if (est != nullptr) {
        out.groups.emplace_back(est->Estimate(), est->mle_recompute_count());
      }
    }
  }
  return out;
}

/// Every estimator input crosses the ordered merge in unit order: the
/// counts, states and ticks of a fused scan chain are attributed where
/// the merge delivers its rows, so at any worker count every observer
/// call, every estimate it reads and every final estimator state is that
/// of the one-worker run.
TEST(ParallelAttribution, EveryWorkerCountSeesTheOneWorkerRun) {
  Catalog catalog;
  BuildAttributionCatalog(&catalog);
  for (const Shape& shape : kAttributionShapes) {
    for (size_t batch_size : {size_t{1}, size_t{7}, size_t{1024}}) {
      const AttributionRun reference =
          RunAttribution(catalog, shape, 1, batch_size);
      ASSERT_FALSE(reference.rows.empty()) << shape.name;
      for (size_t workers : {size_t{2}, size_t{4}, size_t{8}}) {
        SCOPED_TRACE(std::string(shape.name) + " batch " +
                     std::to_string(batch_size) + " workers " +
                     std::to_string(workers));
        const AttributionRun run =
            RunAttribution(catalog, shape, workers, batch_size);
        EXPECT_TRUE(run.rows == reference.rows) << "row stream differs";
        ASSERT_EQ(run.ops.size(), reference.ops.size());
        for (size_t i = 0; i < reference.ops.size(); ++i) {
          EXPECT_EQ(run.ops[i].emitted, reference.ops[i].emitted)
              << reference.ops[i].label;
          EXPECT_EQ(run.ops[i].estimate, reference.ops[i].estimate)
              << reference.ops[i].label;
          EXPECT_EQ(run.selected[i], reference.selected[i])
              << reference.ops[i].label;
        }
        ASSERT_EQ(run.once.size(), reference.once.size());
        for (size_t i = 0; i < reference.once.size(); ++i) {
          EXPECT_EQ(run.once[i].probe_seen, reference.once[i].probe_seen);
          EXPECT_EQ(run.once[i].estimate, reference.once[i].estimate);
          EXPECT_EQ(run.once[i].frozen, reference.once[i].frozen);
          EXPECT_EQ(run.once[i].exact, reference.once[i].exact);
        }
        EXPECT_EQ(run.groups, reference.groups);
        EXPECT_EQ(run.ticks.size(), reference.ticks.size())
            << "observer calls";
        const size_t common = std::min(run.ticks.size(), reference.ticks.size());
        size_t first_diff = 0;
        while (first_diff < common &&
               run.ticks[first_diff] == reference.ticks[first_diff]) {
          ++first_diff;
        }
        EXPECT_EQ(first_diff, common) << "observer call " << first_diff
                                      << " of " << common << " differs";
      }
    }
  }
}

/// hash_join_partitions is normalized to the next power of two at Open;
/// 0 is rejected with InvalidArgument.
TEST(PartitionNormalization, RoundsUpToPowerOfTwo) {
  Catalog catalog;
  BuildCatalog(&catalog, 9);
  const struct {
    size_t requested;
    size_t expected;
  } kCases[] = {{1, 1}, {2, 2}, {3, 4}, {16, 16}, {257, 512}};
  for (const auto& c : kCases) {
    ExecContext ctx;
    ctx.catalog = &catalog;
    ctx.hash_join_partitions = c.requested;
    PlanNodePtr plan =
        HashJoinPlan(ScanPlan("r1"), ScanPlan("r2"), "r1.k", "r2.k");
    OperatorPtr root;
    ASSERT_TRUE(CompilePlan(plan.get(), &ctx, &root).ok());
    ASSERT_TRUE(root->Open(&ctx).ok());
    auto* join = dynamic_cast<GraceHashJoinOp*>(root.get());
    ASSERT_NE(join, nullptr);
    EXPECT_EQ(join->num_partitions(), c.expected)
        << "requested " << c.requested;
    root->Close();
  }
  ExecContext ctx;
  ctx.catalog = &catalog;
  ctx.hash_join_partitions = 0;
  PlanNodePtr plan =
      HashJoinPlan(ScanPlan("r1"), ScanPlan("r2"), "r1.k", "r2.k");
  OperatorPtr root;
  ASSERT_TRUE(CompilePlan(plan.get(), &ctx, &root).ok());
  EXPECT_FALSE(root->Open(&ctx).ok());
  root->Close();
}

/// batch_size == 0 is rejected by ExecContext::Validate() before any
/// operator opens — a zero batch size reads as instant end-of-stream
/// (silently empty results). Both executors check.
TEST(ExecContextValidation, ZeroBatchSizeRejected) {
  Catalog catalog;
  BuildCatalog(&catalog, 13);
  ExecContext ctx;
  ctx.catalog = &catalog;
  ctx.batch_size = 0;
  PlanNodePtr plan =
      HashJoinPlan(ScanPlan("r1"), ScanPlan("r2"), "r1.k", "r2.k");
  OperatorPtr root;
  ASSERT_TRUE(CompilePlan(plan.get(), &ctx, &root).ok());
  Status s = QueryExecutor::Run(root.get(), &ctx, nullptr, nullptr);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), Status::Code::kInvalidArgument);
}

/// exec_workers gets the same guard rails as batch_size: 0 workers cannot
/// run anything and an absurd count (beyond kMaxExecWorkers) is a config
/// error, both rejected by Validate() before any task is scheduled.
TEST(ExecContextValidation, WorkerCountBoundsRejected) {
  Catalog catalog;
  BuildCatalog(&catalog, 19);
  for (const size_t workers : {size_t{0}, ExecContext::kMaxExecWorkers + 1}) {
    ExecContext ctx;
    ctx.catalog = &catalog;
    ctx.exec_workers = workers;
    PlanNodePtr plan = ScanPlan("r1");
    OperatorPtr root;
    ASSERT_TRUE(CompilePlan(plan.get(), &ctx, &root).ok());
    Status s = QueryExecutor::Run(root.get(), &ctx, nullptr, nullptr);
    EXPECT_FALSE(s.ok()) << "exec_workers " << workers;
    EXPECT_EQ(s.code(), Status::Code::kInvalidArgument);
  }
  ExecContext ok_ctx;
  ok_ctx.exec_workers = ExecContext::kMaxExecWorkers;
  ok_ctx.catalog = &catalog;
  EXPECT_TRUE(ok_ctx.Validate().ok());
}

/// A query attached to an external shared fleet (the server / multi-query
/// path) must produce exactly the same observable run as one that lazily
/// owns its scheduler — same rows in the same order, same counters.
TEST(SharedFleet, AttachedSchedulerMatchesOwned) {
  Catalog catalog;
  BuildCatalog(&catalog, 23);
  const Shape shape{"hash_join", [] {
                      return HashJoinPlan(ScanPlan("r1"), ScanPlan("r2"),
                                          "r1.k", "r2.k");
                    }};
  RunResult reference = RunQuery(catalog, shape, EstimationMode::kOnce, 1);

  TaskScheduler fleet(4);
  for (size_t workers : {size_t{2}, size_t{4}, size_t{8}}) {
    SCOPED_TRACE("workers " + std::to_string(workers));
    ExecContext ctx;
    ctx.catalog = &catalog;
    ctx.mode = EstimationMode::kOnce;
    ctx.sample_fraction = 0.1;
    ctx.batch_size = 256;
    ctx.exec_workers = workers;
    ctx.hash_join_partitions = 16;
    ctx.AttachScheduler(&fleet, /*tag=*/workers);
    PlanNodePtr plan = shape.make();
    OperatorPtr root;
    ASSERT_TRUE(CompilePlan(plan.get(), &ctx, &root).ok());
    std::vector<Row> rows;
    uint64_t rows_emitted = 0;
    ASSERT_TRUE(
        QueryExecutor::Run(root.get(), &ctx, &rows, &rows_emitted).ok());
    ctx.AttachScheduler(nullptr, 0);
    std::vector<std::string> canonical;
    canonical.reserve(rows.size());
    for (const Row& row : rows) canonical.push_back(RowToString(row));
    std::sort(canonical.begin(), canonical.end());
    EXPECT_EQ(rows_emitted, reference.rows_emitted);
    EXPECT_EQ(canonical, reference.rows);
  }
  EXPECT_GT(fleet.tasks_executed(TaskLane::kSubtask), 0u);
}

/// The concurrent executor rejects an invalid context at Add — before the
/// entry can reach a pool worker.
TEST(ExecContextValidation, ConcurrentAddRejectsZeroBatchSize) {
  Catalog catalog;
  BuildCatalog(&catalog, 17);
  ConcurrentMultiQueryExecutor mq;
  auto ctx = std::make_unique<ExecContext>();
  ctx->catalog = &catalog;
  ctx->batch_size = 0;
  PlanNodePtr plan = ScanPlan("r1");
  OperatorPtr root;
  ASSERT_TRUE(CompilePlan(plan.get(), ctx.get(), &root).ok());
  Status s = mq.Add("bad", std::move(root), std::move(ctx));
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), Status::Code::kInvalidArgument);
  EXPECT_EQ(mq.num_queries(), 0u);
}

/// Cancelling mid-drive under parallel execution must drain cleanly: the
/// drive loop ends, Close() joins every worker task, and no emitted row is
/// lost from the counters that were already published.
TEST(ParallelCancellation, DrainsCleanly) {
  Catalog catalog;
  BuildCatalog(&catalog, 11);
  ExecContext ctx;
  ctx.catalog = &catalog;
  ctx.mode = EstimationMode::kOnce;
  ctx.sample_fraction = 0.1;
  ctx.batch_size = 64;
  ctx.exec_workers = 4;
  ctx.hash_join_partitions = 16;
  PlanNodePtr plan =
      HashJoinPlan(ScanPlan("r1"), ScanPlan("r2"), "r1.k", "r2.k");
  OperatorPtr root;
  ASSERT_TRUE(CompilePlan(plan.get(), &ctx, &root).ok());
  ASSERT_TRUE(root->Open(&ctx).ok());
  ctx.BeginExecution();
  RowBatch batch(ctx.batch_size);
  size_t batches = 0;
  uint64_t delivered = 0;
  while (root->NextBatch(&batch)) {
    delivered += batch.size();
    if (++batches == 2) ctx.RequestCancel();
  }
  root->Close();
  ctx.EndExecution();
  EXPECT_GE(batches, 2u);
  // Rows are counted where the merge delivers them, never by the workers
  // that ran ahead: the counter is exactly what was delivered.
  EXPECT_GE(root->tuples_emitted(), delivered);
  EXPECT_EQ(root->tuples_emitted(), delivered);
  EXPECT_EQ(root->state(), OpState::kFinished);
}

/// One hot join key. hb holds 4 build rows of key 1 plus 200 distinct
/// keys; hp holds 6000 probe rows of key 1 (matched), 5000 of key 2
/// (absent from hb) and 400 spread keys, shuffled. Whatever partition a hot
/// key lands in emits many times OrderedMerge::kReadyCap ×
/// batch_size rows for every flavor — inner/probe-outer/semi through key
/// 1, anti/probe-outer through key 2 — so the parallel join cuts that
/// partition into many probe-row units. Joining the other way round
/// (`hot_build`: hp as the build side) gives each key-1 probe row a bucket
/// of 6000 build rows, more than kReadyCap × batch_size for every
/// tested batch size, which no probe-row range can cut: its runner stalls
/// at the ready cap, is requeued by the merge and resumes on recycled
/// batches over and over. The string column exercises in-place refills of
/// string Values. lb/lp hold the same keys as hb/hp with every string
/// longer than Value::kInlineCapacity, so output rows share heap string
/// blocks that fleet threads copy and drop.
void BuildHotKeyCatalog(Catalog* catalog) {
  auto make = [&](const char* name, std::vector<int64_t> keys,
                  const char* infix) {
    Schema schema({Column{name, "k", ValueType::kInt64},
                   Column{name, "s", ValueType::kString}});
    auto t = std::make_shared<Table>(name, schema);
    for (size_t i = 0; i < keys.size(); ++i) {
      std::string s = std::string(name) + infix + std::to_string(i);
      ASSERT_TRUE(t->Append({Value(keys[i]), Value(std::move(s))}).ok());
    }
    ASSERT_TRUE(catalog->Register(t).ok());
    ASSERT_TRUE(catalog->Analyze(name).ok());
  };
  Pcg32 rng(29);
  std::vector<int64_t> build(4, 1);
  for (int64_t k = 10; k < 210; ++k) build.push_back(k);
  std::vector<int64_t> probe(6000, 1);
  probe.insert(probe.end(), 5000, 2);
  for (int64_t k = 0; k < 400; ++k) probe.push_back(10 + 2 * k);
  for (size_t i = probe.size() - 1; i > 0; --i) {
    std::swap(probe[i], probe[rng.NextBounded(static_cast<uint32_t>(i + 1))]);
  }
  make("hb", build, "-");
  make("hp", probe, "-");
  make("lb", build, "-a-long-string-payload-");
  make("lp", probe, "-a-long-string-payload-");
  // Sparse builds: sb holds two of hp's spread keys, ab every key of hp
  // but four spread ones, so a semi join with sb and an anti join with ab
  // each emit a handful of rows and most join units emit nothing.
  make("sb", {10, 12}, "-");
  std::vector<int64_t> most = {1, 2};
  for (int64_t k = 0; k < 400; ++k) {
    if (k % 100 != 0) most.push_back(10 + 2 * k);
  }
  make("ab", most, "-");
}

const Shape kHotKeyShapes[] = {
    {"inner",
     [] { return HashJoinPlan(ScanPlan("hb"), ScanPlan("hp"), "hb.k", "hp.k"); }},
    {"probe_outer",
     [] {
       return FlavoredHashJoinPlan(ScanPlan("hb"), ScanPlan("hp"), "hb.k",
                                   "hp.k", JoinFlavor::kProbeOuter);
     }},
    {"semi",
     [] {
       return FlavoredHashJoinPlan(ScanPlan("hb"), ScanPlan("hp"), "hb.k",
                                   "hp.k", JoinFlavor::kSemi);
     }},
    {"anti",
     [] {
       return FlavoredHashJoinPlan(ScanPlan("hb"), ScanPlan("hp"), "hb.k",
                                   "hp.k", JoinFlavor::kAnti);
     }},
    {"long_strings_hot_build",
     [] { return HashJoinPlan(ScanPlan("lp"), ScanPlan("lb"), "lp.k", "lb.k"); }},
    {"hot_build",
     [] { return HashJoinPlan(ScanPlan("hp"), ScanPlan("hb"), "hp.k", "hb.k"); }},
};

/// Everything a consumer sees of one join's output, batch by batch.
struct JoinDrain {
  std::vector<std::pair<size_t, uint64_t>> batches;  ///< (size, random_run)
  std::vector<std::string> rows;                     ///< emitted order
  size_t units = 0;  ///< join units, read after the first batch
};

JoinDrain DrainJoin(const Catalog& catalog, const Shape& shape,
                    size_t workers, size_t batch_size) {
  ExecContext ctx;
  ctx.catalog = const_cast<Catalog*>(&catalog);
  ctx.mode = EstimationMode::kOnce;
  ctx.sample_fraction = 0.1;
  ctx.batch_size = batch_size;
  ctx.exec_workers = workers;
  ctx.hash_join_partitions = 4;
  PlanNodePtr plan = shape.make();
  OperatorPtr root;
  JoinDrain out;
  EXPECT_TRUE(CompilePlan(plan.get(), &ctx, &root).ok());
  auto* join = dynamic_cast<GraceHashJoinOp*>(root.get());
  EXPECT_NE(join, nullptr);
  if (join == nullptr) return out;
  EXPECT_TRUE(root->Open(&ctx).ok());
  ctx.BeginExecution();
  RowBatch batch(batch_size);
  while (root->NextBatch(&batch)) {
    if (out.batches.empty()) out.units = join->num_join_units();
    out.batches.emplace_back(batch.size(), batch.random_run());
    for (size_t i = 0; i < batch.size(); ++i) {
      out.rows.push_back(RowToString(batch.row(i)));
    }
  }
  root->Close();
  ctx.EndExecution();
  return out;
}

const Shape kSparseShapes[] = {
    {"sparse_semi",
     [] {
       return FlavoredHashJoinPlan(ScanPlan("sb"), ScanPlan("hp"), "sb.k",
                                   "hp.k", JoinFlavor::kSemi);
     }},
    {"sparse_anti",
     [] {
       return FlavoredHashJoinPlan(ScanPlan("ab"), ScanPlan("hp"), "ab.k",
                                   "hp.k", JoinFlavor::kAnti);
     }},
};

/// The hand-off contract of the parallel join phase: the merge hands each
/// join unit's batches to the consumer whole, so with a fleet a batch may
/// end short at the end of a unit, but never empty before the end of the
/// stream, never with a random run (join output is clustered by
/// partition), at most once per unit, and the ordered row stream is the
/// one-worker stream. At one worker the inline runner fills every batch
/// but the last across unit ends.
TEST(ParallelJoinHandOff, UnitBatchesKeepTheOneWorkerStream) {
  Catalog catalog;
  BuildHotKeyCatalog(&catalog);
  std::vector<Shape> shapes(std::begin(kHotKeyShapes), std::end(kHotKeyShapes));
  shapes.insert(shapes.end(), std::begin(kSparseShapes),
                std::end(kSparseShapes));
  for (const Shape& shape : shapes) {
    for (size_t batch_size : {size_t{1}, size_t{7}, size_t{1024}}) {
      SCOPED_TRACE(std::string(shape.name) + " batch " +
                   std::to_string(batch_size));
      const JoinDrain reference = DrainJoin(catalog, shape, 1, batch_size);
      ASSERT_FALSE(reference.rows.empty());
      for (size_t i = 0; i + 1 < reference.batches.size(); ++i) {
        ASSERT_EQ(reference.batches[i].first, batch_size) << "batch " << i;
      }
      for (size_t workers : {size_t{2}, size_t{4}}) {
        SCOPED_TRACE("workers " + std::to_string(workers));
        const JoinDrain parallel =
            DrainJoin(catalog, shape, workers, batch_size);
        EXPECT_TRUE(parallel.rows == reference.rows)
            << "emitted row sequence differs";
        EXPECT_GT(parallel.units, 0u);
        size_t short_batches = 0;
        for (const auto& [size, random_run] : parallel.batches) {
          EXPECT_GT(size, 0u);
          EXPECT_EQ(random_run, 0u);
          short_batches += size < batch_size;
        }
        EXPECT_LE(short_batches, parallel.units);
      }
    }
  }
}

/// Join units the join cut, read after its first output batch (the count
/// is gone once the join closes).
size_t JoinUnitsAtFirstBatch(const Catalog& catalog, const Shape& shape,
                             size_t workers, size_t batch_size,
                             size_t partitions) {
  ExecContext ctx;
  ctx.catalog = const_cast<Catalog*>(&catalog);
  ctx.mode = EstimationMode::kOnce;
  ctx.sample_fraction = 0.1;
  ctx.batch_size = batch_size;
  ctx.exec_workers = workers;
  ctx.hash_join_partitions = partitions;
  PlanNodePtr plan = shape.make();
  OperatorPtr root;
  EXPECT_TRUE(CompilePlan(plan.get(), &ctx, &root).ok());
  auto* join = dynamic_cast<GraceHashJoinOp*>(root.get());
  EXPECT_NE(join, nullptr);
  if (join == nullptr) return 0;
  EXPECT_TRUE(root->Open(&ctx).ok());
  ctx.BeginExecution();
  RowBatch batch(ctx.batch_size);
  EXPECT_TRUE(root->NextBatch(&batch));
  size_t units = join->num_join_units();
  root->Close();
  ctx.EndExecution();
  return units;
}

/// At one worker the grace join runs the same join units inline, on the
/// driving thread: it cuts units as the fleet does, yet submits no task
/// to the scheduler it is given.
TEST(InlineJoinRunner, OneWorkerRunsUnitsWithoutTasks) {
  Catalog catalog;
  BuildHotKeyCatalog(&catalog);
  for (const Shape& shape : kHotKeyShapes) {
    SCOPED_TRACE(shape.name);
    EXPECT_GT(JoinUnitsAtFirstBatch(catalog, shape, /*workers=*/1,
                                    /*batch_size=*/64, /*partitions=*/4),
              0u);
    TaskScheduler fleet(2);
    ExecContext ctx;
    ctx.catalog = &catalog;
    ctx.sample_fraction = 0.1;
    ctx.batch_size = 64;
    ctx.hash_join_partitions = 4;
    ctx.AttachScheduler(&fleet, /*tag=*/1);
    PlanNodePtr plan = shape.make();
    OperatorPtr root;
    ASSERT_TRUE(CompilePlan(plan.get(), &ctx, &root).ok());
    uint64_t rows_emitted = 0;
    ASSERT_TRUE(
        QueryExecutor::Run(root.get(), &ctx, nullptr, &rows_emitted).ok());
    ctx.AttachScheduler(nullptr, 0);
    EXPECT_EQ(rows_emitted,
              RunQuery(catalog, shape, EstimationMode::kOnce, 4, 64, 4)
                  .rows_emitted);
    EXPECT_EQ(fleet.tasks_executed(TaskLane::kQuery), 0u);
    EXPECT_EQ(fleet.tasks_executed(TaskLane::kSubtask), 0u);
  }
}

/// Stall/resume with recycled batches, over partitions cut into many
/// probe-row units (with one partition, every unit shares its table): the
/// merged stream must be the sequential one row for row — same order,
/// counters and estimates.
TEST(ParallelJoinHotKey, StallResumeKeepsOrderedStream) {
  Catalog catalog;
  BuildHotKeyCatalog(&catalog);
  for (const Shape& shape : kHotKeyShapes) {
    for (size_t partitions : {size_t{4}, size_t{1}}) {
      for (size_t batch_size : {size_t{1}, size_t{7}, size_t{64}}) {
        RunResult reference =
            RunQuery(catalog, shape, EstimationMode::kOnce, 1, batch_size,
                     partitions, /*ordered=*/true);
        ASSERT_GE(reference.rows_emitted, 4 * 16 * batch_size) << shape.name;
        for (size_t workers : {size_t{2}, size_t{4}, size_t{8}}) {
          SCOPED_TRACE(std::string(shape.name) + " partitions " +
                       std::to_string(partitions) + " batch " +
                       std::to_string(batch_size) + " workers " +
                       std::to_string(workers));
          // The hot partition must really be split.
          EXPECT_GT(JoinUnitsAtFirstBatch(catalog, shape, workers, batch_size,
                                          partitions),
                    partitions);
          RunResult parallel =
              RunQuery(catalog, shape, EstimationMode::kOnce, workers,
                       batch_size, partitions, /*ordered=*/true);
          EXPECT_EQ(parallel.rows_emitted, reference.rows_emitted);
          EXPECT_TRUE(parallel.rows == reference.rows)
              << "emitted row sequence differs";
          ASSERT_EQ(parallel.ops.size(), reference.ops.size());
          for (size_t i = 0; i < reference.ops.size(); ++i) {
            EXPECT_EQ(parallel.ops[i].emitted, reference.ops[i].emitted)
                << "operator " << reference.ops[i].label;
            EXPECT_EQ(parallel.ops[i].estimate, reference.ops[i].estimate)
                << "operator " << reference.ops[i].label;
          }
          ASSERT_EQ(parallel.once.size(), reference.once.size());
          for (size_t i = 0; i < reference.once.size(); ++i) {
            EXPECT_EQ(parallel.once[i].probe_seen,
                      reference.once[i].probe_seen);
            EXPECT_EQ(parallel.once[i].estimate, reference.once[i].estimate);
            EXPECT_EQ(parallel.once[i].frozen, reference.once[i].frozen);
            EXPECT_EQ(parallel.once[i].exact, reference.once[i].exact);
          }
        }
      }
    }
  }
}

/// Cancel while the hot partition sits stalled at the ready cap with
/// batches in flight: the drain must end, Close() must reclaim every
/// queued, partial and pooled batch, and the counters stay consistent.
TEST(ParallelJoinHotKey, CancelWhileStalledDrainsCleanly) {
  Catalog catalog;
  BuildHotKeyCatalog(&catalog);
  for (const Shape& shape : kHotKeyShapes) {
    SCOPED_TRACE(shape.name);
    ExecContext ctx;
    ctx.catalog = &catalog;
    ctx.mode = EstimationMode::kOnce;
    ctx.sample_fraction = 0.1;
    ctx.batch_size = 7;
    ctx.exec_workers = 4;
    ctx.hash_join_partitions = 4;
    PlanNodePtr plan = shape.make();
    OperatorPtr root;
    ASSERT_TRUE(CompilePlan(plan.get(), &ctx, &root).ok());
    ASSERT_TRUE(root->Open(&ctx).ok());
    ctx.BeginExecution();
    RowBatch batch(ctx.batch_size);
    ASSERT_TRUE(root->NextBatch(&batch));
    uint64_t delivered = batch.size();
    // With the consumer idle, every runner produces until it is done or
    // stalled at the cap; wait until the emitted count stops moving.
    uint64_t last = root->tuples_emitted();
    for (int quiet = 0, polls = 0; quiet < 20 && polls < 5000; ++polls) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      uint64_t now = root->tuples_emitted();
      quiet = now == last ? quiet + 1 : 0;
      last = now;
    }
    ctx.RequestCancel();
    while (root->NextBatch(&batch)) delivered += batch.size();
    root->Close();
    ctx.EndExecution();
    uint64_t full = RunQuery(catalog, shape, EstimationMode::kOnce, 1, 7,
                             /*partitions=*/4)
                        .rows_emitted;
    // The stalled runner stopped well short of the full output.
    EXPECT_LT(root->tuples_emitted(), full);
    EXPECT_GE(root->tuples_emitted(), delivered);
    EXPECT_EQ(root->state(), OpState::kFinished);
  }
}

/// Cancel right after the first batch of a join whose hot probe rows each
/// match 6000 build rows: the kernel checks for cancellation once per
/// output batch, so a runner inside a hot bucket stops after the batch it
/// is filling instead of running the bucket on. Growth after the cancel is
/// bounded by one batch per thread that can run a unit (the fleet plus the
/// helping driver), well inside the in-flight bound of
/// join window × OrderedMerge::kReadyCap batches.
TEST(ParallelJoinHotKey, CancelStopsHotBucketWithinABatch) {
  Catalog catalog;
  BuildHotKeyCatalog(&catalog);
  const Shape& shape = kHotKeyShapes[std::size(kHotKeyShapes) - 1];
  ASSERT_EQ(std::string(shape.name), "hot_build");
  const size_t workers = 4;
  const size_t batch_size = 64;
  ExecContext ctx;
  ctx.catalog = &catalog;
  ctx.mode = EstimationMode::kOnce;
  ctx.sample_fraction = 0.1;
  ctx.batch_size = batch_size;
  ctx.exec_workers = workers;
  ctx.hash_join_partitions = 4;
  PlanNodePtr plan = shape.make();
  OperatorPtr root;
  ASSERT_TRUE(CompilePlan(plan.get(), &ctx, &root).ok());
  ASSERT_TRUE(root->Open(&ctx).ok());
  ctx.BeginExecution();
  RowBatch batch(ctx.batch_size);
  ASSERT_TRUE(root->NextBatch(&batch));
  ctx.RequestCancel();
  const uint64_t at_cancel = root->tuples_emitted();
  while (root->NextBatch(&batch)) {
  }
  root->Close();
  ctx.EndExecution();
  const uint64_t growth = root->tuples_emitted() - at_cancel;
  const size_t join_window = 2 * workers + 2;
  EXPECT_LE(growth,
            join_window * OrderedMerge::kReadyCap * batch_size);
  EXPECT_LE(growth, (workers + 1) * batch_size);
  EXPECT_EQ(root->state(), OpState::kFinished);
}

}  // namespace
}  // namespace qpi
