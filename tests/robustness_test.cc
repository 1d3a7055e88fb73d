// Failure injection and edge cases: every anticipated error must surface
// as a Status (never a crash), and the engine must behave sanely on empty
// inputs, NULL keys, single-row tables and degenerate configurations.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "datagen/table_builder.h"
#include "exec/compiler.h"
#include "exec/executor.h"
#include "progress/monitor.h"
#include "stats/hash_histogram.h"
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

TablePtr SmallTable(const std::string& name, std::vector<int64_t> keys) {
  Schema schema({Column{name, "k", ValueType::kInt64}});
  auto t = std::make_shared<Table>(name, schema);
  for (int64_t k : keys) EXPECT_TRUE(t->Append({Value(k)}).ok());
  return t;
}

TEST(Robustness, CompileUnknownTableFails) {
  Fixture fx;
  PlanNodePtr plan = ScanPlan("ghost");
  OperatorPtr root;
  Status s = CompilePlan(plan.get(), &fx.ctx, &root);
  EXPECT_EQ(s.code(), Status::Code::kNotFound);
}

TEST(Robustness, CompileUnknownJoinColumnFails) {
  Fixture fx;
  fx.Add(SmallTable("a", {1}));
  fx.Add(SmallTable("b", {1}));
  PlanNodePtr plan = HashJoinPlan(ScanPlan("a"), ScanPlan("b"), "a.zzz", "b.k");
  OperatorPtr root;
  EXPECT_EQ(CompilePlan(plan.get(), &fx.ctx, &root).code(),
            Status::Code::kNotFound);
}

TEST(Robustness, CompileUnknownFilterColumnFails) {
  Fixture fx;
  fx.Add(SmallTable("a", {1}));
  PlanNodePtr plan = FilterPlan(
      ScanPlan("a"), MakeCompare("nope", CompareOp::kEq, Value(int64_t{1})));
  OperatorPtr root;
  EXPECT_EQ(CompilePlan(plan.get(), &fx.ctx, &root).code(),
            Status::Code::kNotFound);
}

TEST(Robustness, CompileUnknownGroupColumnFails) {
  Fixture fx;
  fx.Add(SmallTable("a", {1}));
  PlanNodePtr plan = HashAggregatePlan(
      ScanPlan("a"), {"missing"},
      {AggregateSpec{AggregateSpec::Kind::kCountStar, ""}});
  OperatorPtr root;
  EXPECT_EQ(CompilePlan(plan.get(), &fx.ctx, &root).code(),
            Status::Code::kNotFound);
}

TEST(Robustness, CompileWithoutCatalogFails) {
  ExecContext ctx;  // no catalog
  PlanNodePtr plan = ScanPlan("x");
  OperatorPtr root;
  EXPECT_EQ(CompilePlan(plan.get(), &ctx, &root).code(),
            Status::Code::kInvalidArgument);
}

TEST(Robustness, EmptyTableThroughEveryOperatorKind) {
  Fixture fx;
  fx.Add(SmallTable("e", {}));
  fx.Add(SmallTable("f", {}));
  std::vector<PlanNodePtr> plans;
  plans.push_back(FilterPlan(
      ScanPlan("e"), MakeCompare("k", CompareOp::kGt, Value(int64_t{0}))));
  plans.push_back(SortPlan(ScanPlan("e"), {"k"}));
  plans.push_back(HashJoinPlan(ScanPlan("e"), ScanPlan("f"), "e.k", "f.k"));
  plans.push_back(MergeJoinPlan(ScanPlan("e"), ScanPlan("f"), "e.k", "f.k"));
  plans.push_back(
      NestedLoopsJoinPlan(ScanPlan("e"), ScanPlan("f"), "e.k", "f.k"));
  plans.push_back(IndexNestedLoopsJoinPlan(ScanPlan("e"), ScanPlan("f"),
                                           "e.k", "f.k"));
  plans.push_back(
      HashAggregatePlan(ScanPlan("e"), {"k"},
                        {AggregateSpec{AggregateSpec::Kind::kCountStar, ""}}));
  plans.push_back(
      SortAggregatePlan(ScanPlan("e"), {"k"},
                        {AggregateSpec{AggregateSpec::Kind::kCountStar, ""}}));
  for (PlanNodePtr& plan : plans) {
    OperatorPtr root;
    ASSERT_TRUE(CompilePlan(plan.get(), &fx.ctx, &root).ok());
    uint64_t rows = 1;
    ASSERT_TRUE(QueryExecutor::Run(root.get(), &fx.ctx, nullptr, &rows).ok());
    EXPECT_EQ(rows, 0u) << plan->ToString();
  }
}

/// A table (k, k2, id) whose key columns hold NULLs: k is NULL in every
/// `k_null`-th row, k2 in every `k2_null`-th. The last row's k is the
/// integer equal to a NULL's key code, so a join statistic that counted
/// NULL keys, or looked a NULL key up by its code, would miscount.
TablePtr NullableKeys(const std::string& name, int64_t rows, int64_t k_mod,
                      int64_t k_null, int64_t k2_null) {
  Schema schema({Column{name, "k", ValueType::kInt64},
                 Column{name, "k2", ValueType::kInt64},
                 Column{name, "id", ValueType::kInt64}});
  auto t = std::make_shared<Table>(name, schema);
  for (int64_t i = 0; i < rows; ++i) {
    Value k = i % k_null == 0 ? Value::Null() : Value(i % k_mod);
    Value k2 = i % k2_null == 0 ? Value::Null() : Value(i % 3);
    EXPECT_TRUE(t->Append({k, k2, Value(i)}).ok());
  }
  const Value null_code(
      static_cast<int64_t>(HistogramKeyCode(Value::Null())));
  EXPECT_TRUE(t->Append({null_code, Value(int64_t{1}), Value(rows)}).ok());
  return t;
}

/// SQL comparison of two join keys: false whenever either is NULL.
bool SqlHolds(CompareOp op, const Value& a, const Value& b) {
  return !a.is_null() && !b.is_null() && CompareOpHolds(op, a.Compare(b));
}

/// Rows rendered as text and sorted, so outputs compare as multisets.
std::vector<std::string> Canonical(const std::vector<Row>& rows) {
  std::vector<std::string> out;
  for (const Row& r : rows) {
    std::string line;
    for (const Value& v : r) line += v.ToString() + "|";
    out.push_back(line);
  }
  std::sort(out.begin(), out.end());
  return out;
}

Row Concat(const Row& a, const Row& b) {
  Row r = a;
  r.insert(r.end(), b.begin(), b.end());
  return r;
}

/// The NULL-aware oracle of `left` ⋈ `right` (left columns first): a pair
/// joins iff `match` holds, which is false for any NULL key component.
/// Non-inner flavors follow the hash join's probe side (`right`).
template <typename Match>
std::vector<Row> JoinOracle(const Table& left, const Table& right,
                            JoinFlavor flavor, Match match) {
  std::vector<Row> out;
  const Row null_left(left.schema().num_columns(), Value::Null());
  for (uint64_t ri = 0; ri < right.num_rows(); ++ri) {
    const Row& r = right.RowAt(ri);
    bool any = false;
    for (uint64_t li = 0; li < left.num_rows(); ++li) {
      const Row& l = left.RowAt(li);
      if (!match(l, r)) continue;
      any = true;
      if (flavor == JoinFlavor::kInner || flavor == JoinFlavor::kProbeOuter) {
        out.push_back(Concat(l, r));
      }
    }
    if (flavor == JoinFlavor::kSemi && any) out.push_back(r);
    if (flavor == JoinFlavor::kAnti && !any) out.push_back(r);
    if (flavor == JoinFlavor::kProbeOuter && !any) {
      out.push_back(Concat(null_left, r));
    }
  }
  return out;
}

/// At every tick, remembers the estimate of each join that calls its
/// cardinality exact while still running.
class ExactnessProbe : public TickObserver {
 public:
  explicit ExactnessProbe(const Operator* root) { Collect(root); }

  void OnTick(uint64_t) override {
    for (Seen& s : joins_) {
      if (s.op->state() == OpState::kRunning && s.op->CardinalityExact()) {
        s.exact_estimates.push_back(s.op->CurrentCardinalityEstimate());
      }
    }
  }

  struct Seen {
    const Operator* op;
    std::vector<double> exact_estimates;
  };
  const std::vector<Seen>& joins() const { return joins_; }

 private:
  void Collect(const Operator* op) {
    if (op->num_children() == 2) joins_.push_back({op, {}});
    for (size_t i = 0; i < op->num_children(); ++i) Collect(op->child(i));
  }
  std::vector<Seen> joins_;
};

TEST(Robustness, NullKeysGroupTogetherButJoinNothing) {
  // GROUP BY puts the NULLs in one group (Compare calls them equal).
  {
    Fixture fx;
    Schema schema({Column{"n", "k", ValueType::kInt64}});
    auto t = std::make_shared<Table>("n", schema);
    ASSERT_TRUE(t->Append({Value::Null()}).ok());
    ASSERT_TRUE(t->Append({Value::Null()}).ok());
    ASSERT_TRUE(t->Append({Value(int64_t{1})}).ok());
    fx.Add(t);

    PlanNodePtr plan = HashAggregatePlan(
        ScanPlan("n"), {"k"},
        {AggregateSpec{AggregateSpec::Kind::kCountStar, ""}});
    OperatorPtr root;
    ASSERT_TRUE(CompilePlan(plan.get(), &fx.ctx, &root).ok());
    std::vector<Row> rows;
    ASSERT_TRUE(QueryExecutor::Run(root.get(), &fx.ctx, &rows, nullptr).ok());
    EXPECT_EQ(rows.size(), 2u);  // the two NULLs form one group
  }

  // Joins follow SQL: a NULL key matches no key, not even another NULL,
  // in every join kind and flavor; anti and probe-outer joins emit
  // NULL-key probe rows as non-matches. In a composite key a NULL in any
  // component makes the key NULL. ONCE counts no NULL build key and a
  // NULL probe key as one without matches, so an exact estimate is the
  // output size.
  Catalog catalog;
  TablePtr b = NullableKeys("b", 180, 7, 5, 4);
  TablePtr p = NullableKeys("p", 240, 9, 4, 6);
  TablePtr c = NullableKeys("c", 30, 3, 6, 5);
  for (const TablePtr& t : {b, p, c}) {
    ASSERT_TRUE(catalog.Register(t).ok());
    ASSERT_TRUE(catalog.Analyze(t->name()).ok());
  }
  auto on = [](size_t col, CompareOp op = CompareOp::kEq) {
    return [col, op](const Row& l, const Row& r) {
      return SqlHolds(op, l[col], r[col]);
    };
  };

  struct Case {
    std::string name;
    std::function<PlanNodePtr()> plan;
    std::vector<Row> oracle;
  };
  std::vector<Case> cases;
  for (JoinFlavor flavor : {JoinFlavor::kInner, JoinFlavor::kSemi,
                            JoinFlavor::kAnti, JoinFlavor::kProbeOuter}) {
    cases.push_back(
        {std::string("hash_") + JoinFlavorName(flavor),
         [flavor] {
           return FlavoredHashJoinPlan(ScanPlan("b"), ScanPlan("p"), "b.k",
                                       "p.k", flavor);
         },
         JoinOracle(*b, *p, flavor, on(0))});
  }
  auto both_keys = [](const Row& l, const Row& r) {
    return SqlHolds(CompareOp::kEq, l[0], r[0]) &&
           SqlHolds(CompareOp::kEq, l[1], r[1]);
  };
  cases.push_back({"hash_composite",
                   [] {
                     return MultiKeyHashJoinPlan(ScanPlan("b"), ScanPlan("p"),
                                                 {"b.k", "b.k2"},
                                                 {"p.k", "p.k2"});
                   },
                   JoinOracle(*b, *p, JoinFlavor::kInner, both_keys)});
  cases.push_back({"merge",
                   [] {
                     return MergeJoinPlan(ScanPlan("b"), ScanPlan("p"), "b.k",
                                          "p.k");
                   },
                   JoinOracle(*b, *p, JoinFlavor::kInner, on(0))});
  cases.push_back({"nl_rescan",
                   [] {
                     return NestedLoopsJoinPlan(ScanPlan("b"), ScanPlan("p"),
                                                "b.k", "p.k");
                   },
                   JoinOracle(*b, *p, JoinFlavor::kInner, on(0))});
  // NULLs sort first, so kLt and kGt each see them from one side.
  for (CompareOp op : {CompareOp::kLt, CompareOp::kGt}) {
    cases.push_back({std::string("nl_theta") + CompareOpName(op),
                     [op] {
                       return ThetaNestedLoopsJoinPlan(
                           ScanPlan("b"), ScanPlan("p"), "b.k", "p.k", op);
                     },
                     JoinOracle(*b, *p, JoinFlavor::kInner, on(0, op))});
  }
  cases.push_back({"nl_index",
                   [] {
                     return IndexNestedLoopsJoinPlan(ScanPlan("b"),
                                                     ScanPlan("p"), "b.k",
                                                     "p.k");
                   },
                   JoinOracle(*b, *p, JoinFlavor::kInner, on(0))});
  // A two-join pipeline: push-down estimation through the chain.
  std::vector<Row> lower = JoinOracle(*b, *p, JoinFlavor::kInner, on(0));
  std::vector<Row> chain;
  for (uint64_t ci = 0; ci < c->num_rows(); ++ci) {
    for (const Row& bp : lower) {
      // c.k = p.k2; p's columns start at 3 in b ⧺ p.
      if (SqlHolds(CompareOp::kEq, c->RowAt(ci)[0], bp[4])) {
        chain.push_back(Concat(c->RowAt(ci), bp));
      }
    }
  }
  cases.push_back({"hash_pipeline",
                   [] {
                     return HashJoinPlan(
                         ScanPlan("c"),
                         HashJoinPlan(ScanPlan("b"), ScanPlan("p"), "b.k",
                                      "p.k"),
                         "c.k", "p.k2");
                   },
                   chain});

  for (const Case& cs : cases) {
    ASSERT_FALSE(cs.oracle.empty()) << cs.name;
    for (EstimationMode mode : {EstimationMode::kOnce, EstimationMode::kNone}) {
      for (size_t workers : {size_t{1}, size_t{4}}) {
        SCOPED_TRACE(cs.name + " mode " + EstimationModeName(mode) +
                     " workers " + std::to_string(workers));
        ExecContext ctx;
        ctx.catalog = &catalog;
        ctx.mode = mode;
        ctx.exec_workers = workers;
        ctx.batch_size = 7;
        PlanNodePtr plan = cs.plan();
        OperatorPtr root;
        ASSERT_TRUE(CompilePlan(plan.get(), &ctx, &root).ok());
        ExactnessProbe probe(root.get());
        ctx.AddTickObserver(&probe);
        std::vector<Row> rows;
        ASSERT_TRUE(QueryExecutor::Run(root.get(), &ctx, &rows, nullptr).ok());
        ctx.RemoveTickObserver(&probe);
        EXPECT_EQ(Canonical(rows), Canonical(cs.oracle));
        bool saw_exact = false;
        for (const ExactnessProbe::Seen& join : probe.joins()) {
          for (double estimate : join.exact_estimates) {
            EXPECT_EQ(estimate,
                      static_cast<double>(join.op->tuples_emitted()))
                << join.op->label();
          }
          saw_exact |= !join.exact_estimates.empty();
        }
        // The grace and merge joins finish their ONCE pass before their
        // first output row, so the exact estimate is visible while they
        // emit.
        if (mode == EstimationMode::kOnce &&
            (cs.name.rfind("hash", 0) == 0 || cs.name == "merge")) {
          EXPECT_TRUE(saw_exact);
        }
      }
    }
  }
}

TEST(Robustness, SingleRowTablesJoinCorrectly) {
  Fixture fx;
  fx.Add(SmallTable("a", {7}));
  fx.Add(SmallTable("b", {7}));
  PlanNodePtr plan = HashJoinPlan(ScanPlan("a"), ScanPlan("b"), "a.k", "b.k");
  OperatorPtr root;
  ASSERT_TRUE(CompilePlan(plan.get(), &fx.ctx, &root).ok());
  uint64_t rows = 0;
  ASSERT_TRUE(QueryExecutor::Run(root.get(), &fx.ctx, nullptr, &rows).ok());
  EXPECT_EQ(rows, 1u);
}

TEST(Robustness, SampleFractionOneStillEmitsEverything) {
  Fixture fx;
  std::vector<int64_t> keys;
  for (int64_t i = 0; i < 3000; ++i) keys.push_back(i);
  fx.Add(SmallTable("t", keys));
  fx.ctx.sample_fraction = 1.0;
  PlanNodePtr plan = ScanPlan("t");
  OperatorPtr root;
  ASSERT_TRUE(CompilePlan(plan.get(), &fx.ctx, &root).ok());
  uint64_t rows = 0;
  ASSERT_TRUE(QueryExecutor::Run(root.get(), &fx.ctx, nullptr, &rows).ok());
  EXPECT_EQ(rows, 3000u);
}

TEST(Robustness, OnePartitionHashJoinStillCorrect) {
  Fixture fx;
  fx.Add(SmallTable("a", {1, 2, 2, 3}));
  fx.Add(SmallTable("b", {2, 3, 4}));
  fx.ctx.hash_join_partitions = 1;
  PlanNodePtr plan = HashJoinPlan(ScanPlan("a"), ScanPlan("b"), "a.k", "b.k");
  OperatorPtr root;
  ASSERT_TRUE(CompilePlan(plan.get(), &fx.ctx, &root).ok());
  uint64_t rows = 0;
  ASSERT_TRUE(QueryExecutor::Run(root.get(), &fx.ctx, nullptr, &rows).ok());
  EXPECT_EQ(rows, 3u);  // (2,2) x2 + (3,3)
}

TEST(Robustness, MonitorOnEmptyQueryReportsCompletion) {
  Fixture fx;
  fx.Add(SmallTable("e", {}));
  PlanNodePtr plan = ScanPlan("e");
  OperatorPtr root;
  ASSERT_TRUE(CompilePlan(plan.get(), &fx.ctx, &root).ok());
  ProgressMonitor monitor(root.get(), 10);
  monitor.InstallOn(&fx.ctx);
  ASSERT_TRUE(QueryExecutor::Run(root.get(), &fx.ctx, nullptr, nullptr).ok());
  monitor.Finalize();
  // Zero work done and zero estimated: progress renders as 0 but the ratio
  // machinery must not divide by zero.
  EXPECT_EQ(monitor.TrueTotalCalls(), 0.0);
  EXPECT_GE(monitor.snapshots().back().EstimatedProgress(), 0.0);
}

TEST(Robustness, RerunAfterCloseViaFreshCompile) {
  Fixture fx;
  fx.Add(SmallTable("a", {1, 2, 3}));
  for (int run = 0; run < 3; ++run) {
    PlanNodePtr plan = SortPlan(ScanPlan("a"), {"k"});
    OperatorPtr root;
    ASSERT_TRUE(CompilePlan(plan.get(), &fx.ctx, &root).ok());
    uint64_t rows = 0;
    ASSERT_TRUE(QueryExecutor::Run(root.get(), &fx.ctx, nullptr, &rows).ok());
    EXPECT_EQ(rows, 3u);
  }
}

TEST(Robustness, ProjectDropsJoinColumnUsedAbove) {
  // Projecting away the join key below a join must fail cleanly at compile.
  Fixture fx;
  fx.Add(SmallTable("a", {1}));
  fx.Add(SmallTable("b", {1}));
  PlanNodePtr plan = HashJoinPlan(
      ProjectPlan(ScanPlan("a"), {}), ScanPlan("b"), "a.k", "b.k");
  OperatorPtr root;
  EXPECT_EQ(CompilePlan(plan.get(), &fx.ctx, &root).code(),
            Status::Code::kNotFound);
}

}  // namespace
}  // namespace qpi
