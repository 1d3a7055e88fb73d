// Semi / anti / probe-outer hash joins (the paper's Section 4.1.1
// extension): operator correctness vs set-based and nested-loops oracles
// (sequential and partition-parallel join phase), the value check behind
// colliding key codes, schema shapes, ONCE estimation exactness per
// flavour, and optimizer sanity. CodeCollision also runs the index
// nested-loops join, whose index proposes matches by key code as well.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>

#include "datagen/table_builder.h"
#include "exec/compiler.h"
#include "exec/executor.h"
#include "exec/grace_hash_join.h"
#include "plan/optimizer.h"
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

TablePtr MakeKeyed(const std::string& name, std::vector<int64_t> keys) {
  Schema schema({Column{name, "k", ValueType::kInt64},
                 Column{name, "id", ValueType::kInt64}});
  auto t = std::make_shared<Table>(name, schema);
  int64_t id = 0;
  for (int64_t k : keys) {
    EXPECT_TRUE(t->Append({Value(k), Value(id++)}).ok());
  }
  return t;
}

TablePtr MakeSkewed(const std::string& name, uint64_t rows, double z,
                    uint32_t domain, uint64_t peak, uint64_t seed) {
  TableBuilder b(name);
  b.AddColumn("k", std::make_unique<ZipfSpec>(z, domain, peak))
      .AddColumn("id", std::make_unique<SequentialSpec>(0));
  return b.Build(rows, seed);
}

TEST(JoinFlavor, SemiEmitsMatchingProbeRowsOnce) {
  Fixture fx;
  fx.Add(MakeKeyed("b", {1, 1, 1, 2}));  // duplicates must not multiply
  fx.Add(MakeKeyed("p", {1, 2, 3, 1}));
  std::vector<Row> rows = fx.Run(FlavoredHashJoinPlan(
      ScanPlan("b"), ScanPlan("p"), "b.k", "p.k", JoinFlavor::kSemi));
  // Probe rows with k in {1,2}: keys 1,2,1 → 3 rows, probe schema (2 cols).
  ASSERT_EQ(rows.size(), 3u);
  for (const Row& r : rows) {
    ASSERT_EQ(r.size(), 2u);
    EXPECT_NE(r[0].AsInt64(), 3);
  }
}

TEST(JoinFlavor, AntiEmitsNonMatchingProbeRows) {
  Fixture fx;
  fx.Add(MakeKeyed("b", {1, 2}));
  fx.Add(MakeKeyed("p", {1, 2, 3, 4, 4}));
  std::vector<Row> rows = fx.Run(FlavoredHashJoinPlan(
      ScanPlan("b"), ScanPlan("p"), "b.k", "p.k", JoinFlavor::kAnti));
  ASSERT_EQ(rows.size(), 3u);
  for (const Row& r : rows) EXPECT_GE(r[0].AsInt64(), 3);
}

TEST(JoinFlavor, ProbeOuterPadsWithNulls) {
  Fixture fx;
  fx.Add(MakeKeyed("b", {1, 1}));
  fx.Add(MakeKeyed("p", {1, 9}));
  std::vector<Row> rows = fx.Run(FlavoredHashJoinPlan(
      ScanPlan("b"), ScanPlan("p"), "b.k", "p.k", JoinFlavor::kProbeOuter));
  // Probe row k=1 matches twice; probe row k=9 emitted once NULL-padded.
  ASSERT_EQ(rows.size(), 3u);
  int null_padded = 0;
  for (const Row& r : rows) {
    ASSERT_EQ(r.size(), 4u);
    if (r[0].is_null()) {
      ++null_padded;
      EXPECT_TRUE(r[1].is_null());
      EXPECT_EQ(r[2].AsInt64(), 9);
    }
  }
  EXPECT_EQ(null_padded, 1);
}

/// (flavor, Zipf skew, exec_workers, batch_size): the sequential and the
/// partition-parallel join phase, at a batch size that splits buckets
/// across batches and at the default.
class FlavorSweep
    : public ::testing::TestWithParam<
          std::tuple<JoinFlavor, double, size_t, size_t>> {};

/// (build id, probe id) of one output row; semi and anti rows, and
/// probe-outer misses, carry no build id.
using IdPair = std::pair<std::optional<int64_t>, int64_t>;

TEST_P(FlavorSweep, MatchesOracleAndEstimatesExactly) {
  auto [flavor, z, workers, batch_size] = GetParam();
  Fixture fx;
  fx.ctx.exec_workers = workers;
  fx.ctx.batch_size = batch_size;
  TablePtr build = MakeSkewed("b", 1200, z, 60, 1, 5);
  TablePtr probe = MakeSkewed("p", 1500, z, 60, 2, 6);
  fx.Add(build);
  fx.Add(probe);

  // Oracle counts.
  std::map<int64_t, uint64_t> build_counts;
  for (uint64_t i = 0; i < build->num_rows(); ++i) {
    ++build_counts[build->RowAt(i)[0].AsInt64()];
  }
  uint64_t expected = 0;
  for (uint64_t i = 0; i < probe->num_rows(); ++i) {
    auto it = build_counts.find(probe->RowAt(i)[0].AsInt64());
    uint64_t matches = it == build_counts.end() ? 0 : it->second;
    switch (flavor) {
      case JoinFlavor::kInner:
        expected += matches;
        break;
      case JoinFlavor::kSemi:
        expected += matches > 0 ? 1 : 0;
        break;
      case JoinFlavor::kAnti:
        expected += matches == 0 ? 1 : 0;
        break;
      case JoinFlavor::kProbeOuter:
        expected += std::max<uint64_t>(matches, 1);
        break;
    }
  }

  // Nested-loops oracle of the emitted rows, independent of the hash
  // join's partitioning and probe kernel.
  bool probe_only = flavor == JoinFlavor::kSemi || flavor == JoinFlavor::kAnti;
  std::vector<IdPair> oracle;
  for (uint64_t pi = 0; pi < probe->num_rows(); ++pi) {
    const Row& p = probe->RowAt(pi);
    bool any = false;
    for (uint64_t bi = 0; bi < build->num_rows(); ++bi) {
      const Row& b = build->RowAt(bi);
      if (b[0].AsInt64() != p[0].AsInt64()) continue;
      any = true;
      if (!probe_only) oracle.emplace_back(b[1].AsInt64(), p[1].AsInt64());
    }
    bool emit_alone = flavor == JoinFlavor::kSemi ? any : !any;
    if (flavor != JoinFlavor::kInner && emit_alone) {
      oracle.emplace_back(std::nullopt, p[1].AsInt64());
    }
  }
  std::sort(oracle.begin(), oracle.end());

  OperatorPtr root;
  std::vector<Row> rows = fx.Run(
      FlavoredHashJoinPlan(ScanPlan("b"), ScanPlan("p"), "b.k", "p.k", flavor),
      &root);
  EXPECT_EQ(rows.size(), expected);

  std::vector<IdPair> emitted;
  for (const Row& r : rows) {
    ASSERT_EQ(r.size(), probe_only ? 2u : 4u);
    if (probe_only) {
      emitted.emplace_back(std::nullopt, r[1].AsInt64());
    } else if (r[1].is_null()) {
      emitted.emplace_back(std::nullopt, r[3].AsInt64());
    } else {
      emitted.emplace_back(r[1].AsInt64(), r[3].AsInt64());
    }
  }
  std::sort(emitted.begin(), emitted.end());
  EXPECT_EQ(emitted, oracle);

  auto* join = dynamic_cast<GraceHashJoinOp*>(root.get());
  ASSERT_NE(join, nullptr);
  ASSERT_NE(join->once_estimator(), nullptr);
  EXPECT_TRUE(join->once_estimator()->Exact());
  EXPECT_DOUBLE_EQ(join->once_estimator()->Estimate(),
                   static_cast<double>(expected));
}

INSTANTIATE_TEST_SUITE_P(
    Flavors, FlavorSweep,
    ::testing::Combine(::testing::Values(JoinFlavor::kInner, JoinFlavor::kSemi,
                                         JoinFlavor::kAnti,
                                         JoinFlavor::kProbeOuter),
                       ::testing::Values(0.0, 1.0, 2.0),
                       ::testing::Values(size_t{1}, size_t{4}),
                       ::testing::Values(size_t{7}, size_t{1024})));

/// Join-key equality: a string never equals a number.
bool SameKey(const Value& a, const Value& b) {
  return (a.type() == ValueType::kString) ==
             (b.type() == ValueType::kString) &&
         a.Compare(b) == 0;
}

/// Nested-loops oracle of the rows `flavor` emits for build ⋈ probe on
/// column 0 of each (column 1 is the id), independent of the hash join's
/// partitioning and probe kernel. Sorted.
std::vector<IdPair> NestedLoopsOracle(const Table& build, const Table& probe,
                                      JoinFlavor flavor) {
  bool probe_only = flavor == JoinFlavor::kSemi || flavor == JoinFlavor::kAnti;
  std::vector<IdPair> oracle;
  for (uint64_t pi = 0; pi < probe.num_rows(); ++pi) {
    const Row& p = probe.RowAt(pi);
    bool any = false;
    for (uint64_t bi = 0; bi < build.num_rows(); ++bi) {
      const Row& b = build.RowAt(bi);
      if (!SameKey(b[0], p[0])) continue;
      any = true;
      if (!probe_only) oracle.emplace_back(b[1].AsInt64(), p[1].AsInt64());
    }
    bool emit_alone = flavor == JoinFlavor::kSemi ? any : !any;
    if (flavor != JoinFlavor::kInner && emit_alone) {
      oracle.emplace_back(std::nullopt, p[1].AsInt64());
    }
  }
  std::sort(oracle.begin(), oracle.end());
  return oracle;
}

/// The IdPairs of a join's output rows, sorted.
std::vector<IdPair> EmittedIds(const std::vector<Row>& rows, JoinFlavor flavor) {
  bool probe_only = flavor == JoinFlavor::kSemi || flavor == JoinFlavor::kAnti;
  std::vector<IdPair> emitted;
  for (const Row& r : rows) {
    EXPECT_EQ(r.size(), probe_only ? 2u : 4u);
    if (r.size() != (probe_only ? 2u : 4u)) continue;
    if (probe_only) {
      emitted.emplace_back(std::nullopt, r[1].AsInt64());
    } else if (r[1].is_null()) {
      emitted.emplace_back(std::nullopt, r[3].AsInt64());
    } else {
      emitted.emplace_back(r[1].AsInt64(), r[3].AsInt64());
    }
  }
  std::sort(emitted.begin(), emitted.end());
  return emitted;
}

/// (flavor, exec_workers, batch_size, hash_join_partitions).
class CodeCollision : public ::testing::TestWithParam<
                          std::tuple<JoinFlavor, size_t, size_t, size_t>> {};

/// A table (k, id) whose key column mixes strings and integers. It is
/// registered without statistics: Analyze orders a column's values, and
/// strings and numbers have no common order.
TablePtr MakeMixed(const std::string& name, const std::vector<Value>& keys) {
  Schema schema({Column{name, "k", ValueType::kInt64},
                 Column{name, "id", ValueType::kInt64}});
  auto t = std::make_shared<Table>(name, schema);
  int64_t id = 0;
  for (const Value& k : keys) {
    EXPECT_TRUE(t->Append({k, Value(id++)}).ok());
  }
  return t;
}

TEST_P(CodeCollision, ValueCheckRejectsCollidingCodes) {
  auto [flavor, workers, batch_size, partitions] = GetParam();
  // An integer's key code is the integer itself, so the integer equal to a
  // string's code lands in that string's partition and bucket with the
  // same code. Each side holds, for every j, the string s_j and the
  // integer c_j = code(s_j) crosswise; true matches are the small integers
  // and the strings repeated on both sides. Every fourth string is longer
  // than Value::kInlineCapacity.
  std::vector<Value> build_keys;
  std::vector<Value> probe_keys;
  for (int j = 0; j < 48; ++j) {
    std::string text = (j % 4 == 0 ? "a-longer-join-key-" : "key-") +
                       std::to_string(j);
    Value str{std::string_view(text)};
    Value code(static_cast<int64_t>(HistogramKeyCode(str)));
    ASSERT_EQ(HistogramKeyCode(code), HistogramKeyCode(str));
    build_keys.push_back(j % 2 == 0 ? str : code);
    probe_keys.push_back(j % 2 == 0 ? code : str);
    if (j % 3 == 0) probe_keys.push_back(str);  // matches for even j
    if (j % 4 == 0) build_keys.push_back(str);  // a duplicate build key
    build_keys.push_back(Value(int64_t{j % 10}));
    if (j % 5 != 0) probe_keys.push_back(Value(int64_t{j}));
  }
  TablePtr build = MakeMixed("b", build_keys);
  TablePtr probe = MakeMixed("p", probe_keys);

  // The codes collide far more often than the values match.
  uint64_t code_pairs = 0;
  uint64_t value_pairs = 0;
  for (const Value& b : build_keys) {
    for (const Value& p : probe_keys) {
      code_pairs += HistogramKeyCode(b) == HistogramKeyCode(p);
      value_pairs += SameKey(b, p);
    }
  }
  ASSERT_GT(value_pairs, 0u);
  ASSERT_GT(code_pairs, value_pairs + 40);

  Fixture fx;
  fx.ctx.exec_workers = workers;
  fx.ctx.batch_size = batch_size;
  fx.ctx.hash_join_partitions = partitions;
  ASSERT_TRUE(fx.catalog.Register(build).ok());
  ASSERT_TRUE(fx.catalog.Register(probe).ok());
  // ONCE counts by code, so it is not exact here by design; only the rows
  // are checked.
  std::vector<Row> rows = fx.Run(
      FlavoredHashJoinPlan(ScanPlan("b"), ScanPlan("p"), "b.k", "p.k", flavor));
  EXPECT_EQ(EmittedIds(rows, flavor),
            NestedLoopsOracle(*build, *probe, flavor));
  // The index nested-loops join looks its matches up by key code too.
  // With the build table as its outer input it emits the same build ⧺
  // probe rows (it has the inner flavor only).
  if (flavor == JoinFlavor::kInner) {
    std::vector<Row> nl_rows = fx.Run(IndexNestedLoopsJoinPlan(
        ScanPlan("b"), ScanPlan("p"), "b.k", "p.k"));
    EXPECT_EQ(EmittedIds(nl_rows, flavor),
              NestedLoopsOracle(*build, *probe, flavor));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Flavors, CodeCollision,
    ::testing::Combine(::testing::Values(JoinFlavor::kInner, JoinFlavor::kSemi,
                                         JoinFlavor::kAnti,
                                         JoinFlavor::kProbeOuter),
                       ::testing::Values(size_t{1}, size_t{4}),
                       ::testing::Values(size_t{1}, size_t{1024}),
                       ::testing::Values(size_t{1}, size_t{64})));

/// (plan kind, exec_workers, estimation mode).
class IntDoubleKeys
    : public ::testing::TestWithParam<
          std::tuple<PlanKind, size_t, EstimationMode>> {};

/// An INT64 key equals the integral DOUBLE key of the same value, so every
/// join kind must match them. The hash join and the index nested-loops
/// join find candidates by key code, so the two must share one. The double
/// side also holds fractions and values outside int64_t's range, which
/// match nothing, and 2^53, which int 2^53 matches and int 2^53 + 1 does
/// not, although it rounds to 2^53 as a double: Compare is exact, so the
/// merge and rescan joins must drop that pair as the code lookups do.
TEST_P(IntDoubleKeys, EveryJoinKindMatchesEqualNumbers) {
  auto [kind, workers, mode] = GetParam();
  auto make = [](const std::string& name, ValueType type,
                 const std::vector<Value>& keys) {
    auto t = std::make_shared<Table>(
        name, Schema({Column{name, "k", type},
                      Column{name, "id", ValueType::kInt64}}));
    int64_t id = 0;
    for (const Value& k : keys) {
      EXPECT_TRUE(t->Append({k, Value(id++)}).ok());
    }
    return t;
  };
  TablePtr a = make("a", ValueType::kInt64,
                    {Value(int64_t{1}), Value(int64_t{2}), Value(int64_t{3}),
                     Value(int64_t{-7}), Value(int64_t{0}),
                     Value(int64_t{1} << 40), Value(int64_t{3}),
                     Value((int64_t{1} << 53) + 1), Value(int64_t{1} << 53)});
  TablePtr b = make("b", ValueType::kDouble,
                    {Value(1.0), Value(2.5), Value(3.0), Value(-7.0),
                     Value(-0.0), Value(0x1p40), Value(1e19), Value(-1e19),
                     Value(0.5), Value(0x1p53)});
  const std::vector<IdPair> oracle =
      NestedLoopsOracle(*a, *b, JoinFlavor::kInner);
  ASSERT_EQ(oracle.size(), 7u);

  Fixture fx;
  fx.ctx.exec_workers = workers;
  fx.ctx.mode = mode;
  fx.ctx.batch_size = 2;
  fx.Add(a);
  fx.Add(b);
  PlanNodePtr plan;
  switch (kind) {
    case PlanKind::kHashJoin:
      plan = HashJoinPlan(ScanPlan("a"), ScanPlan("b"), "a.k", "b.k");
      break;
    case PlanKind::kMergeJoin:
      plan = MergeJoinPlan(ScanPlan("a"), ScanPlan("b"), "a.k", "b.k");
      break;
    case PlanKind::kNestedLoopsJoin:
      plan = NestedLoopsJoinPlan(ScanPlan("a"), ScanPlan("b"), "a.k", "b.k");
      break;
    default:
      plan = IndexNestedLoopsJoinPlan(ScanPlan("a"), ScanPlan("b"), "a.k",
                                      "b.k");
      break;
  }
  EXPECT_EQ(EmittedIds(fx.Run(std::move(plan)), JoinFlavor::kInner), oracle);
}

INSTANTIATE_TEST_SUITE_P(
    JoinKinds, IntDoubleKeys,
    ::testing::Combine(::testing::Values(PlanKind::kHashJoin,
                                         PlanKind::kMergeJoin,
                                         PlanKind::kNestedLoopsJoin,
                                         PlanKind::kIndexNestedLoopsJoin),
                       ::testing::Values(size_t{1}, size_t{4}),
                       ::testing::Values(EstimationMode::kNone,
                                         EstimationMode::kOnce)),
    [](const auto& info) {
      return std::string(PlanKindName(std::get<0>(info.param))) + "_w" +
             std::to_string(std::get<1>(info.param)) + "_" +
             EstimationModeName(std::get<2>(info.param));
    });

/// (plan kind, exec_workers, estimation mode).
class StringIntKeys
    : public ::testing::TestWithParam<
          std::tuple<PlanKind, size_t, EstimationMode>> {};

/// A string key never equals a number: not the empty string against 0,
/// not "5" against 5, and not a string against the integer equal to its
/// key code, which the hash join and the index nested-loops join look up
/// as a candidate. Every join kind returns no rows.
TEST_P(StringIntKeys, EveryJoinKindMatchesNothing) {
  auto [kind, workers, mode] = GetParam();
  const std::vector<std::string> texts = {"", "0", "5", "7",
                                          "a-longer-join-key-than-inline"};
  auto s = std::make_shared<Table>(
      "s", Schema({Column{"s", "k", ValueType::kString},
                   Column{"s", "id", ValueType::kInt64}}));
  auto n = std::make_shared<Table>(
      "n", Schema({Column{"n", "k", ValueType::kInt64},
                   Column{"n", "id", ValueType::kInt64}}));
  int64_t id = 0;
  for (const std::string& text : texts) {
    Value str{std::string_view(text)};
    ASSERT_TRUE(s->Append({str, Value(id)}).ok());
    ASSERT_TRUE(
        n->Append({Value(static_cast<int64_t>(HistogramKeyCode(str))),
                   Value(id)})
            .ok());
    ++id;
  }
  for (int64_t k : {0, 5, 7}) {
    ASSERT_TRUE(n->Append({Value(k), Value(id++)}).ok());
  }

  Fixture fx;
  fx.ctx.exec_workers = workers;
  fx.ctx.mode = mode;
  fx.ctx.batch_size = 2;
  fx.Add(s);
  fx.Add(n);
  for (bool string_outer : {true, false}) {
    SCOPED_TRACE(string_outer ? "string side first" : "int side first");
    const std::string l = string_outer ? "s" : "n";
    const std::string r = string_outer ? "n" : "s";
    const std::string lk = l + ".k";
    const std::string rk = r + ".k";
    PlanNodePtr plan;
    switch (kind) {
      case PlanKind::kHashJoin:
        plan = HashJoinPlan(ScanPlan(l), ScanPlan(r), lk, rk);
        break;
      case PlanKind::kMergeJoin:
        plan = MergeJoinPlan(ScanPlan(l), ScanPlan(r), lk, rk);
        break;
      case PlanKind::kNestedLoopsJoin:
        plan = NestedLoopsJoinPlan(ScanPlan(l), ScanPlan(r), lk, rk);
        break;
      default:
        plan = IndexNestedLoopsJoinPlan(ScanPlan(l), ScanPlan(r), lk, rk);
        break;
    }
    EXPECT_TRUE(fx.Run(std::move(plan)).empty());
  }
}

INSTANTIATE_TEST_SUITE_P(
    JoinKinds, StringIntKeys,
    ::testing::Combine(::testing::Values(PlanKind::kHashJoin,
                                         PlanKind::kMergeJoin,
                                         PlanKind::kNestedLoopsJoin,
                                         PlanKind::kIndexNestedLoopsJoin),
                       ::testing::Values(size_t{1}, size_t{4}),
                       ::testing::Values(EstimationMode::kNone,
                                         EstimationMode::kOnce)),
    [](const auto& info) {
      return std::string(PlanKindName(std::get<0>(info.param))) + "_w" +
             std::to_string(std::get<1>(info.param)) + "_" +
             EstimationModeName(std::get<2>(info.param));
    });

TEST(JoinFlavor, SemiAndOuterOptimizerEstimatesAreConsistent) {
  Fixture fx;
  fx.Add(MakeSkewed("b", 1000, 0.0, 100, 1, 7));
  fx.Add(MakeSkewed("p", 2000, 0.0, 100, 2, 8));
  OptimizerEstimator opt(&fx.catalog);

  PlanNodePtr inner =
      HashJoinPlan(ScanPlan("b"), ScanPlan("p"), "b.k", "p.k");
  PlanNodePtr semi = FlavoredHashJoinPlan(ScanPlan("b"), ScanPlan("p"), "b.k",
                                          "p.k", JoinFlavor::kSemi);
  PlanNodePtr anti = FlavoredHashJoinPlan(ScanPlan("b"), ScanPlan("p"), "b.k",
                                          "p.k", JoinFlavor::kAnti);
  PlanNodePtr outer = FlavoredHashJoinPlan(ScanPlan("b"), ScanPlan("p"), "b.k",
                                           "p.k", JoinFlavor::kProbeOuter);
  for (PlanNode* p : {inner.get(), semi.get(), anti.get(), outer.get()}) {
    ASSERT_TRUE(opt.Annotate(p).ok());
  }
  // semi + anti partition the probe input.
  EXPECT_NEAR(semi->optimizer_cardinality + anti->optimizer_cardinality,
              2000.0, 1e-6);
  // outer = inner + anti.
  EXPECT_NEAR(outer->optimizer_cardinality,
              inner->optimizer_cardinality + anti->optimizer_cardinality,
              1e-6);
  EXPECT_LE(semi->optimizer_cardinality, 2000.0);
}

TEST(JoinFlavor, SemiDeriveSchemaIsProbeOnly) {
  Fixture fx;
  fx.Add(MakeKeyed("b", {1}));
  fx.Add(MakeKeyed("p", {1}));
  PlanNodePtr plan = FlavoredHashJoinPlan(ScanPlan("b"), ScanPlan("p"), "b.k",
                                          "p.k", JoinFlavor::kSemi);
  Schema schema;
  ASSERT_TRUE(plan->DeriveSchema(fx.catalog, &schema).ok());
  ASSERT_EQ(schema.num_columns(), 2u);
  EXPECT_EQ(schema.column(0).QualifiedName(), "p.k");
}

TEST(JoinFlavor, NonInnerJoinBreaksPipelineChain) {
  // A semi join above an inner join must not be enlisted in a pipeline
  // estimator; the inner join below still gets its own estimation.
  Fixture fx;
  fx.Add(MakeSkewed("a", 500, 1.0, 30, 1, 1));
  fx.Add(MakeSkewed("b", 500, 1.0, 30, 2, 2));
  fx.Add(MakeSkewed("c", 500, 1.0, 30, 3, 3));
  PlanNodePtr plan = FlavoredHashJoinPlan(
      ScanPlan("a"),
      HashJoinPlan(ScanPlan("b"), ScanPlan("c"), "b.k", "c.k"), "a.k", "c.k",
      JoinFlavor::kSemi);
  OperatorPtr root;
  std::vector<Row> rows = fx.Run(std::move(plan), &root);
  auto* top = dynamic_cast<GraceHashJoinOp*>(root.get());
  auto* below = dynamic_cast<GraceHashJoinOp*>(top->child(1));
  EXPECT_EQ(top->pipeline_estimator(), nullptr);
  EXPECT_EQ(top->once_estimator(), nullptr);  // probe input clustered → dne
  ASSERT_NE(below->once_estimator(), nullptr);
  EXPECT_TRUE(below->once_estimator()->Exact());
  EXPECT_GT(rows.size(), 0u);
  // Semi output never exceeds the probe-side (lower join) output.
  EXPECT_LE(rows.size(), below->tuples_emitted());
}

}  // namespace
}  // namespace qpi
