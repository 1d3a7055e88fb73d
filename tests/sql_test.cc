// SQL front end: lexer, parser, planner (with selection push-down), and
// end-to-end equivalence between SQL and builder-API plans.

#include <gtest/gtest.h>

#include "datagen/table_builder.h"
#include "exec/compiler.h"
#include "exec/executor.h"
#include "sql/lexer.h"
#include "sql/planner.h"
#include "storage/catalog.h"

namespace qpi {
namespace {

// ---- lexer ------------------------------------------------------------------

TEST(SqlLexer, TokenizesKeywordsIdentifiersAndSymbols) {
  std::vector<Token> tokens;
  ASSERT_TRUE(LexSql("SELECT a.b, c FROM t WHERE x >= 10", &tokens).ok());
  ASSERT_GE(tokens.size(), 12u);
  EXPECT_TRUE(tokens[0].IsKeyword("SELECT"));
  EXPECT_EQ(tokens[1].kind, TokenKind::kIdentifier);
  EXPECT_TRUE(tokens[2].IsSymbol("."));
  EXPECT_TRUE(tokens[4].IsSymbol(","));
  EXPECT_TRUE(tokens.back().kind == TokenKind::kEnd);
}

TEST(SqlLexer, KeywordsAreCaseInsensitiveIdentifiersAreNot) {
  std::vector<Token> tokens;
  ASSERT_TRUE(LexSql("select MyTable", &tokens).ok());
  EXPECT_TRUE(tokens[0].IsKeyword("SELECT"));
  EXPECT_EQ(tokens[1].text, "MyTable");
}

TEST(SqlLexer, NumbersAndStrings) {
  std::vector<Token> tokens;
  ASSERT_TRUE(LexSql("42 -7 3.25 'hi there'", &tokens).ok());
  EXPECT_EQ(tokens[0].kind, TokenKind::kInteger);
  EXPECT_EQ(tokens[1].text, "-7");
  EXPECT_EQ(tokens[2].kind, TokenKind::kDecimal);
  EXPECT_EQ(tokens[3].kind, TokenKind::kString);
  EXPECT_EQ(tokens[3].text, "hi there");
}

TEST(SqlLexer, TwoCharOperators) {
  std::vector<Token> tokens;
  ASSERT_TRUE(LexSql("a <= b >= c <> d != e", &tokens).ok());
  EXPECT_TRUE(tokens[1].IsSymbol("<="));
  EXPECT_TRUE(tokens[3].IsSymbol(">="));
  EXPECT_TRUE(tokens[5].IsSymbol("<>"));
  EXPECT_TRUE(tokens[7].IsSymbol("!="));
}

TEST(SqlLexer, ErrorsOnUnterminatedStringAndBadChar) {
  std::vector<Token> tokens;
  EXPECT_FALSE(LexSql("'oops", &tokens).ok());
  EXPECT_FALSE(LexSql("a @ b", &tokens).ok());
}

// ---- parser -----------------------------------------------------------------

TEST(SqlParser, MinimalSelect) {
  SelectStatement stmt;
  ASSERT_TRUE(ParseSql("SELECT * FROM customer", &stmt).ok());
  ASSERT_EQ(stmt.items.size(), 1u);
  EXPECT_EQ(stmt.items[0].kind, SelectItem::Kind::kAllColumns);
  EXPECT_EQ(stmt.from_table, "customer");
  EXPECT_TRUE(stmt.joins.empty());
  EXPECT_EQ(stmt.where, nullptr);
}

TEST(SqlParser, JoinsWithFlavors) {
  SelectStatement stmt;
  ASSERT_TRUE(ParseSql("SELECT * FROM a JOIN b ON a.k = b.k "
                       "SEMI JOIN c ON c.k = a.k "
                       "ANTI JOIN d ON d.k = a.k "
                       "LEFT JOIN e ON e.k = a.k",
                       &stmt)
                  .ok());
  ASSERT_EQ(stmt.joins.size(), 4u);
  EXPECT_EQ(stmt.joins[0].flavor, JoinFlavor::kInner);
  EXPECT_EQ(stmt.joins[1].flavor, JoinFlavor::kSemi);
  EXPECT_EQ(stmt.joins[2].flavor, JoinFlavor::kAnti);
  EXPECT_EQ(stmt.joins[3].flavor, JoinFlavor::kProbeOuter);
}

TEST(SqlParser, MultiConditionJoin) {
  SelectStatement stmt;
  ASSERT_TRUE(
      ParseSql("SELECT * FROM a JOIN b ON a.x = b.x AND a.y = b.y", &stmt)
          .ok());
  ASSERT_EQ(stmt.joins[0].conditions.size(), 2u);
  EXPECT_EQ(stmt.joins[0].conditions[1].first, "a.y");
}

TEST(SqlParser, WherePrecedenceOrBindsLooserThanAnd) {
  SelectStatement stmt;
  ASSERT_TRUE(
      ParseSql("SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3", &stmt).ok());
  ASSERT_NE(stmt.where, nullptr);
  EXPECT_EQ(stmt.where->ToString(), "(a = 1 OR (b = 2 AND c = 3))");
}

TEST(SqlParser, ParenthesesAndNot) {
  SelectStatement stmt;
  ASSERT_TRUE(
      ParseSql("SELECT * FROM t WHERE NOT (a < 5 OR a > 10)", &stmt).ok());
  EXPECT_EQ(stmt.where->ToString(), "NOT ((a < 5 OR a > 10))");
}

TEST(SqlParser, GroupOrderAndAggregates) {
  SelectStatement stmt;
  ASSERT_TRUE(ParseSql("SELECT k, COUNT(*), SUM(v) FROM t GROUP BY k "
                       "ORDER BY k",
                       &stmt)
                  .ok());
  ASSERT_EQ(stmt.items.size(), 3u);
  EXPECT_EQ(stmt.items[1].kind, SelectItem::Kind::kCountStar);
  EXPECT_EQ(stmt.items[2].kind, SelectItem::Kind::kSum);
  EXPECT_EQ(stmt.items[2].column, "v");
  ASSERT_EQ(stmt.group_by.size(), 1u);
  ASSERT_EQ(stmt.order_by.size(), 1u);
}

TEST(SqlParser, SyntaxErrorsReportOffsets) {
  SelectStatement stmt;
  Status s = ParseSql("SELECT FROM t", &stmt);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("offset"), std::string::npos);
  EXPECT_FALSE(ParseSql("SELECT * WHERE x = 1", &stmt).ok());
  EXPECT_FALSE(ParseSql("SELECT * FROM t JOIN", &stmt).ok());
  EXPECT_FALSE(ParseSql("SELECT * FROM t extra junk", &stmt).ok());
}

// ---- planner + end-to-end ---------------------------------------------------

class SqlEndToEnd : public ::testing::Test {
 protected:
  void SetUp() override {
    TableBuilder a("a");
    a.AddColumn("k", std::make_unique<ZipfSpec>(1.0, 30, 1))
        .AddColumn("v", std::make_unique<UniformIntSpec>(1, 100));
    ASSERT_TRUE(catalog_.Register(a.Build(2000, 1)).ok());
    TableBuilder b("b");
    b.AddColumn("k", std::make_unique<ZipfSpec>(1.0, 30, 2))
        .AddColumn("w", std::make_unique<UniformIntSpec>(1, 100));
    ASSERT_TRUE(catalog_.Register(b.Build(2000, 2)).ok());
    ASSERT_TRUE(catalog_.Analyze("a").ok());
    ASSERT_TRUE(catalog_.Analyze("b").ok());
    ctx_.catalog = &catalog_;
  }

  std::vector<Row> RunSql(const std::string& sql) {
    SqlPlanner planner(&catalog_);
    PlanNodePtr plan;
    Status s = planner.PlanQuery(sql, &plan);
    EXPECT_TRUE(s.ok()) << s.ToString();
    OperatorPtr root;
    s = CompilePlan(plan.get(), &ctx_, &root);
    EXPECT_TRUE(s.ok()) << s.ToString();
    std::vector<Row> rows;
    EXPECT_TRUE(QueryExecutor::Run(root.get(), &ctx_, &rows, nullptr).ok());
    return rows;
  }

  std::vector<Row> RunPlan(PlanNodePtr plan) {
    OperatorPtr root;
    Status s = CompilePlan(plan.get(), &ctx_, &root);
    EXPECT_TRUE(s.ok()) << s.ToString();
    std::vector<Row> rows;
    EXPECT_TRUE(QueryExecutor::Run(root.get(), &ctx_, &rows, nullptr).ok());
    return rows;
  }

  Catalog catalog_;
  ExecContext ctx_;
};

TEST_F(SqlEndToEnd, SelectStarScan) {
  EXPECT_EQ(RunSql("SELECT * FROM a").size(), 2000u);
}

TEST_F(SqlEndToEnd, ProjectionAndFilter) {
  std::vector<Row> rows = RunSql("SELECT v FROM a WHERE a.v <= 10");
  for (const Row& row : rows) {
    ASSERT_EQ(row.size(), 1u);
    EXPECT_LE(row[0].AsInt64(), 10);
  }
  EXPECT_EQ(rows.size(),
            RunPlan(FilterPlan(ScanPlan("a"),
                               MakeCompare("v", CompareOp::kLe,
                                           Value(int64_t{10}))))
                .size());
}

TEST_F(SqlEndToEnd, JoinMatchesBuilderPlan) {
  std::vector<Row> sql_rows =
      RunSql("SELECT * FROM a JOIN b ON b.k = a.k");
  std::vector<Row> api_rows =
      RunPlan(HashJoinPlan(ScanPlan("b"), ScanPlan("a"), "b.k", "a.k"));
  EXPECT_EQ(sql_rows.size(), api_rows.size());
}

TEST_F(SqlEndToEnd, FilterPushdownReachesTheScan) {
  SqlPlanner planner(&catalog_);
  PlanNodePtr plan;
  ASSERT_TRUE(planner
                  .PlanQuery("SELECT * FROM a JOIN b ON b.k = a.k "
                             "WHERE a.v < 50 AND b.w < 50",
                             &plan)
                  .ok());
  // Both single-table conjuncts must sit below the join.
  ASSERT_EQ(plan->kind, PlanKind::kHashJoin);
  EXPECT_EQ(plan->children[0]->kind, PlanKind::kFilter);  // on b
  EXPECT_EQ(plan->children[1]->kind, PlanKind::kFilter);  // on a
  std::vector<Row> rows = RunPlan(std::move(plan));
  for (const Row& row : rows) {
    EXPECT_LT(row[1].AsInt64(), 50);  // b.w
    EXPECT_LT(row[3].AsInt64(), 50);  // a.v
  }
}

TEST_F(SqlEndToEnd, GroupByWithAggregates) {
  std::vector<Row> rows =
      RunSql("SELECT k, COUNT(*), SUM(v) FROM a GROUP BY k ORDER BY k");
  ASSERT_FALSE(rows.empty());
  int64_t total = 0;
  int64_t prev = -1;
  for (const Row& row : rows) {
    EXPECT_GT(row[0].AsInt64(), prev);  // ORDER BY k ascending
    prev = row[0].AsInt64();
    total += row[1].AsInt64();
  }
  EXPECT_EQ(total, 2000);
}

TEST_F(SqlEndToEnd, SemiJoinViaSql) {
  std::vector<Row> sql_rows = RunSql(
      "SELECT * FROM a SEMI JOIN b ON b.k = a.k WHERE a.k <= 5");
  std::vector<Row> api_rows = RunPlan(FlavoredHashJoinPlan(
      ScanPlan("b"),
      FilterPlan(ScanPlan("a"),
                 MakeCompare("k", CompareOp::kLe, Value(int64_t{5}))),
      "b.k", "a.k", JoinFlavor::kSemi));
  EXPECT_EQ(sql_rows.size(), api_rows.size());
}

/// A column projected twice comes out twice: projection copies cells
/// rather than moving them out of the input row, on the sequential path
/// and on the fused morsel scan (exec_workers > 1).
TEST_F(SqlEndToEnd, RepeatedProjectedColumnsAreEqual) {
  TableBuilder s("s");
  s.AddColumn("i", std::make_unique<UniformIntSpec>(1, 100))
      .AddColumn("d", std::make_unique<MoneySpec>(1.0, 100.0))
      .AddColumn("short_str", std::make_unique<RandomStringSpec>(12))
      .AddColumn("long_str", std::make_unique<RandomStringSpec>(40));
  ASSERT_TRUE(catalog_.Register(s.Build(2000, 3)).ok());
  const std::string sql =
      "SELECT i, i, d, d, short_str, short_str, long_str, long_str FROM s "
      "WHERE s.i <= 50";
  std::vector<Row> sequential;
  for (size_t workers : {1, 4}) {
    ExecContext ctx;
    ctx.catalog = &catalog_;
    ctx.exec_workers = workers;
    ctx.batch_size = 64;  // 256-row morsels: several merge boundaries
    SqlPlanner planner(&catalog_);
    PlanNodePtr plan;
    ASSERT_TRUE(planner.PlanQuery(sql, &plan).ok());
    OperatorPtr root;
    ASSERT_TRUE(CompilePlan(plan.get(), &ctx, &root).ok());
    std::vector<Row> rows;
    ASSERT_TRUE(QueryExecutor::Run(root.get(), &ctx, &rows, nullptr).ok());
    ASSERT_FALSE(rows.empty());
    for (const Row& row : rows) {
      ASSERT_EQ(row.size(), 8u);
      for (size_t c = 0; c < 8; c += 2) {
        ASSERT_FALSE(row[c].is_null()) << "workers " << workers;
        ASSERT_EQ(row[c], row[c + 1]) << "workers " << workers;
      }
      EXPECT_LE(row[0].AsInt64(), 50);
      EXPECT_EQ(row[6].AsString().size(), 40u);
    }
    if (workers == 1) {
      sequential = rows;
    } else {
      EXPECT_EQ(rows, sequential);
    }
  }
}

TEST_F(SqlEndToEnd, PlannerErrors) {
  SqlPlanner planner(&catalog_);
  PlanNodePtr plan;
  EXPECT_EQ(planner.PlanQuery("SELECT * FROM ghost", &plan).code(),
            Status::Code::kNotFound);
  // Global aggregation is supported; mixing it with plain columns is not.
  EXPECT_TRUE(planner.PlanQuery("SELECT COUNT(*) FROM a", &plan).ok());
  EXPECT_EQ(planner.PlanQuery("SELECT k, COUNT(*) FROM a", &plan).code(),
            Status::Code::kInvalidArgument);
  EXPECT_EQ(planner
                .PlanQuery("SELECT * FROM a JOIN b ON b.k = b.w", &plan)
                .code(),
            Status::Code::kInvalidArgument);
  EXPECT_EQ(planner.PlanQuery("SELECT * FROM a JOIN a ON a.k = a.k", &plan)
                .code(),
            Status::Code::kNotImplemented);
}

TEST_F(SqlEndToEnd, StringNumberComparisonIsInvalidArgument) {
  TableBuilder t("t");
  t.AddColumn("name", std::make_unique<RandomStringSpec>(4))
      .AddColumn("n", std::make_unique<UniformIntSpec>(1, 10));
  ASSERT_TRUE(catalog_.Register(t.Build(100, 3)).ok());
  ASSERT_TRUE(catalog_.Analyze("t").ok());
  auto compile = [&](const std::string& sql) {
    SqlPlanner planner(&catalog_);
    PlanNodePtr plan;
    Status s = planner.PlanQuery(sql, &plan);
    if (!s.ok()) return s;
    OperatorPtr root;
    return CompilePlan(plan.get(), &ctx_, &root);
  };
  for (const char* sql : {"SELECT * FROM t WHERE t.name = 5",
                          "SELECT * FROM t WHERE t.name < 2.5",
                          "SELECT * FROM t WHERE t.n = 'x'",
                          "SELECT * FROM t WHERE t.n = 1 AND t.name >= 0"}) {
    EXPECT_EQ(compile(sql).code(), Status::Code::kInvalidArgument) << sql;
  }
  for (const char* sql : {"SELECT * FROM t WHERE t.name = 'x'",
                          "SELECT * FROM t WHERE t.n = 5",
                          "SELECT * FROM t WHERE t.n < 2.5"}) {
    EXPECT_TRUE(compile(sql).ok()) << sql;
  }
}

TEST_F(SqlEndToEnd, SqlJoinGetsOnceEstimationWired) {
  SqlPlanner planner(&catalog_);
  PlanNodePtr plan;
  ASSERT_TRUE(
      planner.PlanQuery("SELECT * FROM a JOIN b ON b.k = a.k", &plan).ok());
  ctx_.mode = EstimationMode::kOnce;
  OperatorPtr root;
  ASSERT_TRUE(CompilePlan(plan.get(), &ctx_, &root).ok());
  uint64_t rows = 0;
  ASSERT_TRUE(QueryExecutor::Run(root.get(), &ctx_, nullptr, &rows).ok());
  EXPECT_DOUBLE_EQ(root->CurrentCardinalityEstimate(),
                   static_cast<double>(rows));
}

}  // namespace
}  // namespace qpi
