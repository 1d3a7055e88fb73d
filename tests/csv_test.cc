// CSV import/export: typed headers, NULLs, error reporting, file round
// trips, and querying loaded data end to end.

#include "storage/csv.h"

#include <gtest/gtest.h>

#include <cstdio>

#include "exec/compiler.h"
#include "exec/executor.h"
#include "sql/planner.h"
#include "storage/catalog.h"

namespace qpi {
namespace {

TEST(Csv, ParsesTypedColumns) {
  TablePtr table;
  Status s = CsvReader::Parse(
      "id:int,price:double,name:string\n"
      "1,9.5,apple\n"
      "2,0.25,pear\n",
      "fruit", &table);
  ASSERT_TRUE(s.ok()) << s.ToString();
  ASSERT_EQ(table->num_rows(), 2u);
  EXPECT_EQ(table->schema().column(0).type, ValueType::kInt64);
  EXPECT_EQ(table->schema().column(1).type, ValueType::kDouble);
  EXPECT_EQ(table->schema().column(2).type, ValueType::kString);
  EXPECT_EQ(table->RowAt(0)[0].AsInt64(), 1);
  EXPECT_DOUBLE_EQ(table->RowAt(1)[1].AsDouble(), 0.25);
  EXPECT_EQ(table->RowAt(1)[2].AsString(), "pear");
  EXPECT_EQ(table->schema().column(0).QualifiedName(), "fruit.id");
}

TEST(Csv, BareHeaderDefaultsToString) {
  TablePtr table;
  ASSERT_TRUE(CsvReader::Parse("a,b\nx,y\n", "t", &table).ok());
  EXPECT_EQ(table->schema().column(0).type, ValueType::kString);
}

TEST(Csv, EmptyFieldIsNull) {
  TablePtr table;
  ASSERT_TRUE(
      CsvReader::Parse("a:int,b:int\n1,\n,2\n", "t", &table).ok());
  EXPECT_TRUE(table->RowAt(0)[1].is_null());
  EXPECT_TRUE(table->RowAt(1)[0].is_null());
}

TEST(Csv, ErrorsCarryLineNumbers) {
  TablePtr table;
  Status s = CsvReader::Parse("a:int\n1\nnot_a_number\n", "t", &table);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("line 3"), std::string::npos);

  s = CsvReader::Parse("a:int,b:int\n1\n", "t", &table);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("1 fields, header declares 2"),
            std::string::npos)
      << s.ToString();
}

TEST(Csv, RejectsBadHeaderTypeAndEmptyInput) {
  TablePtr table;
  EXPECT_FALSE(CsvReader::Parse("a:blob\n", "t", &table).ok());
  EXPECT_FALSE(CsvReader::Parse("", "t", &table).ok());
}

TEST(Csv, RoundTripThroughWriter) {
  // 14 bytes fit inside a Value; 15 and 40 bytes live in a heap block.
  const std::string long40 = "a forty-byte field that no Value inlines";
  TablePtr original;
  ASSERT_TRUE(CsvReader::Parse(
                  "k:int,v:double,s:string\n1,1.5,aa\n2,2.5,bb\n3,,cc\n"
                  "4,4.5,fourteen-bytes\n5,5.5,fifteen-bytes!!\n6,6.5," +
                      long40 + "\n",
                  "t", &original)
                  .ok());
  EXPECT_EQ(original->RowAt(5)[2].AsString(), long40);
  std::string rendered = CsvWriter::ToCsv(*original);
  TablePtr reloaded;
  ASSERT_TRUE(CsvReader::Parse(rendered, "t", &reloaded).ok());
  ASSERT_EQ(reloaded->num_rows(), original->num_rows());
  for (uint64_t r = 0; r < original->num_rows(); ++r) {
    for (size_t c = 0; c < 3; ++c) {
      EXPECT_EQ(original->RowAt(r)[c].Compare(reloaded->RowAt(r)[c]), 0)
          << "row " << r << " col " << c;
    }
  }
}

TEST(Csv, FileRoundTrip) {
  std::string path = ::testing::TempDir() + "/qpi_csv_test.csv";
  TablePtr table;
  ASSERT_TRUE(CsvReader::Parse("a:int\n5\n6\n", "t", &table).ok());
  ASSERT_TRUE(CsvWriter::WriteFile(*table, path).ok());
  TablePtr loaded;
  ASSERT_TRUE(CsvReader::LoadFile(path, "t", &loaded).ok());
  EXPECT_EQ(loaded->num_rows(), 2u);
  std::remove(path.c_str());
}

TEST(Csv, MissingFileIsNotFound) {
  TablePtr table;
  EXPECT_EQ(CsvReader::LoadFile("/nonexistent/x.csv", "t", &table).code(),
            Status::Code::kNotFound);
}

TEST(Csv, LoadedTableIsQueryableViaSql) {
  Catalog catalog;
  TablePtr table;
  ASSERT_TRUE(CsvReader::Parse(
                  "k:int,v:int\n1,10\n1,20\n2,30\n2,40\n3,50\n", "m",
                  &table)
                  .ok());
  ASSERT_TRUE(catalog.Register(table).ok());
  ASSERT_TRUE(catalog.Analyze("m").ok());

  SqlPlanner planner(&catalog);
  PlanNodePtr plan;
  ASSERT_TRUE(planner
                  .PlanQuery("SELECT k, COUNT(*), SUM(v) FROM m GROUP BY k "
                             "ORDER BY k",
                             &plan)
                  .ok());
  ExecContext ctx;
  ctx.catalog = &catalog;
  OperatorPtr root;
  ASSERT_TRUE(CompilePlan(plan.get(), &ctx, &root).ok());
  std::vector<Row> rows;
  ASSERT_TRUE(QueryExecutor::Run(root.get(), &ctx, &rows, nullptr).ok());
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0][1].AsInt64(), 2);              // count of k=1
  EXPECT_DOUBLE_EQ(rows[0][2].AsDouble(), 30.0);   // sum of k=1
  EXPECT_DOUBLE_EQ(rows[2][2].AsDouble(), 50.0);   // sum of k=3
}

}  // namespace
}  // namespace qpi
