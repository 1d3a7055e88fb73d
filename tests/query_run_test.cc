// QueryRun's terminal ordering, tested once for every caller: a poller
// acquire-reading IsTerminal() must, on its first terminal observation,
// find the final snapshot in the slot, the terminal sample last in the ring
// with the same T̂/C, a finished query's audit and an OLA query's exact
// answer; on_outcome runs before the release, with the final snapshot
// already in the slot. Runs under the parallel-tsan and service-tsan
// presets.

#include "progress/query_run.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "datagen/table_builder.h"
#include "datagen/tpch_like.h"
#include "exec/compiler.h"
#include "ola/ola_collector.h"
#include "sql/planner.h"

namespace qpi {
namespace {

using Terminal = QueryRun::Terminal;

const char* kJoinSql =
    "SELECT * FROM orders JOIN lineitem ON orders.orderkey = "
    "lineitem.orderkey";

/// What on_outcome and the poller's first terminal observation saw.
struct Observed {
  Terminal outcome = Terminal::kNone;
  bool terminal_in_outcome = true;
  GnmSnapshot slot_in_outcome;
  GnmSnapshot slot;
  std::vector<TraceSample> samples;
  std::string audit_json;
  OlaSnapshot ola;
};

class QueryRunTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(TpchLikeGenerator(17).PopulateCatalog(&catalog_, 0.004).ok());
  }

  std::unique_ptr<QueryRun> Wire(const std::string& sql,
                                 void (*tweak)(ExecContext*) = nullptr) {
    auto ctx = std::make_unique<ExecContext>();
    ctx->catalog = &catalog_;
    if (tweak != nullptr) tweak(ctx.get());
    PlanNodePtr plan;
    EXPECT_TRUE(SqlPlanner(&catalog_).PlanQuery(sql, &plan).ok()) << sql;
    EXPECT_TRUE(ctx->Validate().ok());
    OperatorPtr root;
    EXPECT_TRUE(CompilePlan(plan.get(), ctx.get(), &root).ok()) << sql;
    return std::make_unique<QueryRun>(std::move(root), std::move(ctx),
                                      TraceRing::kDefaultCapacity,
                                      /*with_ensemble=*/true, nullptr);
  }

  /// Execute `run` on a worker while this thread polls for the terminal,
  /// then check the ordering every terminal shares.
  Observed ExecuteAndPoll(QueryRun* run, Terminal want,
                          const OlaSnapshotSlot* ola_slot = nullptr) {
    Observed seen;
    std::thread worker([&] {
      run->Execute(nullptr, /*publish_interval=*/64,
                   [&](Terminal outcome, const AccuracyReport&) {
                     seen.outcome = outcome;
                     seen.terminal_in_outcome = run->IsTerminal();
                     seen.slot_in_outcome = run->slot.Load();
                   });
    });
    while (!run->IsTerminal()) std::this_thread::yield();
    seen.slot = run->slot.Load();
    seen.samples = run->trace->Samples();
    seen.audit_json = run->audit_json;
    if (ola_slot != nullptr) seen.ola = ola_slot->Load();
    worker.join();

    EXPECT_EQ(seen.outcome, want);
    EXPECT_FALSE(seen.terminal_in_outcome) << "on_outcome after the store";
    EXPECT_EQ(seen.slot_in_outcome.current_calls, seen.slot.current_calls);
    EXPECT_EQ(seen.slot_in_outcome.total_estimate, seen.slot.total_estimate);
    EXPECT_TRUE(!seen.samples.empty() && seen.samples.back().terminal);
    if (!seen.samples.empty()) {
      EXPECT_EQ(seen.samples.back().calls, seen.slot.current_calls);
      EXPECT_EQ(seen.samples.back().total_estimate, seen.slot.total_estimate);
    }
    EXPECT_EQ(seen.audit_json != "null", want == Terminal::kFinished);
    return seen;
  }

  Catalog catalog_;
};

TEST_F(QueryRunTest, FinishedQueryEndsExactAndAudited) {
  std::unique_ptr<QueryRun> run = Wire(kJoinSql);
  Observed seen = ExecuteAndPoll(run.get(), Terminal::kFinished);
  EXPECT_GT(seen.slot.current_calls, 0.0);
  EXPECT_EQ(seen.slot.total_estimate, seen.slot.current_calls);
  EXPECT_EQ(seen.slot.ci_half_width, 0.0);
  EXPECT_STREQ(run->WireState(), "finished");
  EXPECT_EQ(run->Progress(), 1.0);
}

TEST_F(QueryRunTest, CancelledMidRunEndsExact) {
  // A fat join that would emit ~6.4M rows if it ran to completion.
  for (const char* name : {"fat1", "fat2"}) {
    TableBuilder b(name);
    b.AddColumn("k", std::make_unique<ZipfSpec>(0.0, 10, 1));
    ASSERT_TRUE(catalog_.Register(b.Build(8000, 11)).ok());
    ASSERT_TRUE(catalog_.Analyze(name).ok());
  }
  std::unique_ptr<QueryRun> run =
      Wire("SELECT * FROM fat1 JOIN fat2 ON fat1.k = fat2.k");
  QueryRun* raw = run.get();
  std::thread canceller([raw] {
    while (raw->rows_emitted.load() < 1000 && !raw->IsTerminal()) {
      std::this_thread::yield();
    }
    raw->ctx->RequestCancel();
  });
  Observed seen = ExecuteAndPoll(raw, Terminal::kCancelled);
  canceller.join();
  EXPECT_LT(run->rows_emitted.load(), 6000000u);
  // Cancellation drains every operator into the finished state.
  EXPECT_EQ(seen.slot.total_estimate, seen.slot.current_calls);
  EXPECT_TRUE(run->status.ok());
}

TEST_F(QueryRunTest, FailedAtOpenPublishesItsFinalSnapshot) {
  // Zero partitions passes Validate() but fails in the grace join's Open;
  // nothing drained, so T̂ stays the optimizer's guess.
  std::unique_ptr<QueryRun> run = Wire(
      kJoinSql, [](ExecContext* ctx) { ctx->hash_join_partitions = 0; });
  ExecuteAndPoll(run.get(), Terminal::kFailed);
  EXPECT_FALSE(run->status.ok());
  EXPECT_STREQ(run->WireState(), "failed");
}

TEST_F(QueryRunTest, OlaAggregateEndsWithExactAnswer) {
  std::unique_ptr<QueryRun> run =
      Wire("SELECT COUNT(*), SUM(totalprice) FROM orders JOIN lineitem "
           "ON orders.orderkey = lineitem.orderkey",
           [](ExecContext* ctx) { ctx->ola.enabled = true; });
  OlaSnapshotSlot ola_slot;
  std::unique_ptr<OlaCollector> collector;
  ASSERT_TRUE(
      AttachOla(run->root.get(), run->ctx.get(), &ola_slot, &collector).ok());
  run->ola_feed = collector.get();
  Observed seen = ExecuteAndPoll(run.get(), Terminal::kFinished, &ola_slot);
  EXPECT_EQ(seen.slot.total_estimate, seen.slot.current_calls);
  EXPECT_TRUE(seen.ola.exact);
  ASSERT_EQ(seen.ola.num_aggregates, 2u);
  ASSERT_EQ(seen.samples.back().ola_estimate.size(), 2u);
  for (size_t a = 0; a < 2; ++a) {
    EXPECT_EQ(seen.ola.half_width[a], 0.0);
    EXPECT_EQ(seen.samples.back().ola_estimate[a], seen.ola.estimate[a]);
  }
}

TEST_F(QueryRunTest, QueuedCancelClosesTheTraceAtProgressZero) {
  std::unique_ptr<QueryRun> run = Wire(kJoinSql);
  EXPECT_STREQ(run->WireState(), "queued");
  bool terminal_in_outcome = true;
  run->TerminalizeQueued([&](Terminal outcome, const AccuracyReport& report) {
    EXPECT_EQ(outcome, Terminal::kCancelled);
    EXPECT_FALSE(report.valid);
    terminal_in_outcome = run->IsTerminal();
  });
  EXPECT_FALSE(terminal_in_outcome);
  EXPECT_STREQ(run->WireState(), "cancelled");
  EXPECT_EQ(run->Progress(), 0.0);
  EXPECT_EQ(run->trace->offered(), 2u);  // the seed and the terminal
  EXPECT_TRUE(run->trace->Samples().back().terminal);
}

}  // namespace
}  // namespace qpi
