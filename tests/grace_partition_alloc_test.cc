// Allocation regression test for the grace hash join's partition passes
// and its join phase. Partitions copy each row's cells into chunked
// storage, so partitioning allocates per chunk, never per row, and the
// input batch keeps its slots' storage for the next refill. The join phase
// fills the consumer's batch in place at one worker and recycles pooled
// batches with a fleet. The binary replaces the global operator new/delete
// (every non-aligned form, so sanitizer runtimes see matching malloc/free
// pairs) and counts the calls made while counting is on. The same counter
// checks that a task group's submissions allocate per queue node, not per
// task.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "datagen/table_builder.h"
#include "common/task_scheduler.h"
#include "exec/compiler.h"
#include "exec/grace_hash_join.h"
#include "exec/ordered_merge.h"
#include "storage/catalog.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<uint64_t> g_news{0};

void* CountedMalloc(std::size_t size) noexcept {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_news.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(size == 0 ? 1 : size);
}

void* CountedNew(std::size_t size) {
  if (void* p = CountedMalloc(size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return CountedNew(size); }
void* operator new[](std::size_t size) { return CountedNew(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedMalloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedMalloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace qpi {
namespace {

TablePtr KeyedTable(const std::string& name, uint64_t rows, int64_t domain,
                    uint64_t seed) {
  TableBuilder b(name);
  b.AddColumn("k", std::make_unique<UniformIntSpec>(1, domain))
      .AddColumn("id", std::make_unique<SequentialSpec>(0));
  return b.Build(rows, seed);
}

TEST(GracePartitionAlloc, PartitionPassesAllocatePerChunkNotPerRow) {
  constexpr uint64_t kProbeRows = 800000;
  Catalog catalog;
  for (TablePtr t : {KeyedTable("b", 1000, 5000, 1),
                     KeyedTable("p", kProbeRows, 5000, 2)}) {
    ASSERT_TRUE(catalog.Register(t).ok());
    ASSERT_TRUE(catalog.Analyze(t->name()).ok());
  }
  // At batch size 1 a per-batch allocation would be a per-row one.
  for (size_t batch_size : {size_t{1024}, size_t{1}}) {
    SCOPED_TRACE(batch_size);
    ExecContext ctx;
    ctx.catalog = &catalog;
    ctx.batch_size = batch_size;
    ctx.exec_workers = 1;
    PlanNodePtr plan = HashJoinPlan(ScanPlan("b"), ScanPlan("p"), "b.k", "p.k");
    OperatorPtr root;
    ASSERT_TRUE(CompilePlan(plan.get(), &ctx, &root).ok());
    auto* join = dynamic_cast<GraceHashJoinOp*>(root.get());
    ASSERT_NE(join, nullptr);
    ASSERT_TRUE(root->Open(&ctx).ok());
    ctx.BeginExecution();

    g_news.store(0);
    g_counting.store(true);
    join->PreparePartitions();
    g_counting.store(false);
    const uint64_t news = g_news.load();

    EXPECT_EQ(join->probe_partition_consumed(), kProbeRows);
    EXPECT_LT(news, kProbeRows / 100) << news << " allocations";

    // At one worker the join units run inline, straight into the
    // consumer's batch. The bound is what a one-worker join phase that
    // fills the consumer's batch itself measured here, 128 + batch_size
    // (one build table, head and next arrays, for each of the 64
    // partitions, and each slot's row on its first fill), plus
    // kRunnerAllocs = 8 for the runner, its unit list and its table list.
    // Output routed through the fleet's batch pool allocates pooled
    // batches, their rows and the ready queues: thousands more at either
    // batch size.
    constexpr uint64_t kRunnerAllocs = 8;
    RowBatch batch(batch_size);
    uint64_t rows = 0;
    g_news.store(0);
    g_counting.store(true);
    while (root->NextBatch(&batch)) rows += batch.size();
    g_counting.store(false);
    const uint64_t join_news = g_news.load();
    EXPECT_GT(rows, kProbeRows / 10);
    EXPECT_LE(join_news, 128 + batch_size + kRunnerAllocs)
        << join_news << " allocations";
    root->Close();
    ctx.EndExecution();
  }
}

// With a fleet the join phase runs its units through the ordered merge's
// batch pool, and the merge hands each produced batch to the consumer
// whole. Batches then circulate between the pool, the units' ready rings
// and the consumer, so the phase allocates at most the pool's batches,
// window × kReadyCap of them with a row each per slot, plus the tables
// (two arrays per partition) and a couple of allocations per join unit
// (its task and the scheduler's queue), however many batches it emits. At
// batch size 1 the 256-row unit floor makes a unit stall and requeue every
// kReadyCap batches, each requeue a task: that size is left out.
TEST(GracePartitionAlloc, FleetJoinPhaseAllocatesWithinThePool) {
  constexpr uint64_t kProbeRows = 800000;
  constexpr size_t kWorkers = 4;
  Catalog catalog;
  for (TablePtr t : {KeyedTable("b", 1000, 5000, 1),
                     KeyedTable("p", kProbeRows, 5000, 2)}) {
    ASSERT_TRUE(catalog.Register(t).ok());
    ASSERT_TRUE(catalog.Analyze(t->name()).ok());
  }
  for (size_t batch_size : {size_t{1024}, size_t{7}}) {
    SCOPED_TRACE(batch_size);
    ExecContext ctx;
    ctx.catalog = &catalog;
    ctx.batch_size = batch_size;
    ctx.exec_workers = kWorkers;
    PlanNodePtr plan = HashJoinPlan(ScanPlan("b"), ScanPlan("p"), "b.k", "p.k");
    OperatorPtr root;
    ASSERT_TRUE(CompilePlan(plan.get(), &ctx, &root).ok());
    auto* join = dynamic_cast<GraceHashJoinOp*>(root.get());
    ASSERT_NE(join, nullptr);
    ASSERT_TRUE(root->Open(&ctx).ok());
    ctx.BeginExecution();
    join->PreparePartitions();
    RowBatch batch(batch_size);
    uint64_t rows = 0;
    uint64_t batches = 0;
    size_t units = 0;
    g_news.store(0);
    g_counting.store(true);
    while (root->NextBatch(&batch)) {
      rows += batch.size();
      if (batches++ == 0) units = join->num_join_units();
    }
    g_counting.store(false);
    const uint64_t join_news = g_news.load();
    EXPECT_GT(rows, kProbeRows / 10);
    const uint64_t pool_batches =
        std::min<uint64_t>(2 * kWorkers + 2, units) * OrderedMerge::kReadyCap;
    const uint64_t bound = pool_batches * (1 + batch_size) +
                           2 * join->num_partitions() + 2 * units;
    EXPECT_LE(join_news, bound) << join_news << " allocations, " << batches
                                << " batches, " << units << " units";
    // The pool bound is below one allocation per emitted row slot.
    EXPECT_LT(bound, batches * batch_size);
    root->Close();
    ctx.EndExecution();
  }
}

// A task group's submission allocates nothing of its own: the queued task
// carries the group to notify, so a task whose captures fit
// std::function's small buffer (here 16 bytes) costs no allocation. Only
// the scheduler's queue nodes allocate, one per several tasks. A wrapper
// closure around the task would cost one allocation per submission.
TEST(TaskGroupAlloc, SubmissionsDoNotAllocatePerTask) {
  constexpr uint64_t kTasks = 4096;
  TaskScheduler sched(2);
  std::atomic<uint64_t> sum{0};
  uint64_t news = 0;
  {
    TaskGroup group(&sched);
    g_news.store(0);
    g_counting.store(true);
    for (uint64_t i = 0; i < kTasks; ++i) {
      group.Submit(
          [&sum, i] { sum.fetch_add(i, std::memory_order_relaxed); });
    }
    group.Wait();
    g_counting.store(false);
    news = g_news.load();
  }
  RecordProperty("allocations", static_cast<int>(news));
  EXPECT_EQ(sum.load(), kTasks * (kTasks - 1) / 2);
  EXPECT_LT(news, kTasks / 4) << news << " allocations";
}

}  // namespace
}  // namespace qpi
