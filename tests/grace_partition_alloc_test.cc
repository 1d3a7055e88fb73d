// Allocation regression test for the grace hash join's partition passes
// and its one-worker join phase. Partitions copy each row's cells into
// chunked storage, so partitioning allocates per chunk, never per row, and
// the input batch keeps its slots' storage for the next refill. The join
// phase at one worker fills the consumer's batch in place. The binary replaces the global operator
// new/delete (every non-aligned form, so sanitizer runtimes see matching
// malloc/free pairs) and counts the calls made while counting is on.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "datagen/table_builder.h"
#include "exec/compiler.h"
#include "exec/grace_hash_join.h"
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

}  // namespace
}  // namespace qpi
