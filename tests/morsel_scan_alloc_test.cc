// Allocation regression test for the fused morsel scan. Morsel output
// flows through the ordered merge's recycled RowBatches: each block row is
// copy-assigned into a pooled slot and filtered and projected there, so a
// parallel scan → filter → project allocates per morsel, never per row.
// The binary replaces the global operator new/delete (every non-aligned
// form, so sanitizer runtimes see matching malloc/free pairs) and counts
// the calls made on every thread while counting is on.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "datagen/table_builder.h"
#include "exec/compiler.h"
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

TEST(MorselScanAlloc, FusedScanAllocatesPerMorselNotPerRow) {
  constexpr uint64_t kRows = 200000;
  Catalog catalog;
  TableBuilder b("t");
  b.AddColumn("k", std::make_unique<UniformIntSpec>(1, 100))
      .AddColumn("id", std::make_unique<SequentialSpec>(0))
      .AddColumn("s", std::make_unique<RandomStringSpec>(12));
  ASSERT_TRUE(catalog.Register(b.Build(kRows, 5)).ok());
  ASSERT_TRUE(catalog.Analyze("t").ok());

  ExecContext ctx;
  ctx.catalog = &catalog;
  ctx.exec_workers = 4;
  // Small batches: a per-batch allocation would be one every 16 rows.
  ctx.batch_size = 16;
  PlanNodePtr plan = ProjectPlan(
      FilterPlan(ScanPlan("t"),
                 MakeCompare("k", CompareOp::kLe, Value(int64_t{90}))),
      {"id", "k"});
  OperatorPtr root;
  ASSERT_TRUE(CompilePlan(plan.get(), &ctx, &root).ok());
  ASSERT_TRUE(root->Open(&ctx).ok());
  ctx.BeginExecution();

  // Drain with a reused batch: the executor's sink would copy every row.
  RowBatch batch(ctx.batch_size);
  uint64_t rows = 0;
  g_news.store(0);
  g_counting.store(true);
  while (root->NextBatch(&batch)) rows += batch.size();
  g_counting.store(false);
  const uint64_t news = g_news.load();
  root->Close();
  ctx.EndExecution();

  RecordProperty("allocations", static_cast<int>(news));
  EXPECT_EQ(root->child(0)->child(0)->tuples_emitted(), kRows);
  EXPECT_GT(rows, kRows / 2);
  EXPECT_LT(news, kRows / 20) << news << " allocations";
}

}  // namespace
}  // namespace qpi
