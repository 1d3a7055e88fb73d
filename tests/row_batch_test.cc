// RowBatch storage contract: moving a batch transfers its slots and leaves
// the source empty with capacity 0 (no slot can be taken from it), and
// Clear() keeps every slot's row storage for the next refill.

#include "common/row_batch.h"

#include <gtest/gtest.h>

#include <utility>

namespace qpi {
namespace {

/// A batch of `n` committed rows {i, i}, the first `run` of them in-run.
RowBatch FilledBatch(size_t capacity, size_t n, uint64_t run) {
  RowBatch batch(capacity);
  for (size_t i = 0; i < n; ++i) {
    Row* slot = batch.NextSlot();
    slot->assign(2, Value(static_cast<int64_t>(i)));
    batch.CommitSlot();
  }
  batch.set_random_run(run);
  return batch;
}

void ExpectMovedFrom(const RowBatch& batch) {
  EXPECT_EQ(batch.capacity(), 0u);
  EXPECT_EQ(batch.size(), 0u);
  EXPECT_EQ(batch.random_run(), 0u);
  EXPECT_TRUE(batch.empty());
  EXPECT_TRUE(batch.full());
}

TEST(RowBatch, MoveConstructionEmptiesSource) {
  RowBatch source = FilledBatch(8, 5, 3);
  const Value* storage = source.row(0).data();
  RowBatch target(std::move(source));
  ExpectMovedFrom(source);
  EXPECT_EQ(target.capacity(), 8u);
  EXPECT_EQ(target.size(), 5u);
  EXPECT_EQ(target.random_run(), 3u);
  EXPECT_EQ(target.row(0).data(), storage);
  EXPECT_EQ(RowToString(target.row(4)), "(4, 4)");
}

TEST(RowBatch, MoveAssignmentEmptiesSource) {
  RowBatch source = FilledBatch(4, 4, 4);
  RowBatch target = FilledBatch(16, 2, 0);
  target = std::move(source);
  ExpectMovedFrom(source);
  EXPECT_EQ(target.capacity(), 4u);
  EXPECT_EQ(target.size(), 4u);
  EXPECT_EQ(target.random_run(), 4u);
  EXPECT_TRUE(target.full());

  // A moved-from batch takes a new batch by assignment and is usable again.
  source = FilledBatch(2, 1, 1);
  EXPECT_EQ(source.capacity(), 2u);
  EXPECT_EQ(source.size(), 1u);
  EXPECT_FALSE(source.full());
}

TEST(RowBatch, ClearKeepsRowStorage) {
  RowBatch batch = FilledBatch(4, 3, 2);
  const Value* storage = batch.row(1).data();
  batch.Clear();
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(batch.random_run(), 0u);
  EXPECT_EQ(batch.capacity(), 4u);
  batch.CommitSlot();
  batch.CommitSlot();
  EXPECT_EQ(batch.row(1).data(), storage);
}

}  // namespace
}  // namespace qpi
