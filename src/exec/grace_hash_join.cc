#include "exec/grace_hash_join.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "common/check.h"
#include "exec/ordered_merge.h"

namespace qpi {

namespace {

std::vector<OperatorPtr> TwoChildren(OperatorPtr a, OperatorPtr b) {
  std::vector<OperatorPtr> v;
  v.push_back(std::move(a));
  v.push_back(std::move(b));
  return v;
}

inline uint64_t PartitionMix(uint64_t k) {
  k ^= k >> 33;
  k *= 0xc4ceb9fe1a85ec53ULL;
  k ^= k >> 29;
  return k;
}

// Target size of one partition chunk, in Values (32 KiB).
constexpr size_t kChunkValues = (size_t{32} << 10) / sizeof(Value);

}  // namespace

GraceHashJoinOp::Partition::Partition(size_t width)
    : width_(width), chunks_(1) {
  const size_t rows = std::bit_floor(std::max<size_t>(1, kChunkValues / width));
  shift_ = static_cast<unsigned>(std::countr_zero(rows));
  mask_ = rows - 1;
}

void GraceHashJoinOp::Partition::Append(const Row& row, uint64_t code) {
  QPI_DCHECK(row.size() == width_);
  if (!codes_.empty() && (codes_.size() & mask_) == 0) {
    chunks_.emplace_back().reserve((mask_ + 1) * width_);
  }
  std::vector<Value>& chunk = chunks_.back();
  chunk.insert(chunk.end(), row.begin(), row.end());
  codes_.push_back(code);
}

void GraceHashJoinOp::JoinTable::Build(const Partition& rows) {
  const size_t n = rows.size();
  QPI_CHECK(n < kNoRow);  // build-row positions are uint32_t
  const size_t buckets = std::bit_ceil(std::max<size_t>(n, 2));
  shift = 64 - static_cast<unsigned>(std::countr_zero(buckets));
  head.assign(buckets, kNoRow);
  next.resize(n);
  for (size_t i = n; i-- > 0;) {
    uint32_t& first = head[Bucket(rows.code(i))];
    next[i] = first;
    first = static_cast<uint32_t>(i);
  }
}

GraceHashJoinOp::GraceHashJoinOp(OperatorPtr build, OperatorPtr probe,
                                 size_t build_key_index,
                                 size_t probe_key_index, std::string label,
                                 JoinFlavor join_type)
    : GraceHashJoinOp(std::move(build), std::move(probe),
                      std::vector<size_t>{build_key_index},
                      std::vector<size_t>{probe_key_index}, std::move(label),
                      join_type) {}

GraceHashJoinOp::GraceHashJoinOp(OperatorPtr build, OperatorPtr probe,
                                 std::vector<size_t> build_key_indices,
                                 std::vector<size_t> probe_key_indices,
                                 std::string label, JoinFlavor join_type)
    : Operator(std::move(label), TwoChildren(std::move(build), std::move(probe))),
      build_key_indices_(std::move(build_key_indices)),
      probe_key_indices_(std::move(probe_key_indices)),
      join_type_(join_type) {
  QPI_CHECK(!build_key_indices_.empty());
  QPI_CHECK(build_key_indices_.size() == probe_key_indices_.size());
  // Semi and anti joins emit probe rows only; the other flavours emit the
  // concatenation (with NULL-padded build columns for probe-outer misses).
  if (join_type_ == JoinFlavor::kSemi || join_type_ == JoinFlavor::kAnti) {
    SetSchema(probe_child()->schema());
  } else {
    SetSchema(
        Schema::Concat(build_child()->schema(), probe_child()->schema()));
  }
}

bool GraceHashJoinOp::KeysEqual(const Value* build_row,
                                const Value* probe_row) const {
  for (size_t i = 0; i < build_key_indices_.size(); ++i) {
    if (!JoinKeysEqual(build_row[build_key_indices_[i]],
                       probe_row[probe_key_indices_[i]])) {
      return false;
    }
  }
  return true;
}

// Destruction without Close (error paths) destroys merge_ first, which
// waits for every join-unit subtask before the partitions die.
GraceHashJoinOp::~GraceHashJoinOp() = default;

Status GraceHashJoinOp::OpenImpl() {
  size_t requested = ctx_->hash_join_partitions;
  if (requested == 0) {
    return Status::InvalidArgument(
        "hash_join_partitions must be >= 1 (got 0)");
  }
  // Normalize to the next power of two: the partition index becomes a mask
  // over the mixed key hash.
  num_partitions_ = std::bit_ceil(requested);
  build_parts_.assign(num_partitions_,
                      Partition(build_child()->schema().num_columns()));
  probe_parts_.assign(num_partitions_,
                      Partition(probe_child()->schema().num_columns()));
  null_build_row_.assign(build_child()->schema().num_columns(), Value::Null());
  return Status::OK();
}

void GraceHashJoinOp::RunBuildPhase() {
  RowBatch batch(ctx_->batch_size);
  std::vector<uint64_t> keys;
  keys.reserve(batch.capacity());
  while (build_child()->NextBatch(&batch)) {
    size_t n = batch.size();
    keys.clear();
    for (size_t i = 0; i < n; ++i) {
      keys.push_back(RowKeyCode(batch.row(i), build_key_indices_));
    }
    estimation_.ObserveBuild(
        batch, [&](size_t i) { return keys[i]; },
        [&](size_t i) {
          return RowKeyHasNull(batch.row(i), build_key_indices_);
        });
    for (size_t i = 0; i < n; ++i) {
      size_t part = PartitionMix(keys[i]) & (num_partitions_ - 1);
      build_parts_[part].Append(batch.row(i), keys[i]);
    }
  }
  estimation_.BuildComplete();
}

void GraceHashJoinOp::RunProbePartitionPhase() {
  RowBatch batch(ctx_->batch_size);
  std::vector<uint64_t> keys;
  keys.reserve(batch.capacity());
  // Weigh partitions for the parallel join's unit sizing. N^R is read
  // from the exact build histogram, so the weight is exact even if
  // estimation freezes, and ONCE's own probe-side state is untouched.
  // The weights balance the fleet's load; at one worker the cut changes
  // no output, so the pass skips them.
  const HashHistogram* weigh = nullptr;
  if (ctx_->exec_workers > 1 && estimation_.once() != nullptr) {
    weigh = &estimation_.once()->build_histogram();
    part_weight_.assign(num_partitions_, 0);
  }
  while (probe_child()->NextBatch(&batch)) {
    size_t n = batch.size();
    keys.clear();
    for (size_t i = 0; i < n; ++i) {
      keys.push_back(RowKeyCode(batch.row(i), probe_key_indices_));
    }
    probe_partition_consumed_ += n;
    estimation_.ObserveProbe(
        batch, [&](size_t) { return keys.data(); },
        [&](size_t i) {
          return RowKeyHasNull(batch.row(i), probe_key_indices_);
        });
    for (size_t i = 0; i < n; ++i) {
      size_t part = PartitionMix(keys[i]) & (num_partitions_ - 1);
      probe_parts_[part].Append(batch.row(i), keys[i]);
      if (weigh != nullptr) part_weight_[part] += 1 + weigh->Count(keys[i]);
    }
  }
  estimation_.ProbeComplete();
}

void GraceHashJoinOp::PreparePartitions() {
  if (partitioned_) return;
  RunBuildPhase();
  RunProbePartitionPhase();
  partitioned_ = true;
}

void GraceHashJoinOp::StartJoinUnits() {
  // Cut each partition into equal probe-row ranges whose estimated output
  // is about OrderedMerge::UnitTarget rows. Empty partitions emit nothing
  // for any flavor and get no unit.
  const uint64_t target = OrderedMerge::UnitTarget(ctx_->batch_size);
  part_tables_ = std::vector<SharedTable>(num_partitions_);
  size_t num_units = 0;
  for (size_t p = 0; p < num_partitions_; ++p) {
    const size_t rows = probe_parts_[p].size();
    const uint64_t weight = part_weight_.empty() ? rows : part_weight_[p];
    const size_t ranges = static_cast<size_t>(
        std::min<uint64_t>(rows, (weight + target - 1) / target));
    part_tables_[p].units_left = ranges;
    num_units += ranges;
  }
  join_units_ = std::vector<JoinUnit>(num_units);
  size_t u = 0;
  for (size_t p = 0; p < num_partitions_; ++p) {
    const size_t rows = probe_parts_[p].size();
    const size_t ranges = part_tables_[p].units_left;
    for (size_t r = 0; r < ranges; ++r, ++u) {
      JoinUnit& unit = join_units_[u];
      unit.part = p;
      unit.cursor.probe_row = rows * r / ranges;
      unit.cursor.probe_end = rows * (r + 1) / ranges;
    }
  }
  merge_ = std::make_unique<OrderedMerge>(
      num_units, ctx_, OrderedMerge::Boundaries::kUnit, /*mark_width=*/1,
      [this](size_t unit, RowBatch* out, std::vector<uint64_t>* marks) {
        return ProduceUnit(unit, out, marks);
      },
      [this](size_t unit, size_t, bool passed, const uint64_t* mark) {
        CreditUnit(unit, passed, mark);
      });
}

bool GraceHashJoinOp::ProduceUnit(size_t unit, RowBatch* out,
                                  std::vector<uint64_t>* marks) {
  JoinUnit& u = join_units_[unit];
  u.cursor.consumed += JoinPartitionInto(u.part, &u.cursor, out);
  // The shared table is dead weight once its partition's last unit is
  // done; that unit frees it.
  SharedTable& shared = part_tables_[u.part];
  if (u.cursor.done && shared.units_left.fetch_sub(1) == 1) {
    shared.table = JoinTable();
  }
  // Join output is clustered by partition: its random_run stays 0. A
  // fleet's batch goes to the consumer whole, so one mark per call.
  if (marks != nullptr) marks->push_back(u.cursor.consumed);
  return u.cursor.done;
}

void GraceHashJoinOp::CreditUnit(size_t unit, bool passed,
                                 const uint64_t* mark) {
  const uint64_t consumed =
      mark != nullptr ? *mark : join_units_[unit].cursor.consumed;
  join_driver_consumed_ += consumed - unit_credited_;
  unit_credited_ = passed ? 0 : consumed;
}

uint64_t GraceHashJoinOp::JoinPartitionInto(size_t part,
                                            PartitionCursor* cursor,
                                            RowBatch* out) {
  const Partition& build = build_parts_[part];
  const Partition& probe = probe_parts_[part];
  SharedTable& shared = part_tables_[part];
  JoinTable& table = shared.table;
  const size_t probe_end = cursor->probe_end;
  const bool probe_only =
      join_type_ == JoinFlavor::kSemi || join_type_ == JoinFlavor::kAnti;
  uint64_t consumed = 0;
  while (!out->full()) {
    size_t pi = cursor->probe_row;
    if (pi == probe_end) {
      cursor->done = true;
      break;
    }
    const std::span<const Value> probe_row = probe.row(pi);
    const uint64_t code = probe.code(pi);
    // A chain holds every build row of its bucket: compare the stored
    // codes first, then the values, since composite and string keys can
    // share a code.
    auto matches = [&](uint32_t b) {
      return build.code(b) == code &&
             KeysEqual(build.row(b).data(), probe_row.data());
    };
    if (cursor->match == kNoRow) {
      // A fresh probe row: consume it. The per-row cadence covers long
      // semi/anti runs that fill a batch slowly.
      if ((pi & 1023u) == 0 && ctx_->IsCancelled()) {
        cursor->done = true;
        break;
      }
      if (!cursor->table_built) {
        std::call_once(shared.once, [&] { table.Build(build); });
        cursor->table_built = true;
      }
      ++consumed;
      uint32_t first = table.head[table.Bucket(code)];
      while (first != kNoRow && !matches(first)) first = table.next[first];
      if (probe_only || first == kNoRow) {
        ++cursor->probe_row;
        if (probe_only) {
          if ((first != kNoRow) == (join_type_ == JoinFlavor::kSemi)) {
            out->NextSlot()->assign(probe_row.begin(), probe_row.end());
            out->CommitSlot();
          }
        } else if (join_type_ == JoinFlavor::kProbeOuter) {
          // NULL-pad the build side of the unmatched probe row.
          AssignConcat(out->NextSlot(), null_build_row_, probe_row);
          out->CommitSlot();
        }
        continue;
      }
      cursor->match = first;
    }
    // Emit the rest of the chain from the cursor; a call that stops on a
    // full batch resumes here.
    while (cursor->match != kNoRow && !out->full()) {
      const uint32_t b = cursor->match;
      cursor->match = table.next[b];
      if (!matches(b)) continue;  // another key in this bucket
      AssignConcat(out->NextSlot(), build.row(b), probe_row);
      out->CommitSlot();
    }
    if (cursor->match == kNoRow) ++cursor->probe_row;
  }
  return consumed;
}

void GraceHashJoinOp::NextBatchImpl(RowBatch* out) {
  PreparePartitions();
  // Start the join units on the first batch request (also after an
  // explicit PreparePartitions).
  if (merge_ == nullptr) StartJoinUnits();
  merge_->Fill(out);
  CountEmitted(out->size());
}

void GraceHashJoinOp::CloseImpl() {
  // Tear down the join phase first: destroying the merge stops
  // still-queued units and waits (helping the fleet) for every subtask
  // before the partitions and tables they read are cleared.
  merge_.reset();
  join_units_.clear();
  part_tables_.clear();
  part_weight_.clear();
  build_parts_.clear();
  probe_parts_.clear();
}

double GraceHashJoinOp::CardinalityEstimate(EstimationMode mode) const {
  return estimation_.Estimate(
      *this, mode,
      {join_driver_consumed(), static_cast<double>(probe_partition_consumed_)});
}

double GraceHashJoinOp::CurrentCardinalityHalfWidth(double confidence) const {
  return estimation_.HalfWidth(*this, OnceMode(), confidence);
}

bool GraceHashJoinOp::CardinalityExact() const {
  return estimation_.Exact(*this, OnceMode());
}

}  // namespace qpi
