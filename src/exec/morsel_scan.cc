#include "exec/morsel_scan.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "exec/exec_context.h"
#include "exec/filter.h"
#include "exec/operator.h"
#include "exec/ordered_merge.h"
#include "exec/seq_scan.h"
#include "storage/table.h"

namespace qpi {

/// One operator of a fused scan → filter/project chain, in bottom-up order.
/// Exactly one of `predicate` / `project` is set for filter / project
/// stages; `op` is always the operator the stage's output counts are
/// attributed to.
struct MorselStage {
  Operator* op = nullptr;
  const BoundPredicate* predicate = nullptr;
  const ProjectOp* project = nullptr;
};

/// \brief Morsel executor for a fused SeqScan → Filter/Project chain, at
/// every worker count.
///
/// The scan order (random-sample prefix first, then the remaining blocks)
/// is cut into morsels of OrderedMerge::UnitTarget(batch_size) virtual
/// rows, the units of an OrderedMerge. A unit's producer copy-assigns each
/// block row into the batch's next slot, runs the whole fused chain on it
/// there — the same per-row predicate and projection FilterOp and ProjectOp
/// use — and commits survivors only; the merge delivers the batches in
/// morsel order with sequential boundaries (a morsel's full batch goes out
/// whole only where a consumer batch starts anyway), so the emitted row
/// stream, every batch boundary and every batch's `random_run` are the
/// same at every worker count (see OrderedMerge and DESIGN.md §9). This
/// producer is the only place the scan order and its post-emission
/// random-run rule are implemented.
///
/// Counter accounting: producers write no counter, state or tick. The
/// merge reports each delivery on the driving thread, in morsel order, and
/// Deliver attributes the captured (non-driving) operators' counts there
/// (a captured scan's in whole batches, ScanCountAt), ticks once, and
/// finishes them past the last morsel. It credits the chain through the
/// input row after the last delivered row, or through the morsel's end
/// once the merge has passed it: what the one-worker producer has counted
/// when it returns. A fleet's consumer batch may end inside a produced
/// one, so fleet producers mark each row (its input offset and the running
/// count of each captured stage with a filter above it). The driving
/// operator's own rows are counted by its NextBatchImpl and ticked by the
/// ordinary wrapper.
class MorselScanDriver {
 public:
  /// `stages` is the fused chain bottom-up; the last stage (or the scan
  /// itself when `stages` is empty) is the *driving* operator, whose
  /// NextBatchImpl fills through FusedScan. Must be constructed on the
  /// query's driving thread after the scan has been opened.
  MorselScanDriver(SeqScanOp* scan, std::vector<MorselStage> stages,
                   ExecContext* ctx);

  MorselScanDriver(const MorselScanDriver&) = delete;
  MorselScanDriver& operator=(const MorselScanDriver&) = delete;

  /// Append rows to `out` (already cleared by the NextBatch wrapper) until
  /// it is full or the stream ends, setting its random_run. Driving thread
  /// only.
  void Fill(RowBatch* out) { merge_->Fill(out); }

 private:
  /// Resume point of one morsel, owned by whichever runner holds it.
  /// Written per row, so morsels running side by side keep off each
  /// other's cache lines.
  struct alignas(64) Cursor {
    uint64_t row = 0;  ///< next virtual row
    size_t block = 0;  ///< index into the scan order of row's block
    size_t local = 0;  ///< row's offset within that block
    Row scratch;       ///< a projection stage's output, swapped into the slot
  };

  /// OrderedMerge producer: fill `out` from morsel `m`, marking each row
  /// in `marks` when it is set (a fleet's runner).
  template <bool kMarked>
  bool Produce(size_t m, RowBatch* out, std::vector<uint64_t>* marks);

  /// OrderedMerge delivery callback: attribute the captured operators'
  /// counts through the delivery point, finish them past the last morsel
  /// and tick the observers once.
  void Deliver(size_t m, size_t rows, bool passed, const uint64_t* mark);

  uint64_t MorselEnd(size_t m) const {
    return std::min(total_rows_, (m + 1) * morsel_rows_);
  }

  /// A captured scan's emitted count once the chain has read its first
  /// `rows` rows. A scan hands its parent whole batches, so the count is
  /// `rows` rounded up to a batch_size multiple (capped at the table): the
  /// count a parent pulling batch by batch sees, which the estimators
  /// above (a filter's pass rate) read between batches.
  uint64_t ScanCountAt(uint64_t rows) const {
    const uint64_t batch = ctx_->batch_size;
    return std::min(total_rows_, (rows + batch - 1) / batch * batch);
  }

  SeqScanOp* scan_;
  std::vector<MorselStage> stages_;
  ExecContext* ctx_;
  const Table* table_;
  const ScanOrder* order_;

  // Captured operators: every chain member except the driving one. Their
  // counters/states are attributed by Deliver (friend of Operator).
  std::vector<Operator*> captured_;
  // Leading projection stages: they pass the scan's rows one for one, in
  // its batches, so they count as the scan does (ScanCountAt).
  size_t scan_aligned_ = 0;
  // Stages [scan_aligned_, marked_end_) have a filter above them: a row's
  // marks carry its input offset, then their running counts in stage
  // order. Every row a stage above them passes is delivered, so its count
  // is the delivered rows.
  size_t marked_end_ = 0;

  // Rows of the leading random prefix: UINT64_MAX for an unsampled scan,
  // whose whole stream is random.
  uint64_t prefix_rows_ = 0;
  uint64_t total_rows_ = 0;
  uint64_t morsel_rows_ = 1;
  std::vector<Cursor> cursors_;  // one per morsel
  // Running output counts of each stage within its morsel, written per
  // row: morsel m's counts start at m * stage_stride_, which leaves 64
  // bytes between neighbouring morsels' counts.
  size_t stage_stride_ = 0;
  std::vector<uint64_t> stage_rows_;

  // Delivery side (driving thread only): how far the chain is credited.
  uint64_t credited_row_ = 0;  // input rows, as ScanCountAt reads them
  std::vector<uint64_t> credited_stage_;  // within the current morsel
  uint64_t delivered_ = 0;                // rows of the current morsel

  // Declared last: its destructor waits for the producers, which touch
  // every member above.
  std::unique_ptr<OrderedMerge> merge_;
};

MorselScanDriver::MorselScanDriver(SeqScanOp* scan,
                                   std::vector<MorselStage> stages,
                                   ExecContext* ctx)
    : scan_(scan), stages_(std::move(stages)), ctx_(ctx) {
  table_ = &scan_->scan_table();
  order_ = &scan_->scan_order();

  std::vector<uint64_t> vstarts;  // virtual row offset of each scan block
  vstarts.reserve(order_->block_order.size());
  for (uint32_t block_id : order_->block_order) {
    vstarts.push_back(total_rows_);
    total_rows_ += table_->block(block_id).num_rows();
  }
  prefix_rows_ = order_->sample_block_count != 0 ? order_->sample_row_count
                                                 : UINT64_MAX;

  morsel_rows_ = OrderedMerge::UnitTarget(ctx_->batch_size);
  const size_t morsels =
      static_cast<size_t>((total_rows_ + morsel_rows_ - 1) / morsel_rows_);
  cursors_.resize(morsels);
  for (size_t m = 0; m < morsels; ++m) {
    // Locate the block containing the morsel's first row; zero-row blocks
    // are skipped by the producer.
    Cursor& c = cursors_[m];
    c.row = m * morsel_rows_;
    c.block = static_cast<size_t>(
                  std::upper_bound(vstarts.begin(), vstarts.end(), c.row) -
                  vstarts.begin()) -
              1;
    c.local = static_cast<size_t>(c.row - vstarts[c.block]);
  }
  stage_stride_ = stages_.size() + 64 / sizeof(uint64_t);
  stage_rows_.resize(morsels * stage_stride_);

  while (scan_aligned_ < stages_.size() &&
         stages_[scan_aligned_].project != nullptr) {
    ++scan_aligned_;
  }
  marked_end_ = scan_aligned_;
  for (size_t s = scan_aligned_; s < stages_.size(); ++s) {
    if (stages_[s].predicate != nullptr) marked_end_ = s;
  }
  credited_stage_.assign(stages_.size(), 0);
  if (!stages_.empty()) {
    captured_.push_back(scan_);
    for (size_t s = 0; s + 1 < stages_.size(); ++s) {
      captured_.push_back(stages_[s].op);
    }
  }
  // The driving operator's wrapper flips its own state; the captured chain
  // below it starts running the moment the first morsel is scheduled and
  // finishes with the last morsel.
  for (Operator* op : captured_) {
    op->state_.store(morsels == 0 ? OpState::kFinished : OpState::kRunning,
                     std::memory_order_relaxed);
  }
  // A bare scan captures nothing, so it needs no marks.
  const size_t mark_width =
      captured_.empty() ? 0 : 1 + marked_end_ - scan_aligned_;
  merge_ = std::make_unique<OrderedMerge>(
      morsels, ctx_, OrderedMerge::Boundaries::kSequential, mark_width,
      [this](size_t m, RowBatch* out, std::vector<uint64_t>* marks) {
        return marks == nullptr ? Produce<false>(m, out, nullptr)
                                : Produce<true>(m, out, marks);
      },
      [this](size_t m, size_t rows, bool passed, const uint64_t* mark) {
        Deliver(m, rows, passed, mark);
      });
}

template <bool kMarked>
bool MorselScanDriver::Produce(size_t m, RowBatch* out,
                               std::vector<uint64_t>* marks) {
  Cursor& c = cursors_[m];
  const uint64_t end = MorselEnd(m);
  uint64_t* stage_rows = stage_rows_.data() + m * stage_stride_;
  while (!out->full() && c.row < end) {
    const Block& block = table_->block(order_->block_order[c.block]);
    if (c.local >= block.num_rows()) {
      ++c.block;
      c.local = 0;
      continue;
    }
    Row* slot = out->NextSlot();
    *slot = block.row(c.local++);
    bool keep = true;
    for (size_t s = 0; s < stages_.size() && keep; ++s) {
      const MorselStage& st = stages_[s];
      if (st.predicate != nullptr) {
        keep = st.predicate->Evaluate(*slot);
      } else {
        st.project->ProjectRow(*slot, &c.scratch);
        std::swap(*slot, c.scratch);
      }
      if (keep) ++stage_rows[s];
    }
    if (keep) {
      out->CommitSlot();
      // Run membership uses the post-emission rule (see RowBatch): the
      // output of input row v is in-run iff v + 1 < prefix. The rule is
      // monotone in v, so an out-of-run input ends the run for every
      // later output even if a predicate drops it.
      if (c.row + 1 < prefix_rows_) out->bump_random_run();
      if constexpr (kMarked) {
        marks->push_back(c.row);
        for (size_t s = scan_aligned_; s < marked_end_; ++s) {
          marks->push_back(stage_rows[s]);
        }
      }
    }
    ++c.row;
  }
  return c.row == end;
}

void MorselScanDriver::Deliver(size_t m, size_t rows, bool passed,
                               const uint64_t* mark) {
  if (captured_.empty()) return;
  const uint64_t* stage_rows = stage_rows_.data() + m * stage_stride_;
  delivered_ += rows;
  // Without a mark the producer stopped at its cursor (inline, or the
  // morsel is done); with one, right after the last delivered row.
  const uint64_t row = mark == nullptr ? cursors_[m].row : mark[0] + 1;
  const uint64_t scan_rows = ScanCountAt(row) - ScanCountAt(credited_row_);
  scan_->CountEmitted(scan_rows);
  uint64_t ticks = scan_rows;
  for (size_t s = 0; s + 1 < stages_.size(); ++s) {
    uint64_t n = scan_rows;
    if (s >= scan_aligned_) {
      const uint64_t count = mark == nullptr   ? stage_rows[s]
                             : s < marked_end_ ? mark[1 + s - scan_aligned_]
                                               : delivered_;
      n = count - credited_stage_[s];
      credited_stage_[s] = count;
    }
    stages_[s].op->CountEmitted(n);
    ticks += n;
  }
  credited_row_ = row;
  if (passed) {
    // The next morsel's counts start from zero at its first row (a
    // cancelled morsel may have stopped short of its end).
    credited_row_ = MorselEnd(m);
    std::fill(credited_stage_.begin(), credited_stage_.end(), 0);
    delivered_ = 0;
  }
  // A fleet's delivery reaches the table's end before the merge passes
  // the last morsel when the last delivered row is the table's last.
  if (row == total_rows_ || (passed && m + 1 == cursors_.size())) {
    for (Operator* op : captured_) {
      op->state_.store(OpState::kFinished, std::memory_order_relaxed);
    }
  }
  if (ticks != 0) ctx_->Tick(ticks);
}

FusedScan::FusedScan() = default;
FusedScan::~FusedScan() = default;

bool FusedScan::Fill(Operator* op, ExecContext* ctx, RowBatch* out) {
  if (!checked_) {
    // Walk the chain below (and including) `op`, top-down, for a fusable
    // SeqScan → Filter/Project spine; anything else (a join, a non-scan
    // leaf) leaves `op` on its own loop.
    std::vector<MorselStage> stages;
    Operator* cur = op;
    while (driver_ == nullptr) {
      if (auto* scan = dynamic_cast<SeqScanOp*>(cur)) {
        std::reverse(stages.begin(), stages.end());
        driver_ =
            std::make_unique<MorselScanDriver>(scan, std::move(stages), ctx);
      } else if (auto* f = dynamic_cast<FilterOp*>(cur)) {
        stages.push_back(MorselStage{f, f->bound_predicate(), nullptr});
        cur = f->child(0);
      } else if (auto* p = dynamic_cast<ProjectOp*>(cur)) {
        stages.push_back(MorselStage{p, nullptr, p});
        cur = p->child(0);
      } else {
        break;
      }
    }
  }
  checked_ = true;
  if (driver_ == nullptr) return false;
  driver_->Fill(out);
  return true;
}

void FusedScan::Reset() {
  driver_.reset();
  checked_ = false;
}

}  // namespace qpi
