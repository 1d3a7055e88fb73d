#ifndef QPI_OLA_OLA_COLLECTOR_H_
#define QPI_OLA_OLA_COLLECTOR_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "exec/aggregate.h"
#include "exec/exec_context.h"
#include "ola/ola_snapshot.h"
#include "ola/ola_state.h"
#include "progress/trace_ring.h"

namespace qpi {

/// \brief Online-aggregation driver for one aggregate query.
///
/// Sits on both sides of the executing thread's loop: as an
/// OlaIntakeObserver it sees every batch the blocking aggregate buffers and
/// folds the batch's observable rows into mergeable per-aggregate states
/// (PF-OLA style: a private shard per batch, merged in delivery order, so
/// the state is bit-identical at any worker count); as an OlaFeed it
/// refreshes the running `(estimate, CI half-width)` pairs on the
/// publisher's cadence, stores them in the seqlock slot for watchers, and
/// checks the stop condition.
///
/// Estimation model (Horvitz–Thompson scale-up with CLT intervals): with
/// N̂ the aggregate input's live cardinality estimate (half-width w at the
/// OLA confidence), ȳ the running mean of the observed draws and se its
/// standard error,
///   COUNT(*): est = N̂,     hw = w
///   SUM(x):   est = N̂·ȳ,   hw = sqrt((N̂·z·se)² + (ȳ·w)²)   (delta method)
///   AVG(x):   est = ȳ,     hw = z·se
/// Over a sampled scan the draws are the batches' leading random runs and
/// observation freezes when the run ends; over a join output (no random
/// run) every delivered row is a draw and the input's ONCE join CI carries
/// the scale uncertainty. Once intake completes the exact totals take over
/// (half-widths drop to 0, `exact` is set).
class OlaCollector : public OlaFeed, public OlaIntakeObserver {
 public:
  /// `agg`, `ctx` and `slot` must outlive the collector; `agg` must carry
  /// 1..OlaSnapshot::kMaxAggregates aggregate functions.
  OlaCollector(AggregateBaseOp* agg, ExecContext* ctx, OlaSnapshotSlot* slot);

  /// Invoked after every publish (and the final one) with the snapshot just
  /// stored; the server hangs its metrics updates here.
  void set_publish_hook(std::function<void(const OlaSnapshot&)> hook) {
    publish_hook_ = std::move(hook);
  }

  /// Output-column names of the tracked aggregates, select-list order.
  const std::vector<std::string>& labels() const { return labels_; }

  /// True once the stop condition fired and cancellation was requested.
  bool stop_requested() const { return stop_requested_; }

  /// Compute the current snapshot (executing thread only — reads live
  /// estimator internals of the aggregate's input).
  OlaSnapshot Snapshot(uint64_t tick) const;

  // OlaIntakeObserver:
  void OnIntakeBatch(const RowBatch& batch) override;
  void OnIntakeComplete() override;

  // OlaFeed:
  void OnPublish(uint64_t tick) override;
  /// Publish the query's final OLA observation. QueryRun::Execute calls
  /// this before the terminal state is released, so a watcher that sees
  /// the terminal is guaranteed to read this snapshot or a later one from
  /// the slot.
  void PublishFinal(uint64_t tick) override;
  void FillTraceSample(TraceSample* sample) override;

 private:
  struct AggTrack {
    AggregateSpec::Kind kind = AggregateSpec::Kind::kCountStar;
    size_t column_index = 0;
    OlaAggregateState state;
    double exact_sum = 0.0;  ///< over every intake row, not just draws
  };

  void MaybeStop(const OlaSnapshot& snap);

  AggregateBaseOp* agg_;
  ExecContext* ctx_;
  OlaSnapshotSlot* slot_;
  std::function<void(const OlaSnapshot&)> publish_hook_;
  std::vector<AggTrack> tracks_;
  std::vector<std::string> labels_;
  uint64_t draws_ = 0;
  uint64_t exact_rows_ = 0;
  bool mode_decided_ = false;
  bool cluster_mode_ = false;  ///< no random prefix: every row is a draw
  bool frozen_ = false;        ///< random prefix ended; draws stop growing
  bool exact_ = false;         ///< intake complete; answers exact
  bool stop_requested_ = false;
  OlaSnapshot last_;  ///< most recently published snapshot (trace columns)
};

/// Attach online aggregation to a compiled plan: finds the topmost
/// aggregation operator in `root`, wires a collector between it and `slot`,
/// and returns it. Fails with InvalidArgument when the plan has no
/// aggregation, the aggregate carries no aggregate functions, or more than
/// OlaSnapshot::kMaxAggregates of them.
Status AttachOla(Operator* root, ExecContext* ctx, OlaSnapshotSlot* slot,
               std::unique_ptr<OlaCollector>* out);

}  // namespace qpi

#endif  // QPI_OLA_OLA_COLLECTOR_H_
