#ifndef QPI_EXEC_AGGREGATE_H_
#define QPI_EXEC_AGGREGATE_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "estimators/group_count.h"
#include "estimators/pipeline_join.h"
#include "exec/operator.h"
#include "plan/plan_node.h"

namespace qpi {

/// One bound aggregate: which function over which input column index.
struct BoundAggregate {
  AggregateSpec::Kind kind = AggregateSpec::Kind::kCountStar;
  size_t column_index = 0;  ///< used by kSum / kAvg
};

/// \brief Observer of aggregation intake, driven by the thread running the
/// pre-emit phase (hashing/sorting) as it consumes the child stream.
///
/// The OLA subsystem (src/ola/) implements this to maintain running
/// approximate answers while the blocking aggregate is still buffering.
class OlaIntakeObserver {
 public:
  virtual ~OlaIntakeObserver() = default;
  /// One intake batch, exactly as delivered by child(0)->NextBatch().
  virtual void OnIntakeBatch(const RowBatch& batch) = 0;
  /// Intake consumed the entire input (never called after cancellation, so
  /// partial drains cannot masquerade as exact answers).
  virtual void OnIntakeComplete() = 0;
};

/// \brief Shared base for hash- and sort-based grouping (γ).
///
/// Both implementations see the entire input in a preprocessing phase
/// (hash partitioning / sorting) before emitting any group, so the number
/// of output groups is known exactly at the end of intake; the paper's
/// GEE/MLE estimators (Section 4.2) refine the estimate *during* intake
/// while the stream is still a random prefix.
class AggregateBaseOp : public Operator {
 public:
  AggregateBaseOp(OperatorPtr child, std::vector<size_t> group_indices,
                  std::vector<BoundAggregate> aggregates, Schema output_schema,
                  std::string label);

  /// Attach the paper's group-count estimation with the given policy.
  void EnableOnceEstimation(GroupPolicy policy = GroupPolicy::kAdaptive,
                            AdaptiveGroupConfig config = {});

  /// Attach push-down estimation through the join pipeline feeding this
  /// aggregate (Section 4.2, last paragraph): the pipeline accumulates the
  /// join-output distribution of the grouping attribute during its driver
  /// pass, and the group count is estimated from it long before this
  /// operator's intake starts.
  void EnableJoinPushDownEstimation(
      std::shared_ptr<PipelineJoinEstimator> pipeline);

  const std::vector<size_t>& group_indices() const { return group_indices_; }
  const std::vector<BoundAggregate>& aggregates() const { return aggregates_; }

  /// Attach an OLA observer fed from ObserveIntakeBatch / IntakeComplete.
  /// Not owned; must outlive the operator. Null detaches.
  void SetOlaObserver(OlaIntakeObserver* observer) { ola_observer_ = observer; }

  double CardinalityEstimate(EstimationMode mode) const override;
  bool CardinalityExact() const override;

  const AdaptiveGroupEstimator* group_estimator() const {
    return estimator_.get();
  }
  uint64_t input_consumed() const { return input_consumed_; }
  bool intake_done() const { return intake_done_; }

  size_t EstimationBytesUsed() const {
    return estimator_ != nullptr
               ? estimator_->stats().histogram().UsedBytes()
               : 0;
  }

 protected:
  /// Combined 64-bit key code of the grouping columns of `row`.
  uint64_t GroupKeyCode(const Row& row) const;

  /// Called by subclasses for every intake batch (estimator bookkeeping):
  /// advances input_consumed by batch.size() and feeds the group estimator
  /// the batch's leading random run, freezing estimation at the first row
  /// past it — the per-tuple freeze decision, at any batch size.
  void ObserveIntakeBatch(const RowBatch& batch);
  void IntakeComplete(uint64_t exact_groups);

  std::vector<size_t> group_indices_;
  std::vector<BoundAggregate> aggregates_;
  bool intake_done_ = false;
  uint64_t exact_groups_ = 0;

 private:
  std::unique_ptr<AdaptiveGroupEstimator> estimator_;
  std::shared_ptr<PipelineJoinEstimator> pushdown_;
  OlaIntakeObserver* ola_observer_ = nullptr;
  uint64_t input_consumed_ = 0;
  bool estimation_frozen_ = false;
};

/// \brief Hash-based aggregation: intake partitions into a hash table, then
/// groups are emitted.
class HashAggregateOp : public AggregateBaseOp {
 public:
  HashAggregateOp(OperatorPtr child, std::vector<size_t> group_indices,
                  std::vector<BoundAggregate> aggregates,
                  Schema output_schema);

 protected:
  void NextBatchImpl(RowBatch* out) override;
  void CloseImpl() override;

 private:
  struct Accumulator {
    Row group_values;
    uint64_t count = 0;
    std::vector<double> sums;
  };

  void DoIntake();
  void FillOutputRow(const Accumulator& acc, Row* out) const;

  // Key: combined group-key code; collisions resolved by chaining on the
  // actual group values.
  std::unordered_map<uint64_t, std::vector<Accumulator>> groups_;
  std::vector<const Accumulator*> emit_order_;
  size_t emit_pos_ = 0;
};

/// \brief Sort-based aggregation: intake sorts on the grouping columns,
/// then equal-key runs are folded into output groups.
class SortAggregateOp : public AggregateBaseOp {
 public:
  SortAggregateOp(OperatorPtr child, std::vector<size_t> group_indices,
                  std::vector<BoundAggregate> aggregates,
                  Schema output_schema);

 protected:
  void NextBatchImpl(RowBatch* out) override;
  void CloseImpl() override;

 private:
  void DoIntake();
  bool EmitGroup(Row* out);

  std::vector<Row> rows_;
  size_t pos_ = 0;
  /// Global aggregation over an empty input owes exactly one zero row.
  bool pending_global_zero_ = false;
};

}  // namespace qpi

#endif  // QPI_EXEC_AGGREGATE_H_
