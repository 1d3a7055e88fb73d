#ifndef QPI_EXEC_GRACE_HASH_JOIN_H_
#define QPI_EXEC_GRACE_HASH_JOIN_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "estimators/baselines.h"
#include "estimators/join_once.h"
#include "estimators/pipeline_join.h"
#include "exec/operator.h"
#include "plan/plan_node.h"

namespace qpi {

class TaskGroup;
class TaskScheduler;

/// \brief Grace hash join with the three-phase structure the paper
/// instruments (Section 4.1.1).
///
/// Phases:
///  1. **Build-partition** — the build input R is read completely and hash
///     partitioned. With ONCE estimation active, the exact join-key
///     histogram N^R is accumulated here, interleaved with partitioning.
///  2. **Probe-partition** — the probe input S is read completely and
///     partitioned. This is the paper's estimation window: each probe key
///     refines D_t, which is exact by the end of the phase, *before any
///     join output exists*.
///  3. **Join** — partitions are joined pairwise. The probe side is
///     re-read clustered by partition, which is precisely the reordering
///     that makes the dne/byte baselines (whose driver consumption is
///     measured here, as in the original systems) fluctuate under skew.
///
/// children[0] is the build input, children[1] the probe input.
class GraceHashJoinOp : public Operator {
 public:
  GraceHashJoinOp(OperatorPtr build, OperatorPtr probe, size_t build_key_index,
                  size_t probe_key_index, std::string label,
                  JoinFlavor join_type = JoinFlavor::kInner);

  /// Conjunctive multi-attribute equijoin (Section 4.1: "join conditions
  /// involving ... conjunctions of multiple attributes"): all key pairs
  /// must match. Estimation uses a composite key code; binary ONCE
  /// estimation applies, pipeline push-down requires single-key joins.
  GraceHashJoinOp(OperatorPtr build, OperatorPtr probe,
                  std::vector<size_t> build_key_indices,
                  std::vector<size_t> probe_key_indices, std::string label,
                  JoinFlavor join_type = JoinFlavor::kInner);
  ~GraceHashJoinOp() override;

  /// Attach the paper's binary estimator (requires a probe input that
  /// starts as a random stream).
  void EnableBinaryOnceEstimation();

  /// Enlist this join as member `index` of a pipeline chain; the lowest
  /// member (`is_lowest` true) feeds driver rows to the shared estimator.
  void EnlistInPipeline(std::shared_ptr<PipelineJoinEstimator> pipeline,
                        size_t index, bool is_lowest);

  double CardinalityEstimate(EstimationMode mode) const override;
  double CurrentCardinalityHalfWidth(double confidence) const override;
  bool CardinalityExact() const override;

  size_t num_key_columns() const { return build_key_indices_.size(); }
  size_t build_key_index() const { return build_key_indices_[0]; }
  size_t probe_key_index() const { return probe_key_indices_[0]; }
  JoinFlavor join_type() const { return join_type_; }

  /// Partition count after Open's normalization to a power of two.
  size_t num_partitions() const { return num_partitions_; }

  /// Run the (sequential, ONCE-instrumented) build and probe-partition
  /// phases now, leaving only the join phase for NextBatch. No-op if
  /// the phases already ran. Benches use this to time the join phase in
  /// isolation; parallel join workers are only launched by the first
  /// NextBatch, so the timed region includes their whole lifetime.
  void PreparePartitions();

  // --- observability for benches/tests -------------------------------------
  uint64_t probe_partition_consumed() const {
    return probe_partition_consumed_;
  }
  uint64_t join_driver_consumed() const {
    return join_driver_consumed_.load(std::memory_order_relaxed);
  }
  const OnceBinaryJoinEstimator* once_estimator() const { return once_.get(); }
  const PipelineJoinEstimator* pipeline_estimator() const {
    return pipeline_.get();
  }
  std::shared_ptr<PipelineJoinEstimator> shared_pipeline_estimator() const {
    return pipeline_;
  }
  size_t pipeline_index() const { return pipeline_index_; }

  /// dne / byte estimates regardless of the active mode (for side-by-side
  /// comparison harnesses).
  double DneEstimate() const;
  double ByteEstimate() const;

  /// Histogram memory consumed by estimation at this operator.
  size_t EstimationBytesUsed() const;

 protected:
  Status OpenImpl() override;
  void NextBatchImpl(RowBatch* out) override;
  void CloseImpl() override;

 private:
  enum class Phase { kInit, kJoin, kDone };

  void RunBuildPhase();
  void RunProbePartitionPhase();
  /// Sequential join cursor (ctx->exec_workers == 1): the next output row
  /// of the partition-wise join phase; false once every partition is done.
  bool AdvanceJoin(Row* out);

  /// Fan the partition pairs out as subtasks on the query's TaskScheduler
  /// (ctx->exec_workers > 1), at most `join_window_`
  /// partitions ahead of the merge cursor. Each subtask joins one
  /// partition, publishing every completed output batch under `join_mu_`
  /// as it is produced — a bounded-time push, never a blocking wait, which
  /// is what lets any blocked waiter help the fleet (see task_scheduler.h)
  /// — and the driving thread merges batches **in partition-index order**
  /// in NextBatchImpl, draining a partition concurrently with its
  /// production (so a skew-heavy partition's output streams through
  /// instead of materializing wholesale). Partition order is exactly the
  /// sequential join cursor's order, so the emitted stream is
  /// bit-identical to the sequential engine at any worker count; gnm
  /// counters were already order-invariant, and the join phase performs
  /// no estimator observation.
  void StartParallelJoin();
  void SubmitJoinUpTo(size_t limit);
  void JoinPartitionTask(size_t part);
  /// One bounded chunk of partition `part`'s join: probes until the
  /// partition is exhausted (-> kDone) or kJoinReadyCap batches wait
  /// unmerged (-> kStalled, resume state saved). Called with the
  /// partition in state kRunning.
  void RunJoinChunk(size_t part);
  /// Batch pool of the parallel join phase; both require join_mu_.
  /// TakeSpareLocked moves a recycled batch into `*batch` if the pool has
  /// one; RecycleLocked clears a drained batch and returns it to the pool
  /// unless the pool is at its bound (the batch is then left to its owner).
  void TakeSpareLocked(RowBatch* batch);
  void RecycleLocked(RowBatch* batch);

  Operator* build_child() const { return child(0); }
  Operator* probe_child() const { return child(1); }

  /// The ONCE-path estimate (pipeline → binary → dne fallback),
  /// independent of ctx->mode.
  double OnceEstimate() const;

  uint64_t BuildKeyCode(const Row& row) const;
  uint64_t ProbeKeyCode(const Row& row) const;
  bool KeysEqual(const Row& build_row, const Row& probe_row) const;

  std::vector<size_t> build_key_indices_;
  std::vector<size_t> probe_key_indices_;
  JoinFlavor join_type_;
  size_t num_partitions_ = 64;

  Phase phase_ = Phase::kInit;
  std::vector<std::vector<Row>> build_parts_;
  std::vector<std::vector<Row>> probe_parts_;
  // NULL build-side prefix of a probe-outer miss, built once at Open.
  Row null_build_row_;

  // Join-phase cursor.
  size_t current_part_ = 0;
  bool part_table_built_ = false;
  std::unordered_map<uint64_t, std::vector<size_t>> part_table_;
  size_t probe_row_idx_ = 0;
  const std::vector<size_t>* current_matches_ = nullptr;
  size_t match_idx_ = 0;

  uint64_t build_rows_ = 0;
  uint64_t probe_partition_consumed_ = 0;
  // Advanced by parallel join workers (batched flushes) as well as the
  // sequential join cursor; read by monitor-thread estimates.
  std::atomic<uint64_t> join_driver_consumed_{0};

  // Parallel join phase (see StartParallelJoin). A partition's output is
  // produced in bounded chunks: its runner pauses (returns to the fleet,
  // never blocks) once `ready` holds kJoinReadyCap unmerged batches, and
  // the merge driver requeues it after draining — so in-flight join
  // output is capped at ~window × cap batches no matter how skewed one
  // partition's output is. Output batches circulate: the merge swaps each
  // row into the consumer's slot (taking the consumer's old row storage
  // in exchange) and returns the drained batch to `spare_batches_`, from
  // which runners take their next batch — so a steady-state join fills
  // recycled slots in place and allocates no rows.
  struct PartitionResult {
    enum class State : unsigned char {
      kQueued,   ///< a task for the next chunk is (re)submitted
      kRunning,  ///< a runner is producing batches right now
      kStalled,  ///< paused at the ready-cap; the driver requeues it
      kDone,     ///< fully joined, nothing more will be produced
    };
    std::deque<RowBatch> ready;     ///< produced, not yet merged (join_mu_)
    State state = State::kQueued;   ///< guarded by join_mu_
    // Chunk-resume state, owned by the current runner (handed off through
    // the join_mu_ state transitions above).
    std::unordered_map<uint64_t, std::vector<size_t>> table;
    bool table_built = false;
    size_t resume_pi = 0;    ///< next probe row index
    RowBatch partial{0};     ///< in-progress output batch across chunks
  };
  static constexpr size_t kJoinReadyCap = 16;
  std::vector<PartitionResult> part_results_;
  std::mutex join_mu_;
  // Drained output batches awaiting reuse (join_mu_), at most
  // join_window_ × kJoinReadyCap of them.
  std::vector<RowBatch> spare_batches_;
  std::condition_variable join_cv_;
  std::atomic<bool> join_abort_{false};
  TaskScheduler* join_sched_ = nullptr;
  bool parallel_join_ = false;
  size_t join_window_ = 0;     // partitions in flight past the merge cursor
  size_t join_submitted_ = 0;  // partitions handed to the scheduler
  size_t join_emit_part_ = 0;  // merge cursor (driving thread only)
  RowBatch join_merge_batch_{0};  // batch being merged (driving thread only)
  size_t join_emit_row_ = 0;
  // Declared after the members its tasks touch: the group's destructor
  // waits for outstanding partition subtasks.
  std::unique_ptr<TaskGroup> join_group_;

  // Estimation attachments.
  std::unique_ptr<OnceBinaryJoinEstimator> once_;
  std::shared_ptr<PipelineJoinEstimator> pipeline_;
  size_t pipeline_index_ = 0;
  bool pipeline_lowest_ = false;
};

}  // namespace qpi

#endif  // QPI_EXEC_GRACE_HASH_JOIN_H_
