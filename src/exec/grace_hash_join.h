#ifndef QPI_EXEC_GRACE_HASH_JOIN_H_
#define QPI_EXEC_GRACE_HASH_JOIN_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "exec/join_estimation.h"
#include "exec/operator.h"
#include "plan/plan_node.h"

namespace qpi {

class OrderedMerge;

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
///     Partitions are cut into probe-row join units run by an
///     OrderedMerge: on the fleet with exec_workers > 1, inline on the
///     driving thread at one worker (see StartJoinUnits). The row stream
///     is the same at any worker count; the batches are not. At one
///     worker every output batch but the last is full; on the fleet the
///     merge hands each unit's batches to the consumer whole, so a batch
///     may end short at the end of a unit. No estimator reads join batch
///     boundaries: the phase observes nothing and its output carries a
///     random_run of 0.
///
/// Estimation in phases 1 and 2 is the shared JoinEstimation protocol.
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

  /// Where the compiler attaches binary ONCE (for a probe input that
  /// starts as a random stream) or a pipeline chain's estimator.
  JoinEstimation& estimation() { return estimation_; }

  double CardinalityEstimate(EstimationMode mode) const override;
  double CurrentCardinalityHalfWidth(double confidence) const override;
  bool CardinalityExact() const override;

  size_t num_key_columns() const { return build_key_indices_.size(); }
  size_t build_key_index() const { return build_key_indices_[0]; }
  size_t probe_key_index() const { return probe_key_indices_[0]; }
  JoinFlavor join_type() const { return join_type_; }

  /// Partition count after Open's normalization to a power of two.
  size_t num_partitions() const { return num_partitions_; }

  /// Join units of the running join phase, at any worker count: 0 before
  /// its first batch and after Close.
  size_t num_join_units() const { return join_units_.size(); }

  /// Run the (sequential, ONCE-instrumented) build and probe-partition
  /// phases now, leaving only the join phase for NextBatch. No-op if
  /// the phases already ran. Benches use this to time the join phase in
  /// isolation; join units are only started by the first NextBatch, so
  /// the timed region includes their whole lifetime.
  void PreparePartitions();

  // --- observability for benches/tests -------------------------------------
  uint64_t probe_partition_consumed() const {
    return probe_partition_consumed_;
  }
  uint64_t join_driver_consumed() const { return join_driver_consumed_; }
  const OnceBinaryJoinEstimator* once_estimator() const {
    return estimation_.once();
  }
  const PipelineJoinEstimator* pipeline_estimator() const {
    return estimation_.pipeline().get();
  }
  std::shared_ptr<PipelineJoinEstimator> shared_pipeline_estimator() const {
    return estimation_.pipeline();
  }

 protected:
  Status OpenImpl() override;
  void NextBatchImpl(RowBatch* out) override;
  void CloseImpl() override;

 private:
  void RunBuildPhase();
  void RunProbePartitionPhase();

  /// Build-row position that ends a chain (and marks a cursor whose
  /// current probe row has not been looked up yet).
  static constexpr uint32_t kNoRow = UINT32_MAX;

  /// One grace partition: its rows stored row-major in chunks of about
  /// 32 KiB of Values, next to each row's join-key code. A chunk holds a
  /// power-of-two number of rows, so row i starts at
  /// chunks_[i >> shift_] + (i & mask_) * width_. The first chunk grows by
  /// doubling, so a small partition stays small; later chunks are reserved
  /// at full size, so a large one is never copied as it grows. Rows are
  /// copied in: the input batch keeps its slots' storage for its refill.
  class Partition {
   public:
    explicit Partition(size_t width);
    void Append(const Row& row, uint64_t code);
    size_t size() const { return codes_.size(); }
    std::span<const Value> row(size_t i) const {
      return {chunks_[i >> shift_].data() + (i & mask_) * width_, width_};
    }
    uint64_t code(size_t i) const { return codes_[i]; }

   private:
    size_t width_;
    unsigned shift_;
    size_t mask_;
    std::vector<std::vector<Value>> chunks_;
    std::vector<uint64_t> codes_;
  };

  /// Chained hash table over one build partition's rows: head[bucket] is
  /// the first build row of a chain and next[row] the one after it. Rows
  /// are chained back to front, so a chain lists them in ascending order.
  /// Every code of one partition shares PartitionMix's low bits, so the
  /// bucket is taken from the top bits of a Fibonacci multiply instead.
  struct JoinTable {
    std::vector<uint32_t> head;
    std::vector<uint32_t> next;
    unsigned shift = 63;

    void Build(const Partition& rows);
    size_t Bucket(uint64_t code) const {
      return (code * 0x9e3779b97f4a7c15ULL) >> shift;
    }
  };

  /// One partition's build table, shared read-only by all of that
  /// partition's join units: the first unit to need it builds it under
  /// `once`, and the unit that brings `units_left` to zero frees it.
  struct SharedTable {
    std::once_flag once;
    JoinTable table;
    std::atomic<size_t> units_left{0};
  };

  /// Resume point of a join unit over its partition's probe rows
  /// [probe_row, probe_end), probing the partition's SharedTable; owned
  /// by whichever runner holds the unit.
  struct PartitionCursor {
    bool table_built = false;  ///< the SharedTable is built
    bool done = false;         ///< exhausted, or abandoned on cancel
    size_t probe_row = 0;      ///< next probe row index
    size_t probe_end = 0;      ///< end of the probe-row range
    /// Next chain entry to check for the current probe row; kNoRow while
    /// that row has not been looked up yet.
    uint32_t match = kNoRow;
    /// Probe rows of the range looked up so far.
    uint64_t consumed = 0;
  };

  /// The join phase's one loop: continue partition `part` from `*cursor`,
  /// appending to `out` until it is full, the cursor's probe range is
  /// exhausted or the query is cancelled (either of the last two sets
  /// cursor->done; cancellation is checked every 1K probe rows). Returns
  /// the probe rows this call consumed; counting them, and the emitted
  /// rows, is the caller's job.
  uint64_t JoinPartitionInto(size_t part, PartitionCursor* cursor,
                             RowBatch* out);

  /// Run the join through an OrderedMerge, inline at one worker. The
  /// unit of work is a *join unit*: a contiguous probe-row range of one
  /// partition, probing that partition's SharedTable. Units are cut so
  /// each one's estimated output (the probe pass's partition weight, see
  /// part_weight_) is about OrderedMerge::UnitTarget rows. Units are
  /// ordered by (partition, probe range), so the merged row stream is the
  /// same at any worker count; the merge credits the driver consumption in
  /// unit order (CreditUnit), and the join phase performs no estimator
  /// observation. The merge takes unit batches whole
  /// (OrderedMerge::Boundaries::kUnit).
  void StartJoinUnits();
  /// OrderedMerge producer: run the kernel for join unit `unit`,
  /// appending to `out`, advance the unit's driver consumption (and mark
  /// it with a fleet), and free the shared table once its partition's last
  /// unit is done.
  bool ProduceUnit(size_t unit, RowBatch* out, std::vector<uint64_t>* marks);
  /// OrderedMerge delivery callback: credit join_driver_consumed_ with
  /// the unit's probe rows consumed through the delivered batch.
  void CreditUnit(size_t unit, bool passed, const uint64_t* mark);

  Operator* build_child() const { return child(0); }
  Operator* probe_child() const { return child(1); }

  bool KeysEqual(const Value* build_row, const Value* probe_row) const;

  std::vector<size_t> build_key_indices_;
  std::vector<size_t> probe_key_indices_;
  JoinFlavor join_type_;
  size_t num_partitions_ = 64;

  bool partitioned_ = false;  // the build and probe passes have run
  std::vector<Partition> build_parts_;
  std::vector<Partition> probe_parts_;
  // NULL build-side prefix of a probe-outer miss, built once at Open.
  Row null_build_row_;

  uint64_t probe_partition_consumed_ = 0;
  // Credited per delivered unit batch, in unit order (CreditUnit).
  uint64_t join_driver_consumed_ = 0;
  // The merge cursor's unit's consumption credited so far.
  uint64_t unit_credited_ = 0;

  // Estimated join work per partition, Σ (1 + N^R(key)) over its probe
  // rows, accumulated by the probe-partition pass from ONCE's exact build
  // histogram. Filled only with exec_workers > 1 and binary ONCE attached;
  // otherwise a unit's weight is its probe-row count.
  std::vector<uint64_t> part_weight_;

  // Join phase (see StartJoinUnits): each unit's cursor is owned by
  // whichever runner holds the unit. The kernel writes the cursor per
  // row, so units running side by side keep off each other's cache
  // lines.
  struct alignas(64) JoinUnit {
    size_t part = 0;
    PartitionCursor cursor;
  };
  std::vector<JoinUnit> join_units_;
  std::vector<SharedTable> part_tables_;  // one per partition
  JoinEstimation estimation_;

  // Declared last: destroying the merge waits for the unit runners, which
  // touch the partitions, units and tables above.
  std::unique_ptr<OrderedMerge> merge_;
};

}  // namespace qpi

#endif  // QPI_EXEC_GRACE_HASH_JOIN_H_
