#ifndef PERFBENCH_QUERY_RUN_H_
#define PERFBENCH_QUERY_RUN_H_

#include <cstdint>
#include <string>

#include "common/task_scheduler.h"
#include "estimators/feedback_cache.h"
#include "oracle.h"
#include "storage/catalog.h"

namespace perfbench {

/// Wall time in milliseconds on the steady clock.
double NowMs();
/// CPU time of the whole process (every thread) in milliseconds.
double ProcessCpuMs();
/// CPU time of the calling thread in milliseconds.
double ThreadCpuMs();

/// Spans and counts of one in-process query, filled only when traced.
struct LayerSample {
  double plan_ms = 0;        ///< SqlPlanner::PlanQuery
  double compile_ms = 0;     ///< CompilePlan + accountant/ensemble/trace setup
  double open_ms = 0;        ///< Operator::Open
  double partition_ms = 0;   ///< GraceHashJoinOp::PreparePartitions (root join)
  double drain_ms = 0;       ///< root NextBatch loop, publish time included
  double drain_cpu_ms = 0;   ///< CPU over the same loop (see QueryRunner)
  double publish_ms = 0;     ///< time inside the publisher's OnTick
  double finalize_ms = 0;    ///< terminal snapshot, OLA final, trace, audit
  uint64_t publishes = 0;    ///< snapshots the publisher offered
  uint64_t news = 0;         ///< operator-new calls during the drain
  uint64_t bytes = 0;        ///< bytes requested during the drain
  uint64_t subtasks = 0;     ///< scheduler subtasks run for this query
  uint64_t stolen = 0;       ///< of which stolen across worker deques
  uint64_t once_selected = 0;   ///< operators whose final pick is ONCE
  uint64_t selected_total = 0;  ///< operators the selector scored
};

/// Outcome of one query: its checks, its end-to-end numbers and, when
/// traced, its layer spans.
struct QueryResult {
  std::string failure;  ///< empty when every check passed
  double latency_ms = 0;
  uint64_t gnm_calls = 0;  ///< terminal C(Q)
  uint64_t rows = 0;
  double err_sum = 0;  ///< Σ |1 − R| over non-degenerate audit checkpoints
  uint64_t err_checkpoints = 0;
  bool root_join = false;  ///< the root is a grace hash join
  LayerSample layers;
};

/// Runs SQL text to its last row and terminal snapshot in-process, wiring
/// GnmAccountant, EstimatorEnsemble, TracePublisher and TraceRing the way
/// QpiServer::RunOne does, with ComputeAccuracyReport at the end of each
/// query and one FeedbackCache shared across the runner's queries.
class QueryRunner {
 public:
  /// `scheduler` (may be null) is attached to every query's context, so
  /// intra-query fan-out runs on the benchmark's own fleet.
  QueryRunner(qpi::Catalog* catalog, size_t exec_workers,
              qpi::TaskScheduler* scheduler)
      : catalog_(catalog), exec_workers_(exec_workers), scheduler_(scheduler) {}

  /// `traced` records the layer spans, CPU time and allocation counts
  /// (allocation counting itself is switched on by the caller). With a
  /// scheduler, CPU and allocations are read process-wide, so only one
  /// query may run at a time; without one, every allocation and CPU cycle
  /// of the query happens on the calling thread and is read per thread,
  /// so runners on other threads may run concurrently. `digest_rows`
  /// checks every output row against the oracle's checksum (untimed
  /// verification rounds only — it costs per-row work).
  QueryResult Run(const Shape& shape, const Expected& expected, bool traced,
                  bool digest_rows);

 private:
  qpi::Catalog* catalog_;
  size_t exec_workers_;
  qpi::TaskScheduler* scheduler_;
  qpi::FeedbackCache feedback_cache_;
  uint64_t next_tag_ = 1;
};

}  // namespace perfbench

#endif  // PERFBENCH_QUERY_RUN_H_
