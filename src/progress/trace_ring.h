#ifndef QPI_PROGRESS_TRACE_RING_H_
#define QPI_PROGRESS_TRACE_RING_H_

#include <cstdint>
#include <mutex>
#include <vector>

#include "progress/gnm.h"
#include "progress/snapshot_slot.h"

namespace qpi {

/// One recorded observation of a query's progress curve: the published
/// GnmSnapshot plus the per-operator view behind it, so the accuracy
/// auditor can compute the paper's R = T/T̂ per operator after the fact.
struct TraceSample {
  uint64_t tick = 0;
  double calls = 0;           ///< C(Q) at the sample
  double total_estimate = 0;  ///< T̂(Q) at the sample
  double ci_half_width = 0;
  QueryPhase phase = QueryPhase::kRunning;
  bool terminal = false;  ///< the query's final sample (T̂ = C exactly)
  /// Position of this sample in the offered stream (0-based). Retained
  /// non-terminal samples sit at contiguous multiples of stride() — the
  /// uniform-coverage invariant the decimation maintains.
  uint64_t offer = 0;
  std::vector<uint64_t> op_emitted;  ///< K_i per operator (pre-order)
  std::vector<double> op_estimate;   ///< live N̂_i per operator (pre-order)

  // --- ensemble columns (empty when no ensemble is attached) ---------------
  /// Query-level T̂ under each candidate estimator, indexed by
  /// EstimationMode (size kNumEstimatorCandidates when present).
  std::vector<double> total_candidate;
  /// Per-operator candidate estimates, flattened pre-order:
  /// op_candidate[i * kNumEstimatorCandidates + c] is operator i's N̂ under
  /// candidate c.
  std::vector<double> op_candidate;
  /// The selector's per-operator choice at this sample (values index
  /// EstimationMode; parallel to op_emitted).
  std::vector<uint8_t> op_selected;

  // --- OLA columns (empty when no online aggregation is attached) ----------
  /// Running approximate answer per aggregate and its CI half-width at the
  /// sample's confidence level, in select-list order.
  std::vector<double> ola_estimate;
  std::vector<double> ola_half_width;
  /// Sample rows the estimates are built from (0 until the first batch).
  uint64_t ola_draws = 0;
};

/// \brief Fixed-memory history of one query's progress curve.
///
/// Samples arrive at the publisher's cadence (one per publish interval on
/// the executing worker). Memory stays bounded by decimation: the ring
/// accepts every stride-th offered sample, and when it fills it drops
/// every other retained sample and doubles the stride — so an arbitrarily
/// long query keeps a uniformly spaced curve of at most `capacity` points
/// covering its whole lifetime, never a sliding window that forgets the
/// start. The terminal sample is always retained (RecordTerminal compacts
/// first if needed), so the curve always ends on the exact T̂ = C point.
///
/// Thread-safety: a mutex guards the sample vector. The writer takes it
/// once per publish interval (amortized over hundreds of getnext calls —
/// see bench_trace_overhead) and TRACE readers copy the samples out under
/// it, so a reader never observes a half-written sample.
class TraceRing {
 public:
  static constexpr size_t kDefaultCapacity = 64;

  explicit TraceRing(size_t capacity = kDefaultCapacity);

  /// Offer one sample from the publish path; retained iff the decimation
  /// stride selects it. `sample.offer` is assigned by the ring.
  void Record(TraceSample sample);

  /// Record the query's final sample. Always retained, marked terminal,
  /// and always the last sample in the ring.
  void RecordTerminal(TraceSample sample);

  /// Copy of the retained curve, oldest first. Safe from any thread.
  std::vector<TraceSample> Samples() const;

  size_t capacity() const { return capacity_; }

  /// Current decimation stride (power of two) and samples offered so far.
  uint64_t stride() const;
  uint64_t offered() const;

 private:
  void CompactLocked();

  const size_t capacity_;
  mutable std::mutex mu_;
  uint64_t stride_ = 1;
  uint64_t offered_ = 0;
  std::vector<TraceSample> samples_;
};

/// Build a TraceSample from the accountant's live view. Executing thread
/// only (reads estimator internals via RefinedEstimate).
TraceSample MakeTraceSample(const GnmAccountant& accountant,
                            const GnmSnapshot& snap, QueryPhase phase);

class EstimatorEnsemble;

/// \brief The OLA subsystem's publish-cadence hook (implemented by
/// OlaCollector in src/ola/): the publisher calls OnPublish on every publish
/// so the running approximate answer refreshes on the same cadence as the
/// progress snapshot, and FillTraceSample to stamp the OLA columns onto the
/// sample recorded in the ring. QueryRun::Execute calls PublishFinal once
/// the query has drained, before the terminal is released.
class OlaFeed {
 public:
  virtual ~OlaFeed() = default;
  virtual void OnPublish(uint64_t tick) = 0;
  virtual void PublishFinal(uint64_t tick) = 0;
  virtual void FillTraceSample(TraceSample* sample) = 0;
};

/// \brief The executing worker's publish hook: every `interval` ticks,
/// takes one SnapshotWithConfidence, stores it in the seqlock slot for
/// live watchers, and offers the same observation (plus per-operator
/// counters and estimates) to the trace ring. Pass a null ring to publish
/// without tracing — the configuration bench_trace_overhead baselines
/// against.
///
/// With an ensemble attached, every publish first refreshes the candidate
/// estimators and the selector (EstimatorEnsemble::Observe) *before* the
/// snapshot is taken, so the published T̂ is built from the selections the
/// just-observed counters justify, and the recorded sample additionally
/// carries the per-candidate curves and choice history.
class TracePublisher : public TickObserver {
 public:
  TracePublisher(const GnmAccountant* accountant, const ExecContext* ctx,
                 SnapshotSlot* slot, TraceRing* ring, uint64_t interval,
                 EstimatorEnsemble* ensemble = nullptr)
      : accountant_(accountant),
        ctx_(ctx),
        slot_(slot),
        ring_(ring),
        ensemble_(ensemble),
        interval_(interval == 0 ? 1 : interval) {}

  void OnTick(uint64_t n) override;

  /// Attach the OLA feed (null detaches). Executing thread only.
  void set_ola_feed(OlaFeed* feed) { ola_feed_ = feed; }

  uint64_t ticks() const { return ticks_; }
  uint64_t samples_offered() const { return samples_offered_; }

 private:
  const GnmAccountant* accountant_;
  const ExecContext* ctx_;
  SnapshotSlot* slot_;
  TraceRing* ring_;
  EstimatorEnsemble* ensemble_;
  OlaFeed* ola_feed_ = nullptr;
  uint64_t interval_;
  uint64_t ticks_ = 0;
  uint64_t last_publish_ = 0;
  uint64_t samples_offered_ = 0;
};

}  // namespace qpi

#endif  // QPI_PROGRESS_TRACE_RING_H_
