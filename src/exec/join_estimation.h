#ifndef QPI_EXEC_JOIN_ESTIMATION_H_
#define QPI_EXEC_JOIN_ESTIMATION_H_

#include <algorithm>
#include <cstdint>
#include <memory>

#include "common/row_batch.h"
#include "estimators/baselines.h"
#include "estimators/join_once.h"
#include "estimators/pipeline_join.h"
#include "exec/operator.h"

namespace qpi {

/// \brief The ONCE estimation protocol of the grace hash and sort-merge
/// joins (paper Sections 4.1.1, 4.1.2 and the 4.1.4 push-down), owned by
/// each. The join feeds it every build row, then the probe rows of its
/// first probe pass: each batch's leading `random_run` rows refine the
/// estimate and the first row outside the run freezes it (Section 4.4).
/// Only the lowest member of a pipeline chain feeds the shared estimator
/// its driver rows. The read side answers pipeline → binary ONCE → dne
/// (the optimizer's number before the first probe row); dne and byte read
/// the driver counts the join supplies. The nested-loops join
/// (`nl_join.h`) does not use it: its estimator reads each outer tuple
/// during output and answers dne before the first, so it shares only the
/// dne/byte helper (`DriverEstimate`).
class JoinEstimation {
 public:
  /// Attach binary ONCE; `probe`'s live cardinality estimate is |S|.
  void EnableBinaryOnce(const Operator* probe, JoinFlavor flavor);
  /// Enlist as member `index` of a pipeline chain; the lowest member
  /// (`is_lowest`) feeds the driver rows.
  void EnlistInPipeline(std::shared_ptr<PipelineJoinEstimator> pipeline,
                        size_t index, bool is_lowest);

  /// One batch of the build pass; `key(i)` is row i's join-key code and
  /// `null_key(i)` whether that key has a NULL component. A NULL key
  /// matches nothing, so no statistic counts it.
  template <typename KeyFn, typename NullFn>
  void ObserveBuild(const RowBatch& batch, KeyFn key, NullFn null_key);
  void BuildComplete();

  /// One batch of the probe pass. `codes(run)` returns the join-key codes
  /// of the batch's first `run` rows and `null_key(i)` whether row i's key
  /// has a NULL component; both are called only while binary ONCE still
  /// refines. A NULL probe key counts as a key with no build match.
  template <typename CodesFn, typename NullFn>
  void ObserveProbe(const RowBatch& batch, CodesFn codes, NullFn null_key);
  void ProbeComplete();

  /// `join`'s estimate of its output cardinality under `mode`; `driver`
  /// holds the dne/byte inputs, the driver (probe) rows the join's output
  /// phase has consumed and the driver total.
  double Estimate(const Operator& join, EstimationMode mode,
                  DriverCounts driver) const;
  /// Half-width of the `confidence` interval around the ONCE estimate;
  /// 0 outside ONCE mode (`once_mode` false), once `join` has finished,
  /// and while no estimator has seen a probe row.
  double HalfWidth(const Operator& join, bool once_mode,
                   double confidence) const;
  bool Exact(const Operator& join, bool once_mode) const;

  const OnceBinaryJoinEstimator* once() const { return once_.get(); }
  const std::shared_ptr<PipelineJoinEstimator>& pipeline() const {
    return pipeline_;
  }

 private:
  /// Whether the pipeline estimator answers for this join.
  bool PipelineResolved() const {
    return pipeline_ != nullptr && pipeline_->Resolved(pipeline_index_);
  }

  std::unique_ptr<OnceBinaryJoinEstimator> once_;
  std::shared_ptr<PipelineJoinEstimator> pipeline_;
  size_t pipeline_index_ = 0;
  bool pipeline_lowest_ = false;
};

template <typename KeyFn, typename NullFn>
void JoinEstimation::ObserveBuild(const RowBatch& batch, KeyFn key,
                                  NullFn null_key) {
  const size_t n = batch.size();
  if (once_ != nullptr) {
    for (size_t i = 0; i < n; ++i) {
      if (!null_key(i)) once_->ObserveBuildKey(key(i));
    }
  }
  if (pipeline_ != nullptr) {
    for (size_t i = 0; i < n; ++i) {
      pipeline_->ObserveBuildRow(pipeline_index_, batch.row(i));
    }
  }
}

template <typename CodesFn, typename NullFn>
void JoinEstimation::ObserveProbe(const RowBatch& batch, CodesFn codes,
                                  NullFn null_key) {
  const size_t n = batch.size();
  const size_t run = static_cast<size_t>(
      std::min<uint64_t>(batch.random_run(), n));
  if (once_ != nullptr && !once_->frozen()) {
    // Observe in row order: the keys between NULL keys in one call each.
    const uint64_t* keys = codes(run);
    size_t start = 0;
    for (size_t i = 0; i < run; ++i) {
      if (!null_key(i)) continue;
      once_->ObserveProbeKeys(keys + start, i - start);
      once_->ObserveNullProbeKey();
      start = i + 1;
    }
    once_->ObserveProbeKeys(keys + start, run - start);
    if (run < n) once_->Freeze();
  }
  if (pipeline_lowest_ && !pipeline_->frozen()) {
    for (size_t i = 0; i < run; ++i) pipeline_->ObserveDriverRow(batch.row(i));
    if (run < n) pipeline_->Freeze();
  }
}

}  // namespace qpi

#endif  // QPI_EXEC_JOIN_ESTIMATION_H_
