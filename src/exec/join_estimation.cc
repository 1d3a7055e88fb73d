#include "exec/join_estimation.h"

#include <utility>

#include "common/check.h"

namespace qpi {

void JoinEstimation::EnableBinaryOnce(const Operator* probe,
                                      JoinFlavor flavor) {
  QPI_CHECK(pipeline_ == nullptr);
  once_ = std::make_unique<OnceBinaryJoinEstimator>(
      [probe] { return probe->CurrentCardinalityEstimate(); }, flavor);
}

void JoinEstimation::EnlistInPipeline(
    std::shared_ptr<PipelineJoinEstimator> pipeline, size_t index,
    bool is_lowest) {
  QPI_CHECK(once_ == nullptr);
  pipeline_ = std::move(pipeline);
  pipeline_index_ = index;
  pipeline_lowest_ = is_lowest;
}

void JoinEstimation::BuildComplete() {
  if (once_ != nullptr) once_->BuildComplete();
  if (pipeline_ != nullptr) pipeline_->BuildComplete(pipeline_index_);
}

void JoinEstimation::ProbeComplete() {
  if (once_ != nullptr) once_->ProbeComplete();
  if (pipeline_lowest_) pipeline_->DriverComplete();
}

double JoinEstimation::Estimate(const Operator& join, EstimationMode mode,
                                DriverCounts driver) const {
  if (join.state() == OpState::kFinished) {
    return static_cast<double>(join.tuples_emitted());
  }
  switch (mode) {
    case EstimationMode::kOnce:
      if (PipelineResolved()) {
        return pipeline_->driver_rows_seen() == 0
                   ? join.optimizer_estimate()
                   : pipeline_->EstimateForJoin(pipeline_index_);
      }
      if (once_ != nullptr) {
        return once_->probe_tuples_seen() == 0 ? join.optimizer_estimate()
                                               : once_->Estimate();
      }
      // No preprocessing-phase estimator applies: default to dne (paper
      // Sections 4.1.3 / 4.3).
      [[fallthrough]];
    case EstimationMode::kDne:
      return DriverEstimate<DneEstimator>(join.optimizer_estimate(),
                                          join.tuples_emitted(), driver);
    case EstimationMode::kByte:
      return DriverEstimate<ByteEstimator>(join.optimizer_estimate(),
                                           join.tuples_emitted(), driver);
    case EstimationMode::kNone:
      break;
  }
  return join.optimizer_estimate();
}

double JoinEstimation::HalfWidth(const Operator& join, bool once_mode,
                                 double confidence) const {
  if (join.state() == OpState::kFinished || !once_mode) return 0.0;
  if (PipelineResolved()) {
    return pipeline_->driver_rows_seen() > 0
               ? pipeline_->ConfidenceHalfWidth(pipeline_index_, confidence)
               : 0.0;
  }
  if (once_ != nullptr && once_->probe_tuples_seen() > 0) {
    return once_->ConfidenceHalfWidth(confidence);
  }
  return 0.0;
}

bool JoinEstimation::Exact(const Operator& join, bool once_mode) const {
  if (join.state() == OpState::kFinished) return true;
  if (!once_mode) return false;
  if (PipelineResolved()) return pipeline_->Exact();
  return once_ != nullptr && once_->Exact();
}

}  // namespace qpi
