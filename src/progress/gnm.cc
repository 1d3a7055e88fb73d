#include "progress/gnm.h"

#include <cmath>

#include "progress/ensemble.h"

namespace qpi {

GnmAccountant::GnmAccountant(Operator* root) : root_(root) {
  root_->Visit([this](Operator* op) { ops_.push_back(op); });
}

uint64_t GnmAccountant::CurrentCalls() const {
  uint64_t total = 0;
  for (const Operator* op : ops_) total += op->tuples_emitted();
  return total;
}

double GnmAccountant::RefinedEstimate(const Operator* op) const {
  return RefineEstimate(op, [this](const Operator* running) {
    if (ensemble_ != nullptr) {
      double selected = ensemble_->PublishedEstimate(running);
      if (std::isfinite(selected) && selected >= 0) return selected;
    }
    return running->CurrentCardinalityEstimate();
  });
}

double GnmAccountant::TotalEstimate() const {
  double total = 0;
  for (const Operator* op : ops_) total += RefinedEstimate(op);
  return total;
}

double GnmAccountant::TotalHalfWidth(double confidence,
                                     CiCombine combine) const {
  double sum = 0;
  double sum_sq = 0;
  for (const Operator* op : ops_) {
    if (op->state() == OpState::kRunning) {
      double w = op->CurrentCardinalityHalfWidth(confidence);
      sum += w;
      sum_sq += w * w;
    }
  }
  return combine == CiCombine::kConservativeSum ? sum : std::sqrt(sum_sq);
}

GnmSnapshot GnmAccountant::SnapshotWithConfidence(uint64_t tick,
                                                  double confidence,
                                                  CiCombine combine) const {
  GnmSnapshot snap = Snapshot(tick);
  snap.ci_half_width = TotalHalfWidth(confidence, combine);
  return snap;
}

GnmSnapshot GnmAccountant::Snapshot(uint64_t tick) const {
  GnmSnapshot snap;
  snap.tick = tick;
  snap.current_calls = static_cast<double>(CurrentCalls());
  snap.total_estimate = TotalEstimate();
  // T(Q) ≥ C(Q) by definition (work already done is part of the total);
  // an undershooting T̂ — possible mid-batch, when counters advance by a
  // whole batch between estimator refreshes — must not surface as
  // progress above 1.
  if (snap.total_estimate < snap.current_calls) {
    snap.total_estimate = snap.current_calls;
  }
  return snap;
}

}  // namespace qpi
