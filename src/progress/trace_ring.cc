#include "progress/trace_ring.h"

#include <utility>

#include "common/check.h"
#include "progress/ensemble.h"

namespace qpi {

void TracePublisher::OnTick(uint64_t n) {
  ticks_ += n;
  if (ticks_ - last_publish_ < interval_) return;
  last_publish_ = ticks_;
  // Selector first: the snapshot below publishes through the selections
  // this observation produces.
  if (ensemble_ != nullptr) ensemble_->Observe(ticks_);
  if (ola_feed_ != nullptr) ola_feed_->OnPublish(ticks_);
  GnmSnapshot snap = accountant_->SnapshotWithConfidence(
      ticks_, ctx_->confidence, ctx_->ci_combine);
  slot_->Store(snap);
  if (ring_ != nullptr) {
    uint64_t offer;
    if (ring_->TakeOffer(&offer)) {
      TraceSample sample = MakeTraceSample(*accountant_, snap, ctx_->phase());
      if (ensemble_ != nullptr) ensemble_->FillTraceSample(&sample);
      if (ola_feed_ != nullptr) ola_feed_->FillTraceSample(&sample);
      ring_->Store(offer, std::move(sample));
    }
    ++samples_offered_;
  }
}

TraceRing::TraceRing(size_t capacity)
    : capacity_(capacity < 2 ? 2 : capacity) {
  samples_.reserve(capacity_);
}

void TraceRing::CompactLocked() {
  // Keep every other sample (even positions). Retained samples sat at
  // offer indices {0, s, 2s, ...}; afterwards they sit at {0, 2s, 4s, ...}
  // — still contiguous multiples of the doubled stride, so coverage stays
  // uniform from the start of the query.
  size_t w = 0;
  for (size_t r = 0; r < samples_.size(); r += 2) {
    if (w != r) samples_[w] = std::move(samples_[r]);
    ++w;
  }
  samples_.resize(w);
  stride_ *= 2;
}

bool TraceRing::TakeOffer(uint64_t* offer) {
  std::lock_guard<std::mutex> lock(mu_);
  *offer = offered_++;
  if (*offer % stride_ != 0) return false;
  if (samples_.size() == capacity_) CompactLocked();
  // The doubled stride may now reject this offer; the invariant "retained
  // offers are contiguous multiples of stride_" must survive compaction.
  return *offer % stride_ == 0;
}

void TraceRing::Store(uint64_t offer, TraceSample sample) {
  std::lock_guard<std::mutex> lock(mu_);
  sample.offer = offer;
  sample.terminal = false;
  samples_.push_back(std::move(sample));
}

void TraceRing::RecordTerminal(TraceSample sample) {
  std::lock_guard<std::mutex> lock(mu_);
  sample.offer = offered_++;
  sample.terminal = true;
  if (samples_.size() == capacity_) CompactLocked();
  samples_.push_back(std::move(sample));
}

std::vector<TraceSample> TraceRing::Samples() const {
  std::lock_guard<std::mutex> lock(mu_);
  return samples_;
}

uint64_t TraceRing::stride() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stride_;
}

uint64_t TraceRing::offered() const {
  std::lock_guard<std::mutex> lock(mu_);
  return offered_;
}

TraceSample MakeTraceSample(const GnmAccountant& accountant,
                            const GnmSnapshot& snap, QueryPhase phase) {
  TraceSample sample;
  sample.tick = snap.tick;
  sample.calls = snap.current_calls;
  sample.total_estimate = snap.total_estimate;
  sample.ci_half_width = snap.ci_half_width;
  sample.phase = phase;
  const std::vector<const Operator*>& ops = accountant.operators();
  sample.op_emitted.reserve(ops.size());
  sample.op_estimate.reserve(ops.size());
  for (const Operator* op : ops) {
    sample.op_emitted.push_back(op->tuples_emitted());
    sample.op_estimate.push_back(accountant.RefinedEstimate(op));
  }
  return sample;
}

}  // namespace qpi
