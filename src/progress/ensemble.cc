#include "progress/ensemble.h"

#include <cmath>
#include <limits>

namespace qpi {

static_assert(kFeedbackCandidates == kNumEstimatorCandidates,
              "feedback cache candidate arity out of sync");

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

inline double EffectiveScore(double score) {
  return std::isfinite(score) ? score
                              : std::numeric_limits<double>::infinity();
}

}  // namespace

uint64_t PlanFingerprint(const GnmAccountant& accountant) {
  // FNV-1a over the pre-order labels, with each operator's arity mixed in
  // so "same labels, different shape" doesn't collide.
  uint64_t h = 1469598103934665603ULL;
  for (const Operator* op : accountant.operators()) {
    for (char ch : op->label()) {
      h ^= static_cast<unsigned char>(ch);
      h *= 1099511628211ULL;
    }
    h ^= 0x80u + op->num_children();
    h *= 1099511628211ULL;
  }
  return h == 0 ? 1 : h;
}

std::string OperatorKindFromLabel(const std::string& label) {
  size_t cut = label.find_first_of("([");
  return cut == std::string::npos ? label : label.substr(0, cut);
}

EstimatorEnsemble::EstimatorEnsemble(const GnmAccountant* accountant,
                                     const ExecContext* ctx,
                                     FeedbackCache* cache)
    : EstimatorEnsemble(accountant, ctx, cache, Options()) {}

EstimatorEnsemble::EstimatorEnsemble(const GnmAccountant* accountant,
                                     const ExecContext* ctx,
                                     FeedbackCache* cache, Options options)
    : accountant_(accountant),
      ctx_(ctx),
      cache_(cache),
      options_(options),
      fingerprint_(PlanFingerprint(*accountant)) {
  const std::vector<const Operator*>& ops = accountant_->operators();
  ops_.reserve(ops.size());
  index_.reserve(ops.size());
  for (const Operator* op : ops) {
    PerOp state;
    state.op = op;
    state.kind = OperatorKindFromLabel(op->label());
    for (size_t c = 0; c < kNumEstimatorCandidates; ++c) {
      state.score[c] = kNaN;
      state.estimate[c] = kNaN;
      state.prev_estimate[c] = kNaN;
    }
    // Seed from the feedback cache: audited |log R| of past queries with
    // this plan shape (or, cold, this operator kind) becomes the starting
    // score, so a candidate that burned us before starts behind.
    FeedbackCache::Entry prior;
    if (cache_ != nullptr &&
        cache_->Lookup(fingerprint_, state.kind, &prior)) {
      for (size_t c = 0; c < kNumEstimatorCandidates; ++c) {
        if (prior.count[c] > 0 && std::isfinite(prior.score[c])) {
          state.score[c] = options_.prior_scale * prior.score[c];
        }
      }
      size_t argmin = 0;
      for (size_t c = 1; c < kNumEstimatorCandidates; ++c) {
        if (EffectiveScore(state.score[c]) <
            EffectiveScore(state.score[argmin])) {
          argmin = c;
        }
      }
      state.selected = argmin;
    }
    index_.emplace(op, ops_.size());
    ops_.push_back(std::move(state));
  }
}

double EstimatorEnsemble::LossFor(const PerOp& state, size_t candidate,
                                  double estimate, double emitted) const {
  if (!std::isfinite(estimate) || estimate <= 0) {
    return options_.unavailable_loss;
  }
  double instability = 0;
  double prev = state.prev_estimate[candidate];
  if (std::isfinite(prev) && prev > 0) {
    instability = std::fabs(std::log(estimate / prev));
  }
  // An estimate below the output already produced is provably wrong —
  // realized progress is the one ground truth available mid-query.
  double violation = std::log((emitted + 1.0) / (estimate + 1.0));
  if (violation < 0) violation = 0;
  return options_.instability_weight * instability +
         options_.violation_weight * violation;
}

void EstimatorEnsemble::Observe(uint64_t tick) {
  (void)tick;
  // Pass 1: refresh candidate estimates and scores at every running
  // operator, then re-run the hysteresis selection.
  for (PerOp& state : ops_) {
    if (state.op->state() != OpState::kRunning) continue;
    double emitted = static_cast<double>(state.op->tuples_emitted());
    for (size_t c = 0; c < kNumEstimatorCandidates; ++c) {
      double estimate =
          state.op->CardinalityEstimate(static_cast<EstimationMode>(c));
      double loss = LossFor(state, c, estimate, emitted);
      state.score[c] = std::isfinite(state.score[c])
                           ? (1.0 - options_.ewma_alpha) * state.score[c] +
                                 options_.ewma_alpha * loss
                           : loss;
      state.prev_estimate[c] = estimate;
      state.estimate[c] = estimate;
    }
    size_t argmin = 0;
    for (size_t c = 1; c < kNumEstimatorCandidates; ++c) {
      if (EffectiveScore(state.score[c]) <
          EffectiveScore(state.score[argmin])) {
        argmin = c;
      }
    }
    if (argmin != state.selected &&
        EffectiveScore(state.score[argmin]) <
            options_.switch_margin *
                EffectiveScore(state.score[state.selected])) {
      state.selected = argmin;
    }
    ++state.scored_observations;
  }

  // Pass 2: per-candidate query totals — each candidate's own T̂ curve,
  // with not-yet-started operators refined through that same candidate's
  // view of their inputs.
  for (size_t c = 0; c < kNumEstimatorCandidates; ++c) {
    auto running = [this, c](const Operator* op) {
      double estimate = ops_[index_.at(op)].estimate[c];
      if (!std::isfinite(estimate) || estimate < 0) {
        estimate = static_cast<double>(op->tuples_emitted());
      }
      return estimate;
    };
    double total = 0;
    for (const PerOp& state : ops_) total += RefineEstimate(state.op, running);
    totals_[c] = total;
  }
  ++observations_;
}

double EstimatorEnsemble::PublishedEstimate(const Operator* op) const {
  if (observations_ == 0) return kNaN;
  auto it = index_.find(op);
  if (it == index_.end()) return kNaN;
  const PerOp& state = ops_[it->second];
  if (!options_.blend) return state.estimate[state.selected];
  double weight_sum = 0;
  double blended = 0;
  for (size_t c = 0; c < kNumEstimatorCandidates; ++c) {
    double estimate = state.estimate[c];
    if (!std::isfinite(estimate) || estimate < 0) continue;
    double w =
        1.0 / (EffectiveScore(state.score[c]) + options_.blend_epsilon);
    weight_sum += w;
    blended += w * estimate;
  }
  if (weight_sum <= 0) return state.estimate[state.selected];
  return blended / weight_sum;
}

EstimationMode EstimatorEnsemble::SelectedFor(const Operator* op) const {
  auto it = index_.find(op);
  if (it == index_.end()) return EstimationMode::kOnce;
  return static_cast<EstimationMode>(ops_[it->second].selected);
}

double EstimatorEnsemble::Score(const Operator* op,
                                EstimationMode candidate) const {
  auto it = index_.find(op);
  if (it == index_.end()) return kNaN;
  return ops_[it->second].score[static_cast<size_t>(candidate)];
}

void EstimatorEnsemble::FillTraceSample(TraceSample* sample) const {
  if (observations_ == 0) return;
  sample->total_candidate.assign(totals_, totals_ + kNumEstimatorCandidates);
  sample->op_candidate.clear();
  sample->op_candidate.reserve(ops_.size() * kNumEstimatorCandidates);
  sample->op_selected.clear();
  sample->op_selected.reserve(ops_.size());
  for (const PerOp& state : ops_) {
    for (size_t c = 0; c < kNumEstimatorCandidates; ++c) {
      sample->op_candidate.push_back(state.estimate[c]);
    }
    sample->op_selected.push_back(static_cast<uint8_t>(state.selected));
  }
}

void EstimatorEnsemble::Finalize(const AccuracyReport& report) {
  if (cache_ == nullptr || !report.valid) return;
  size_t n = report.ops.size() < ops_.size() ? report.ops.size() : ops_.size();
  for (size_t i = 0; i < n; ++i) {
    const OperatorAccuracy& audited = report.ops[i];
    for (size_t c = 0; c < kNumEstimatorCandidates; ++c) {
      double sum = 0;
      size_t used = 0;
      for (size_t k = 0; k < audited.candidate_r.size() &&
                         k < report.checkpoints.size();
           ++k) {
        // Degenerate checkpoints (satisfied only by the terminal sample,
        // R = 1 by construction) carry no information about the candidate
        // and must not flatter its prior.
        if (report.checkpoints[k].degenerate) continue;
        const std::vector<double>& r_by_candidate = audited.candidate_r[k];
        if (c >= r_by_candidate.size()) continue;
        double r = r_by_candidate[c];
        if (!std::isfinite(r) || r <= 0) continue;
        sum += std::fabs(std::log(r));
        ++used;
      }
      if (used > 0) {
        cache_->Update(fingerprint_, ops_[i].kind, c, sum / used);
      }
    }
  }
}

std::vector<uint64_t> EstimatorEnsemble::SelectedCounts() const {
  std::vector<uint64_t> counts(kNumEstimatorCandidates, 0);
  for (const PerOp& state : ops_) {
    if (state.scored_observations == 0) continue;
    ++counts[state.selected];
  }
  return counts;
}

}  // namespace qpi
