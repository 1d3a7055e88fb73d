#include "progress/accuracy_audit.h"

#include <cmath>
#include <limits>

#include "common/json.h"

namespace qpi {

namespace {

double Ratio(double truth, double estimate) {
  if (!std::isfinite(estimate) || estimate <= 0) {
    // No usable estimate at the checkpoint (estimator not yet live, or a
    // non-finite value that the wire would carry as null): the ratio is
    // unavailable, not 0 or inf.
    return std::numeric_limits<double>::quiet_NaN();
  }
  return truth / estimate;
}

}  // namespace

AccuracyReport ComputeAccuracyReport(
    const std::vector<TraceSample>& samples,
    const std::vector<std::string>& op_labels) {
  AccuracyReport report;
  if (samples.empty() || !samples.back().terminal) return report;
  const TraceSample& final_sample = samples.back();
  report.valid = true;
  report.final_calls = final_sample.calls;

  report.ops.reserve(op_labels.size());
  for (size_t i = 0; i < op_labels.size(); ++i) {
    OperatorAccuracy op;
    op.label = op_labels[i];
    op.final_emitted = i < final_sample.op_emitted.size()
                           ? static_cast<double>(final_sample.op_emitted[i])
                           : 0.0;
    report.ops.push_back(std::move(op));
  }

  for (double fraction : kAuditCheckpoints) {
    // The checkpoint sample: the first observation at or past `fraction`
    // of the *true* total — i.e. what the estimator believed when the
    // query had actually done that share of its work. The terminal sample
    // itself qualifies for late checkpoints on short traces, but then
    // R = 1 holds by construction (T̂ = C at the end) and the checkpoint
    // is flagged degenerate so estimator-scoring consumers can skip it.
    double threshold = fraction * report.final_calls;
    const TraceSample* at = nullptr;
    for (const TraceSample& sample : samples) {
      if (sample.calls >= threshold) {
        at = &sample;
        break;
      }
    }
    if (at == nullptr) at = &final_sample;

    CheckpointAccuracy cp;
    cp.fraction = fraction;
    cp.tick = at->tick;
    cp.calls = at->calls;
    cp.estimate = at->total_estimate;
    cp.r = Ratio(report.final_calls, at->total_estimate);
    cp.degenerate = at->terminal;
    cp.candidate_r.reserve(at->total_candidate.size());
    for (double total : at->total_candidate) {
      cp.candidate_r.push_back(Ratio(report.final_calls, total));
    }
    size_t num_candidates = cp.candidate_r.size();
    report.checkpoints.push_back(std::move(cp));

    for (size_t i = 0; i < report.ops.size(); ++i) {
      double estimate = i < at->op_estimate.size() ? at->op_estimate[i]
                                                   : std::numeric_limits<double>::quiet_NaN();
      report.ops[i].r.push_back(Ratio(report.ops[i].final_emitted, estimate));
      std::vector<double> by_candidate;
      by_candidate.reserve(num_candidates);
      for (size_t c = 0; c < num_candidates; ++c) {
        size_t flat = i * num_candidates + c;
        double cand = flat < at->op_candidate.size()
                          ? at->op_candidate[flat]
                          : std::numeric_limits<double>::quiet_NaN();
        by_candidate.push_back(Ratio(report.ops[i].final_emitted, cand));
      }
      report.ops[i].candidate_r.push_back(std::move(by_candidate));
    }
  }

  // Terminal selector choices, when the trace recorded them.
  for (size_t i = 0; i < report.ops.size(); ++i) {
    if (i < final_sample.op_selected.size()) {
      report.ops[i].selected = final_sample.op_selected[i];
    }
  }
  return report;
}

std::string AccuracyReportJson(const AccuracyReport& report) {
  if (!report.valid) return "null";
  std::string out = "{";
  JsonAppendKey("final_calls", &out);
  out.append(JsonNumberString(report.final_calls));
  JsonAppendKey("checkpoints", &out);
  out.push_back('[');
  for (size_t i = 0; i < report.checkpoints.size(); ++i) {
    const CheckpointAccuracy& cp = report.checkpoints[i];
    if (i > 0) out.push_back(',');
    out.push_back('{');
    JsonAppendKey("fraction", &out);
    out.append(JsonNumberString(cp.fraction));
    JsonAppendKey("tick", &out);
    out.append(JsonNumberString(static_cast<double>(cp.tick)));
    JsonAppendKey("calls", &out);
    out.append(JsonNumberString(cp.calls));
    JsonAppendKey("estimate", &out);
    out.append(JsonNumberString(cp.estimate));
    JsonAppendKey("r", &out);
    out.append(JsonNumberString(cp.r));
    JsonAppendKey("degenerate", &out);
    out.append(cp.degenerate ? "true" : "false");
    if (!cp.candidate_r.empty()) {
      JsonAppendKey("candidates", &out);
      out.push_back('[');
      for (size_t k = 0; k < cp.candidate_r.size(); ++k) {
        if (k > 0) out.push_back(',');
        out.append(JsonNumberString(cp.candidate_r[k]));
      }
      out.push_back(']');
    }
    out.push_back('}');
  }
  out.push_back(']');
  JsonAppendKey("ops", &out);
  out.push_back('[');
  for (size_t i = 0; i < report.ops.size(); ++i) {
    const OperatorAccuracy& op = report.ops[i];
    if (i > 0) out.push_back(',');
    out.push_back('{');
    JsonAppendKey("label", &out);
    JsonAppendQuoted(op.label, &out);
    JsonAppendKey("final", &out);
    out.append(JsonNumberString(op.final_emitted));
    JsonAppendKey("r", &out);
    out.push_back('[');
    for (size_t k = 0; k < op.r.size(); ++k) {
      if (k > 0) out.push_back(',');
      out.append(JsonNumberString(op.r[k]));
    }
    out.push_back(']');
    if (op.selected >= 0 &&
        op.selected < static_cast<int>(kNumEstimatorCandidates)) {
      JsonAppendKey("selected", &out);
      JsonAppendQuoted(
          EstimationModeName(static_cast<EstimationMode>(op.selected)), &out);
    }
    out.push_back('}');
  }
  out.push_back(']');
  out.push_back('}');
  return out;
}

}  // namespace qpi
