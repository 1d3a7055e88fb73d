#ifndef QPI_PROGRESS_ACCURACY_AUDIT_H_
#define QPI_PROGRESS_ACCURACY_AUDIT_H_

#include <string>
#include <vector>

#include "progress/trace_ring.h"

namespace qpi {

/// \brief Post-hoc estimator-accuracy audit of one traced query: the
/// paper's accuracy ratio R = T / T̂ evaluated at the 25/50/75% progress
/// checkpoints, for the whole query and per operator.
///
/// T is the true total (known once the query finishes: the terminal
/// sample's C, or per operator its final emitted count); T̂ is the live
/// estimate the framework was publishing at the checkpoint. R = 1 is a
/// perfect estimate, R > 1 an underestimate, R < 1 an overestimate —
/// exactly the ratio Figures 4–9 of the paper plot over time.

/// One checkpoint of the query-level curve.
struct CheckpointAccuracy {
  double fraction = 0;  ///< true-progress checkpoint (0.25 / 0.5 / 0.75)
  uint64_t tick = 0;    ///< when the checkpoint sample was taken
  double calls = 0;     ///< C at the checkpoint
  double estimate = 0;  ///< T̂ at the checkpoint
  double r = 0;         ///< R = T / T̂ (NaN when T̂ is unavailable)
  /// True when only the *terminal* sample satisfied this checkpoint (short
  /// or sparsely published traces). T̂ = C there by construction, so R = 1
  /// carries no information about the estimator; consumers that score
  /// estimators (the selector's feedback, the Prometheus error histogram)
  /// must exclude degenerate checkpoints.
  bool degenerate = false;
  /// R under each concurrent candidate's own T̂ curve, indexed by
  /// EstimationMode — empty when the trace carries no ensemble columns.
  std::vector<double> candidate_r;
};

/// One operator's accuracy ratios across the checkpoints.
struct OperatorAccuracy {
  std::string label;
  double final_emitted = 0;  ///< the operator's true N_i
  /// R_i = N_i / N̂_i at each query-level checkpoint (NaN when the live
  /// estimate there was 0 or unavailable). Parallel to `checkpoints` of
  /// the enclosing report.
  std::vector<double> r;
  /// Per-checkpoint, per-candidate R_i (inner vectors indexed by
  /// EstimationMode; empty without ensemble columns). Parallel to `r`.
  std::vector<std::vector<double>> candidate_r;
  /// Terminal selector choice for this operator (EstimationMode value;
  /// -1 when the trace carries no selection history).
  int selected = -1;
};

struct AccuracyReport {
  /// False when the trace holds no terminal sample (query still running,
  /// failed, or cancelled) — R against a partial T would be meaningless.
  bool valid = false;
  double final_calls = 0;  ///< T — the true total getnext count
  std::vector<CheckpointAccuracy> checkpoints;
  std::vector<OperatorAccuracy> ops;
};

/// The checkpoint fractions the auditor evaluates.
inline constexpr double kAuditCheckpoints[] = {0.25, 0.5, 0.75};

/// Compute the report from a traced curve. `op_labels` names the
/// operators in the samples' pre-order (from GnmAccountant::operators());
/// the curve must end in a terminal sample for the report to be valid.
AccuracyReport ComputeAccuracyReport(const std::vector<TraceSample>& samples,
                                     const std::vector<std::string>& op_labels);

/// Machine-readable JSON form (one object, no trailing newline):
///   {"final_calls":N,
///    "checkpoints":[{"fraction":0.25,"tick":..,"calls":..,
///                    "estimate":..,"r":..,"degenerate":false,
///                    "candidates":[r_once,r_dne,r_byte]},...],
///    "ops":[{"label":"...","final":N,"r":[r25,r50,r75],
///            "selected":"once"},...]}
/// Unavailable ratios serialize as null (see JsonNumberString); the
/// "candidates" array and "selected" member appear only when the trace
/// carried ensemble columns.
std::string AccuracyReportJson(const AccuracyReport& report);

}  // namespace qpi

#endif  // QPI_PROGRESS_ACCURACY_AUDIT_H_
