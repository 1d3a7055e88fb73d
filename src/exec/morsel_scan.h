#ifndef QPI_EXEC_MORSEL_SCAN_H_
#define QPI_EXEC_MORSEL_SCAN_H_

#include <memory>

namespace qpi {

class ExecContext;
class MorselScanDriver;
class Operator;
class RowBatch;

/// \brief The morsel-parallel path of SeqScanOp, FilterOp and ProjectOp.
///
/// With ctx->exec_workers > 1, the first Fill looks below (and including)
/// its operator for a fusable SeqScan → Filter/Project spine and, if there
/// is one, runs the whole chain as one morsel-parallel scan driven by that
/// operator (MorselScanDriver, morsel_scan.cc; DESIGN.md §9).
///
/// At one worker the chain stays sequential rather than running through
/// OrderedMerge's inline mode: a fused chain ticks once per driving batch
/// for all its operators, which would replace the tuple-exact tick cadence
/// of the sequential chain at batch size 1 that ProgressMonitor and the
/// Figure 8 trajectory rely on.
class FusedScan {
 public:
  FusedScan();
  ~FusedScan();

  /// Fill `out` (already cleared by the NextBatch wrapper) through the
  /// fused scan driven by `op` and return true, or return false when `op`
  /// runs sequentially: one worker, or a chain that a join or a non-scan
  /// leaf interrupts. The caller counts `out`'s rows either way. Driving
  /// thread only.
  bool Fill(Operator* op, ExecContext* ctx, RowBatch* out);

  /// Stop the fused scan, waiting for its subtasks, and re-arm the
  /// first-call check. Call from OpenImpl and CloseImpl.
  void Reset();

 private:
  std::unique_ptr<MorselScanDriver> driver_;
  bool checked_ = false;
};

}  // namespace qpi

#endif  // QPI_EXEC_MORSEL_SCAN_H_
