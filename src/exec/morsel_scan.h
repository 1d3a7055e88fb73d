#ifndef QPI_EXEC_MORSEL_SCAN_H_
#define QPI_EXEC_MORSEL_SCAN_H_

#include <memory>

namespace qpi {

class ExecContext;
class MorselScanDriver;
class Operator;
class RowBatch;

/// \brief The one scan path of SeqScanOp, and of FilterOp and ProjectOp
/// over a scan.
///
/// The first Fill looks below (and including) its operator for a fusable
/// SeqScan → Filter/Project spine and, if there is one, runs the whole
/// chain as one morsel scan driven by that operator (MorselScanDriver,
/// morsel_scan.cc; DESIGN.md §9). At every worker count the chain runs
/// through OrderedMerge: inline on the driving thread at one worker, on
/// the fleet above. The captured operators are counted and ticked where
/// the merge delivers their rows, in morsel order, so a selective filter
/// delays a scan's ticks by at most one unit of input, never by the whole
/// scan, and every worker count gives the same counts and ticks.
class FusedScan {
 public:
  FusedScan();
  ~FusedScan();

  /// Fill `out` (already cleared by the NextBatch wrapper) through the
  /// fused scan driven by `op` and return true, or return false when a
  /// join or a non-scan leaf interrupts the chain below `op`, which then
  /// runs its own loop. Always true for a SeqScanOp. The caller counts
  /// `out`'s rows either way. Driving thread only.
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
