#ifndef QPI_EXEC_OPERATOR_H_
#define QPI_EXEC_OPERATOR_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "common/row.h"
#include "common/row_batch.h"
#include "common/schema.h"
#include "common/status.h"
#include "exec/exec_context.h"

namespace qpi {

/// Lifecycle of an operator, as seen by the progress monitor.
enum class OpState { kNotStarted, kRunning, kFinished };

/// \brief Base class of all Volcano-style physical operators.
///
/// The public NextBatch() wrapper maintains the getnext() bookkeeping the
/// gnm progress model is built on: `tuples_emitted()` is K_i, the number of
/// tuples emitted so far, and `CurrentCardinalityEstimate()` is
/// the operator's live estimate of N_i, its total output cardinality —
/// exact once the operator finishes, estimator-driven while it runs, and
/// the optimizer's number before it starts.
class Operator {
 public:
  /// Derived constructors must call SetSchema() in their body (the schema
  /// usually depends on the children, which are only safely accessible once
  /// stored — argument evaluation order is unspecified).
  Operator(std::string label, std::vector<std::unique_ptr<Operator>> children)
      : label_(std::move(label)), children_(std::move(children)) {}
  virtual ~Operator() = default;

  Operator(const Operator&) = delete;
  Operator& operator=(const Operator&) = delete;

  /// Prepare this operator and (recursively) its children.
  Status Open(ExecContext* ctx) {
    ctx_ = ctx;
    for (auto& child : children_) {
      QPI_RETURN_NOT_OK(child->Open(ctx));
    }
    return OpenImpl();
  }

  /// The only way to pull rows from an operator: fill `out` with up to
  /// out->capacity() rows; false (with an empty batch) at end of stream.
  /// Progress accounting is amortized — `emitted_` advances by
  /// batch.size() in one relaxed atomic add (inside NextBatchImpl, via
  /// CountEmitted) and the context receives a single Tick(n). Counter and
  /// state writes are relaxed atomics: only the executing thread mutates
  /// them, but a concurrent progress monitor may read them at any time (see
  /// DESIGN.md, "Threading model").
  bool NextBatch(RowBatch* out) {
    out->Clear();
    if (state_.load(std::memory_order_relaxed) == OpState::kNotStarted) {
      state_.store(OpState::kRunning, std::memory_order_relaxed);
    }
    // Cooperative cancellation: a cancelled query drains as if every
    // operator simultaneously hit end-of-stream, so Close() still runs and
    // the final counters are self-consistent.
    if (ctx_ != nullptr && ctx_->IsCancelled()) {
      state_.store(OpState::kFinished, std::memory_order_relaxed);
      return false;
    }
    NextBatchImpl(out);
    uint64_t n = out->size();
    if (n == 0) {
      state_.store(OpState::kFinished, std::memory_order_relaxed);
      return false;
    }
    if (ctx_ != nullptr) ctx_->Tick(n);
    return true;
  }

  /// Release resources (recursively).
  void Close() {
    CloseImpl();
    for (auto& child : children_) child->Close();
  }

  const Schema& schema() const { return schema_; }
  const std::string& label() const { return label_; }

  /// Safe to call from a monitor thread (relaxed atomic load).
  OpState state() const { return state_.load(std::memory_order_relaxed); }

  /// K_i — getnext() calls answered so far. Safe to call from a monitor
  /// thread (relaxed atomic load); the count may lag the executing thread
  /// by a few tuples but is never torn.
  uint64_t tuples_emitted() const {
    return emitted_.load(std::memory_order_relaxed);
  }

  /// The optimizer's static estimate of this operator's output size.
  double optimizer_estimate() const { return optimizer_estimate_; }
  void set_optimizer_estimate(double est) { optimizer_estimate_ = est; }

  /// Live estimate of N_i, the total output cardinality, under `mode` —
  /// the one estimate hook. CurrentCardinalityEstimate() asks it for the
  /// context's mode; the ensemble selector asks it for every candidate
  /// off the same counters on each publish. Joins dispatch on `mode`
  /// (kNone: the optimizer's number until the join finishes); filters,
  /// projections and sorts forward it to their child; scans and
  /// aggregates answer one number for every mode. Reads live estimator
  /// internals: call only from the thread executing the query.
  virtual double CardinalityEstimate(EstimationMode mode) const = 0;

  /// N_i under the context's estimator (kNone before Open).
  double CurrentCardinalityEstimate() const {
    return CardinalityEstimate(ctx_ != nullptr ? ctx_->mode
                                               : EstimationMode::kNone);
  }

  /// Half-width of the `confidence` CLT interval around
  /// CurrentCardinalityEstimate(), when this operator carries an online
  /// estimator that provides one; 0 when the estimate is exact or no
  /// interval applies (scans, dne fallbacks, finished operators). Like
  /// CurrentCardinalityEstimate(), this reads live estimator internals and
  /// must only be called from the thread executing the query.
  virtual double CurrentCardinalityHalfWidth(double confidence) const {
    (void)confidence;
    return 0.0;
  }

  /// Whether CurrentCardinalityEstimate() is known to be exact.
  virtual bool CardinalityExact() const {
    return state_ == OpState::kFinished;
  }

  /// Whether the rows this operator emits can currently be treated as a
  /// uniform random sample of its full output. Scans say yes while inside
  /// their random prefix; filters/projections pass the answer through;
  /// anything that clusters or orders its output (hash join partitions,
  /// sorts) says no — the property Section 4.1.4 is about.
  virtual bool ProducesRandomStream() const { return false; }

  size_t num_children() const { return children_.size(); }
  Operator* child(size_t i) const { return children_[i].get(); }

  /// Pre-order visit of the operator tree.
  template <typename Fn>
  void Visit(Fn&& fn) {
    fn(this);
    for (auto& c : children_) c->Visit(fn);
  }

 protected:
  virtual Status OpenImpl() { return Status::OK(); }

  /// Fill `out` with up to out->capacity() rows and call
  /// CountEmitted(out->size()) before returning; an empty batch means end
  /// of stream. Implementations must also set the batch's random_run: the
  /// leading rows emitted while ProducesRandomStream() held (see RowBatch
  /// for the exact per-tuple rule).
  virtual void NextBatchImpl(RowBatch* out) = 0;

  virtual void CloseImpl() {}

  /// Advance K_i by `n` tuples in one relaxed atomic add. NextBatchImpl
  /// implementations own their counting (the wrapper does not add), so a
  /// native impl may count mid-batch if its estimation logic reads
  /// tuples_emitted(). Safe for concurrent callers: the partition-parallel
  /// join phase counts from its worker tasks as output batches are flushed
  /// (gnm progress is a sum of these counters, so it is invariant under
  /// the order in which threads contribute).
  void CountEmitted(uint64_t n) {
    if (n != 0) emitted_.fetch_add(n, std::memory_order_relaxed);
  }

  void SetSchema(Schema schema) { schema_ = std::move(schema); }

  /// Whether the context runs the paper's framework — the only mode whose
  /// estimators carry a confidence interval or can be exact mid-run.
  bool OnceMode() const {
    return ctx_ != nullptr && ctx_->mode == EstimationMode::kOnce;
  }

  ExecContext* ctx_ = nullptr;

 private:
  /// The morsel-parallel scan driver executes fused scan/filter/project
  /// chains outside the NextBatch wrapper and therefore attributes
  /// counters and state transitions to the captured operators itself.
  friend class MorselScanDriver;

  Schema schema_;
  std::string label_;
  std::vector<std::unique_ptr<Operator>> children_;
  std::atomic<OpState> state_{OpState::kNotStarted};
  std::atomic<uint64_t> emitted_{0};
  double optimizer_estimate_ = 0.0;
};

using OperatorPtr = std::unique_ptr<Operator>;

}  // namespace qpi

#endif  // QPI_EXEC_OPERATOR_H_
