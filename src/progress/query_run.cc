#include "progress/query_run.h"

#include <algorithm>
#include <utility>

#include "common/row_batch.h"

namespace qpi {

QueryRun::QueryRun(OperatorPtr root_in, std::unique_ptr<ExecContext> ctx_in,
                   size_t trace_capacity, bool with_ensemble,
                   FeedbackCache* feedback)
    : root(std::move(root_in)),
      ctx(std::move(ctx_in)),
      accountant(std::make_unique<GnmAccountant>(root.get())),
      trace(std::make_unique<TraceRing>(trace_capacity)) {
  if (with_ensemble) {
    ensemble = std::make_unique<EstimatorEnsemble>(accountant.get(),
                                                   ctx.get(), feedback);
    accountant->AttachEnsemble(ensemble.get());
  }
  ctx->set_phase(QueryPhase::kQueued);
  for (const Operator* op : accountant->operators()) {
    op_labels.push_back(op->label());
  }
  // Nothing executes yet, so reading estimates here is safe. Every curve
  // starts at the optimizer's guess.
  GnmSnapshot seed =
      accountant->SnapshotWithConfidence(0, ctx->confidence, ctx->ci_combine);
  slot.Store(seed);
  trace->Record(MakeTraceSample(*accountant, seed, QueryPhase::kQueued));
}

void QueryRun::Execute(TaskScheduler* scheduler, uint64_t publish_interval,
                       const OutcomeFn& on_outcome) {
  ctx->AttachScheduler(scheduler, 0);
  TracePublisher publisher(accountant.get(), ctx.get(), &slot, trace.get(),
                           publish_interval, ensemble.get());
  publisher.set_ola_feed(ola_feed);
  ctx->AddTickObserver(&publisher);
  Status s = root->Open(ctx.get());
  if (s.ok()) {
    ctx->BeginExecution();
    RowBatch batch(ctx->batch_size);
    while (root->NextBatch(&batch)) {
      rows_emitted.fetch_add(batch.size(), std::memory_order_relaxed);
    }
    root->Close();
    ctx->EndExecution();
  }
  ctx->RemoveTickObserver(&publisher);
  const uint64_t ticks = publisher.ticks();

  // Everything a terminal observer may read lands before the terminal
  // store. Once drained every operator is finished, so T̂ = C with a zero
  // half-width; the last ensemble observation collapses each candidate's
  // total to C too, so the terminal sample ends where the audit expects.
  if (ensemble != nullptr) ensemble->Observe(ticks);
  GnmSnapshot final_snap = accountant->SnapshotWithConfidence(
      ticks, ctx->confidence, ctx->ci_combine);
  slot.Store(final_snap);
  if (ola_feed != nullptr) ola_feed->PublishFinal(ticks);
  TraceSample terminal_sample =
      MakeTraceSample(*accountant, final_snap, ctx->phase());
  if (ensemble != nullptr) ensemble->FillTraceSample(&terminal_sample);
  if (ola_feed != nullptr) ola_feed->FillTraceSample(&terminal_sample);

  Terminal outcome = Terminal::kFinished;
  if (!s.ok()) {
    outcome = Terminal::kFailed;
  } else if (ctx->IsCancelled()) {
    outcome =
        ctx->OlaStopped() ? Terminal::kOlaStopped : Terminal::kCancelled;
  }
  status = std::move(s);
  Terminate(std::move(terminal_sample), outcome, on_outcome);
  ctx->AttachScheduler(nullptr, 0);
}

void QueryRun::TerminalizeQueued(const OutcomeFn& on_outcome) {
  Terminate(MakeTraceSample(*accountant, slot.Load(), QueryPhase::kQueued),
            Terminal::kCancelled, on_outcome);
}

void QueryRun::Terminate(TraceSample terminal_sample, Terminal outcome,
                         const OutcomeFn& on_outcome) {
  trace->RecordTerminal(std::move(terminal_sample));
  AccuracyReport report;
  if (outcome == Terminal::kFinished) {
    // R against a partial T would be meaningless, so only finished queries
    // are audited; the feedback cache gets the audit before on_outcome.
    report = ComputeAccuracyReport(trace->Samples(), op_labels);
    audit_json = AccuracyReportJson(report);
    if (ensemble != nullptr) ensemble->Finalize(report);
  }
  if (on_outcome) on_outcome(outcome, report);
  terminal.store(outcome, std::memory_order_release);
}

const char* QueryRun::WireState() const {
  switch (terminal.load(std::memory_order_acquire)) {
    case Terminal::kFinished:
      return "finished";
    case Terminal::kFailed:
      return "failed";
    case Terminal::kCancelled:
      return "cancelled";
    case Terminal::kOlaStopped:
      return "ola_stopped";
    case Terminal::kNone:
      break;
  }
  return ctx->phase() == QueryPhase::kQueued ? "queued" : "running";
}

GnmSnapshot QueryRun::LiveSnapshot() const {
  bool running = !IsTerminal();  // acquire before the slot load
  GnmSnapshot snap = slot.Load();
  double live = static_cast<double>(accountant->CurrentCalls());
  if (running && live > snap.current_calls) snap.current_calls = live;
  if (snap.total_estimate < snap.current_calls) {
    snap.total_estimate = snap.current_calls;
  }
  return snap;
}

double QueryRun::Progress() {
  if (terminal.load(std::memory_order_acquire) == Terminal::kFinished) {
    return 1.0;
  }
  double p = std::clamp(LiveSnapshot().EstimatedProgress(), 0.0, 1.0);
  double floor = progress_floor.load(std::memory_order_relaxed);
  while (p > floor && !progress_floor.compare_exchange_weak(
                          floor, p, std::memory_order_relaxed)) {
  }
  return p > floor ? p : floor;
}

}  // namespace qpi
