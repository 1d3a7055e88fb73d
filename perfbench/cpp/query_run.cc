#include "query_run.h"

#include <chrono>
#include <cmath>
#include <ctime>
#include <memory>
#include <vector>

#include "alloc_count.h"
#include "exec/compiler.h"
#include "exec/grace_hash_join.h"
#include "ola/ola_collector.h"
#include "ola/ola_snapshot.h"
#include "progress/accuracy_audit.h"
#include "progress/ensemble.h"
#include "progress/gnm.h"
#include "progress/snapshot_slot.h"
#include "progress/trace_ring.h"
#include "sql/planner.h"

namespace perfbench {

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

double ThreadCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

namespace {

/// Forwards ticks to the publisher and accumulates the time spent inside
/// it: the publish path's own span (traced runs only).
class TimedTicks : public qpi::TickObserver {
 public:
  explicit TimedTicks(qpi::TickObserver* inner) : inner_(inner) {}
  void OnTick(uint64_t n) override {
    double start = NowMs();
    inner_->OnTick(n);
    ms_ += NowMs() - start;
  }
  double ms() const { return ms_; }

 private:
  qpi::TickObserver* inner_;
  double ms_ = 0;
};

std::string CheckOla(const qpi::OlaSnapshot& snap, const Expected& expected) {
  if (!snap.exact) return "OLA final answer not marked exact";
  if (snap.num_aggregates != 2) return "OLA final answer lacks 2 aggregates";
  if (snap.estimate[0] != expected.ola_count) return "OLA COUNT not exact";
  long double tolerance = 1e-9L * std::fabs(expected.ola_sum);
  if (std::fabs(snap.estimate[1] - expected.ola_sum) > tolerance) {
    return "OLA SUM not exact";
  }
  return "";
}

}  // namespace

QueryResult QueryRunner::Run(const Shape& shape, const Expected& expected,
                             bool traced, bool digest_rows) {
  QueryResult result;
  LayerSample& layer = result.layers;
  const double start = NowMs();

  // SQL text -> plan.
  qpi::PlanNodePtr plan;
  qpi::Status s = qpi::SqlPlanner(catalog_).PlanQuery(shape.sql, &plan);
  double mark = NowMs();
  layer.plan_ms = mark - start;

  // Plan -> operators, wired as QpiServer::Submit wires a submission.
  auto ctx = std::make_unique<qpi::ExecContext>();
  ctx->catalog = catalog_;
  ctx->mode = qpi::EstimationMode::kOnce;
  ctx->exec_workers = exec_workers_;
  if (shape.ola) ctx->ola.enabled = true;
  qpi::OperatorPtr root;
  qpi::OlaSnapshotSlot ola_slot;
  std::unique_ptr<qpi::OlaCollector> ola;
  if (s.ok()) s = ctx->Validate();
  if (s.ok()) s = qpi::CompilePlan(plan.get(), ctx.get(), &root);
  if (s.ok() && shape.ola) {
    s = qpi::AttachOla(root.get(), ctx.get(), &ola_slot, &ola);
  }
  if (!s.ok()) {
    result.failure = "plan/compile: " + s.ToString();
    return result;
  }
  qpi::GnmAccountant accountant(root.get());
  qpi::EstimatorEnsemble ensemble(&accountant, ctx.get(), &feedback_cache_);
  accountant.AttachEnsemble(&ensemble);
  qpi::TraceRing trace;
  std::vector<std::string> op_labels;
  for (const qpi::Operator* op : accountant.operators()) {
    op_labels.push_back(op->label());
  }
  qpi::SnapshotSlot slot;
  qpi::GnmSnapshot seed =
      accountant.SnapshotWithConfidence(0, ctx->confidence, ctx->ci_combine);
  slot.Store(seed);
  trace.Record(qpi::MakeTraceSample(accountant, seed, qpi::QueryPhase::kQueued));
  layer.compile_ms = NowMs() - mark;

  // Execute, as QpiServer::RunOne does.
  const uint64_t tag = next_tag_++;
  uint64_t subtasks_before = 0;
  uint64_t stolen_before = 0;
  if (scheduler_ != nullptr) {
    ctx->AttachScheduler(scheduler_, tag);
    subtasks_before = scheduler_->tasks_executed(qpi::TaskLane::kSubtask);
    stolen_before = scheduler_->tasks_stolen();
  }
  qpi::TracePublisher publisher(&accountant, ctx.get(), &slot, &trace,
                                /*interval=*/1024, &ensemble);
  if (ola != nullptr) publisher.set_ola_feed(ola.get());
  TimedTicks timed(&publisher);
  qpi::TickObserver* observer =
      traced ? static_cast<qpi::TickObserver*>(&timed) : &publisher;
  ctx->AddTickObserver(observer);
  mark = NowMs();
  s = root->Open(ctx.get());
  layer.open_ms = NowMs() - mark;
  Digest digest;
  if (s.ok()) {
    ctx->BeginExecution();
    auto* join = dynamic_cast<qpi::GraceHashJoinOp*>(root.get());
    result.root_join = join != nullptr;
    if (join != nullptr) {
      // The sequential ONCE window, split out so the serial floor and the
      // parallel join phase read as separate spans.
      mark = NowMs();
      join->PreparePartitions();
      layer.partition_ms = NowMs() - mark;
    }
    const bool process_wide = scheduler_ != nullptr;
    auto read_allocs = process_wide ? ReadAllocTotals : ReadThreadAllocTotals;
    auto read_cpu = process_wide ? ProcessCpuMs : ThreadCpuMs;
    const AllocTotals allocs_before = traced ? read_allocs() : AllocTotals{};
    const double cpu_before = traced ? read_cpu() : 0;
    mark = NowMs();
    qpi::RowBatch batch(ctx->batch_size);
    while (root->NextBatch(&batch)) {
      result.rows += batch.size();
      if (digest_rows) {
        for (size_t i = 0; i < batch.size(); ++i) digest.AddRow(batch.row(i));
      }
    }
    layer.drain_ms = NowMs() - mark;
    if (traced) {
      layer.drain_cpu_ms = read_cpu() - cpu_before;
      AllocTotals allocs_after = read_allocs();
      layer.news = allocs_after.news - allocs_before.news;
      layer.bytes = allocs_after.bytes - allocs_before.bytes;
    }
    root->Close();
    ctx->EndExecution();
  }
  ctx->RemoveTickObserver(observer);
  layer.publish_ms = timed.ms();
  layer.publishes = publisher.samples_offered();
  if (scheduler_ != nullptr) {
    layer.subtasks =
        scheduler_->tasks_executed(qpi::TaskLane::kSubtask) - subtasks_before;
    layer.stolen = scheduler_->tasks_stolen() - stolen_before;
  }

  // Terminal snapshot, OLA final answer, terminal trace sample and audit.
  mark = NowMs();
  const uint64_t ticks = publisher.ticks();
  ensemble.Observe(ticks);
  qpi::GnmSnapshot final_snap = accountant.SnapshotWithConfidence(
      ticks, ctx->confidence, ctx->ci_combine);
  slot.Store(final_snap);
  if (ola != nullptr) ola->PublishFinal(ticks);
  qpi::TraceSample terminal =
      qpi::MakeTraceSample(accountant, final_snap, ctx->phase());
  ensemble.FillTraceSample(&terminal);
  if (ola != nullptr) ola->FillTraceSample(&terminal);
  trace.RecordTerminal(std::move(terminal));
  qpi::AccuracyReport report;
  if (s.ok() && !ctx->IsCancelled()) {
    report = qpi::ComputeAccuracyReport(trace.Samples(), op_labels);
    ensemble.Finalize(report);
  }
  layer.finalize_ms = NowMs() - mark;
  result.latency_ms = NowMs() - start;
  ctx->AttachScheduler(nullptr, 0);

  std::vector<uint64_t> selected = ensemble.SelectedCounts();
  for (size_t c = 0; c < selected.size(); ++c) {
    layer.selected_total += selected[c];
    if (c == static_cast<size_t>(qpi::EstimatorCandidate::kOnce)) {
      layer.once_selected += selected[c];
    }
  }
  for (const qpi::CheckpointAccuracy& cp : report.checkpoints) {
    if (!cp.degenerate && std::isfinite(cp.r) && cp.r > 0) {
      result.err_sum += std::fabs(1.0 - cp.r);
      ++result.err_checkpoints;
    }
  }
  result.gnm_calls = static_cast<uint64_t>(final_snap.current_calls);

  if (!s.ok()) {
    result.failure = "execute: " + s.ToString();
  } else if (ctx->IsCancelled()) {
    result.failure = "query cancelled";
  } else if (!report.valid) {
    result.failure = "accuracy audit has no terminal sample";
  } else if (final_snap.total_estimate != final_snap.current_calls) {
    result.failure = "terminal T^ != C";
  } else if (result.rows != expected.digest.rows) {
    result.failure = "row count " + std::to_string(result.rows) +
                     ", expected " + std::to_string(expected.digest.rows);
  } else if (digest_rows) {
    result.failure = CompareDigests(expected.digest, digest);
  }
  if (result.failure.empty() && ola != nullptr) {
    result.failure = CheckOla(ola_slot.Load(), expected);
  }
  if (!result.failure.empty()) result.failure = shape.name + ": " + result.failure;
  return result;
}

}  // namespace perfbench
