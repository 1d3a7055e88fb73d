#include "exec/exec_context.h"

#include "common/task_scheduler.h"

namespace qpi {

ExecContext::ExecContext() = default;
ExecContext::~ExecContext() = default;

TaskScheduler* ExecContext::scheduler() {
  if (attached_sched_ != nullptr) return attached_sched_;
  if (owned_sched_ == nullptr) {
    owned_sched_ = std::make_unique<TaskScheduler>(exec_workers);
  }
  return owned_sched_.get();
}

const char* QueryPhaseName(QueryPhase phase) {
  switch (phase) {
    case QueryPhase::kQueued:
      return "queued";
    case QueryPhase::kRunning:
      return "running";
    case QueryPhase::kFinished:
      return "finished";
  }
  return "?";
}

const char* EstimationModeName(EstimationMode mode) {
  switch (mode) {
    case EstimationMode::kOnce:
      return "once";
    case EstimationMode::kDne:
      return "dne";
    case EstimationMode::kByte:
      return "byte";
    case EstimationMode::kNone:
      return "none";
  }
  return "?";
}

}  // namespace qpi
