#include "progress/pipelines.h"

#include "exec/aggregate.h"
#include "exec/grace_hash_join.h"
#include "exec/merge_join.h"
#include "exec/nl_join.h"
#include "exec/sort.h"

namespace qpi {

uint64_t Pipeline::CurrentCalls() const {
  uint64_t total = 0;
  for (const Operator* op : ops) total += op->tuples_emitted();
  return total;
}

namespace {

void Assign(Operator* op, size_t pipeline_id,
            std::vector<Pipeline>* pipelines) {
  (*pipelines)[pipeline_id].ops.push_back(op);

  auto new_pipeline = [&]() {
    size_t id = pipelines->size();
    pipelines->push_back(Pipeline{id, {}});
    return id;
  };

  if (dynamic_cast<GraceHashJoinOp*>(op) != nullptr) {
    Assign(op->child(0), new_pipeline(), pipelines);  // build side blocks
    Assign(op->child(1), pipeline_id, pipelines);     // probe side streams
    return;
  }
  if (dynamic_cast<MergeJoinOp*>(op) != nullptr) {
    Assign(op->child(0), new_pipeline(), pipelines);  // both intakes block
    Assign(op->child(1), new_pipeline(), pipelines);
    return;
  }
  if (dynamic_cast<NestedLoopsJoinOp*>(op) != nullptr) {
    Assign(op->child(0), pipeline_id, pipelines);     // outer streams
    Assign(op->child(1), new_pipeline(), pipelines);  // inner materializes
    return;
  }
  if (dynamic_cast<SortOp*>(op) != nullptr ||
      dynamic_cast<AggregateBaseOp*>(op) != nullptr) {
    Assign(op->child(0), new_pipeline(), pipelines);  // intake blocks
    return;
  }
  // Streaming operators (scan leaf, filter, project).
  for (size_t i = 0; i < op->num_children(); ++i) {
    Assign(op->child(i), pipeline_id, pipelines);
  }
}

}  // namespace

std::vector<Pipeline> PipelineDecomposer::Decompose(Operator* root) {
  std::vector<Pipeline> pipelines;
  pipelines.push_back(Pipeline{0, {}});
  Assign(root, 0, &pipelines);
  return pipelines;
}

std::string PipelinesToString(const std::vector<Pipeline>& pipelines) {
  std::string out;
  for (const Pipeline& p : pipelines) {
    out += "pipeline " + std::to_string(p.id) + ":";
    for (const Operator* op : p.ops) {
      out += " [" + op->label() + "]";
    }
    out += "\n";
  }
  return out;
}

}  // namespace qpi
