#include "exec/compiler.h"

#include <memory>
#include <utility>
#include <vector>

#include "common/check.h"
#include "exec/aggregate.h"
#include "exec/filter.h"
#include "exec/grace_hash_join.h"
#include "exec/merge_join.h"
#include "exec/nl_join.h"
#include "exec/seq_scan.h"
#include "exec/sort.h"
#include "plan/optimizer.h"

namespace qpi {

namespace {

Status CompileNode(const PlanNode& node, ExecContext* ctx, OperatorPtr* out) {
  const Catalog& catalog = *ctx->catalog;
  switch (node.kind) {
    case PlanKind::kScan: {
      TablePtr table = catalog.Find(node.table_name);
      if (!table) return Status::NotFound("table " + node.table_name);
      *out = std::make_unique<SeqScanOp>(table, node.sample_fraction);
      break;
    }
    case PlanKind::kFilter: {
      OperatorPtr child;
      QPI_RETURN_NOT_OK(CompileNode(*node.children[0], ctx, &child));
      std::unique_ptr<BoundPredicate> bound;
      QPI_RETURN_NOT_OK(node.predicate->Bind(child->schema(), &bound));
      *out = std::make_unique<FilterOp>(std::move(child), std::move(bound),
                                        node.predicate->ToString());
      break;
    }
    case PlanKind::kProject: {
      OperatorPtr child;
      QPI_RETURN_NOT_OK(CompileNode(*node.children[0], ctx, &child));
      std::vector<size_t> indices;
      std::vector<Column> cols;
      for (const std::string& ref : node.project_columns) {
        size_t idx = 0;
        QPI_RETURN_NOT_OK(ResolveColumnIndex(child->schema(), ref, &idx));
        indices.push_back(idx);
        cols.push_back(child->schema().column(idx));
      }
      *out = std::make_unique<ProjectOp>(std::move(child), std::move(indices),
                                         Schema(std::move(cols)));
      break;
    }
    case PlanKind::kHashJoin:
    case PlanKind::kMergeJoin:
    case PlanKind::kNestedLoopsJoin:
    case PlanKind::kIndexNestedLoopsJoin: {
      OperatorPtr left;
      OperatorPtr right;
      QPI_RETURN_NOT_OK(CompileNode(*node.children[0], ctx, &left));
      QPI_RETURN_NOT_OK(CompileNode(*node.children[1], ctx, &right));
      // Multi-key conjunctive equijoin (hash joins only).
      if (node.kind == PlanKind::kHashJoin && !node.left_keys.empty()) {
        if (node.left_keys.size() != node.right_keys.size()) {
          return Status::InvalidArgument(
              "multi-key join requires equally many keys on both sides");
        }
        std::vector<size_t> lidxs;
        std::vector<size_t> ridxs;
        std::string label = "HashJoin[";
        for (size_t i = 0; i < node.left_keys.size(); ++i) {
          size_t li = 0;
          size_t ri = 0;
          QPI_RETURN_NOT_OK(
              ResolveColumnIndex(left->schema(), node.left_keys[i], &li));
          QPI_RETURN_NOT_OK(
              ResolveColumnIndex(right->schema(), node.right_keys[i], &ri));
          lidxs.push_back(li);
          ridxs.push_back(ri);
          if (i > 0) label += " AND ";
          label += node.left_keys[i] + "=" + node.right_keys[i];
        }
        label += "]";
        *out = std::make_unique<GraceHashJoinOp>(
            std::move(left), std::move(right), std::move(lidxs),
            std::move(ridxs), std::move(label), node.join_flavor);
        break;
      }
      size_t lidx = 0;
      size_t ridx = 0;
      QPI_RETURN_NOT_OK(ResolveColumnIndex(left->schema(), node.left_key,
                                           &lidx));
      QPI_RETURN_NOT_OK(ResolveColumnIndex(right->schema(), node.right_key,
                                           &ridx));
      std::string label = std::string(PlanKindName(node.kind)) + "[" +
                          node.left_key + "=" + node.right_key + "]";
      if (node.kind == PlanKind::kHashJoin) {
        *out = std::make_unique<GraceHashJoinOp>(
            std::move(left), std::move(right), lidx, ridx, std::move(label),
            node.join_flavor);
      } else if (node.kind == PlanKind::kMergeJoin) {
        *out = std::make_unique<MergeJoinOp>(std::move(left), std::move(right),
                                             lidx, ridx, std::move(label));
      } else {
        *out = std::make_unique<NestedLoopsJoinOp>(
            std::move(left), std::move(right), lidx, ridx, std::move(label),
            node.theta_op, node.kind == PlanKind::kIndexNestedLoopsJoin);
      }
      break;
    }
    case PlanKind::kHashAggregate:
    case PlanKind::kSortAggregate: {
      OperatorPtr child;
      QPI_RETURN_NOT_OK(CompileNode(*node.children[0], ctx, &child));
      std::vector<size_t> group_indices;
      for (const std::string& ref : node.group_by) {
        size_t idx = 0;
        QPI_RETURN_NOT_OK(ResolveColumnIndex(child->schema(), ref, &idx));
        group_indices.push_back(idx);
      }
      std::vector<BoundAggregate> aggs;
      for (const AggregateSpec& spec : node.aggregates) {
        BoundAggregate bound;
        bound.kind = spec.kind;
        if (spec.kind != AggregateSpec::Kind::kCountStar) {
          QPI_RETURN_NOT_OK(ResolveColumnIndex(child->schema(), spec.column,
                                               &bound.column_index));
        }
        aggs.push_back(bound);
      }
      Schema output;
      QPI_RETURN_NOT_OK(node.DeriveSchema(catalog, &output));
      if (node.kind == PlanKind::kHashAggregate) {
        *out = std::make_unique<HashAggregateOp>(
            std::move(child), std::move(group_indices), std::move(aggs),
            std::move(output));
      } else {
        *out = std::make_unique<SortAggregateOp>(
            std::move(child), std::move(group_indices), std::move(aggs),
            std::move(output));
      }
      break;
    }
    case PlanKind::kSort: {
      OperatorPtr child;
      QPI_RETURN_NOT_OK(CompileNode(*node.children[0], ctx, &child));
      std::vector<size_t> keys;
      for (const std::string& ref : node.sort_keys) {
        size_t idx = 0;
        QPI_RETURN_NOT_OK(ResolveColumnIndex(child->schema(), ref, &idx));
        keys.push_back(idx);
      }
      *out = std::make_unique<SortOp>(std::move(child), std::move(keys));
      break;
    }
  }
  (*out)->set_optimizer_estimate(node.optimizer_cardinality);
  return Status::OK();
}

void WireOnceEstimation(Operator* op);

/// Share one PipelineJoinEstimator across `chain` (joins listed top-down,
/// each the probe child of the one above; the lowest one's probe child is
/// the driver): build the join specs bottom-up and enlist every member,
/// the lowest feeding driver rows.
template <typename Join>
void EnlistPipeline(const std::vector<Join*>& chain,
                    size_t (Join::*build_key)() const,
                    size_t (Join::*probe_key)() const) {
  Operator* driver = chain.back()->child(1);
  std::vector<PipelineJoinEstimator::JoinSpec> specs;
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    Join* join = *it;
    PipelineJoinEstimator::JoinSpec spec;
    spec.build_schema = join->child(0)->schema();
    spec.build_key_index = (join->*build_key)();
    spec.probe_attr = join->child(1)->schema().column((join->*probe_key)());
    specs.push_back(std::move(spec));
  }
  auto pipeline = std::make_shared<PipelineJoinEstimator>(
      driver->schema(), std::move(specs),
      [driver] { return driver->CurrentCardinalityEstimate(); });
  for (size_t k = 0; k < chain.size(); ++k) {
    size_t bottom_up = chain.size() - 1 - k;
    chain[k]->estimation().EnlistInPipeline(pipeline, bottom_up,
                                            /*is_lowest=*/bottom_up == 0);
  }
}

/// Wire estimation for the chain of hash joins rooted at `top` (a chain
/// follows probe children; non-inner joins end it), then recurse into the
/// build subtrees and the driver subtree. With `force_pipeline`, even a
/// single join gets a PipelineJoinEstimator instead of the binary
/// estimator, so that an aggregation above it can share the pipeline for
/// group-count push-down.
void WireHashChain(GraceHashJoinOp* top, bool force_pipeline) {
  std::vector<GraceHashJoinOp*> chain;  // top-down
  GraceHashJoinOp* cursor = top;
  while (cursor != nullptr) {
    chain.push_back(cursor);
    auto* below = dynamic_cast<GraceHashJoinOp*>(cursor->child(1));
    // Push-down chains are an inner, single-key-join construction; anything
    // else (or its parent boundary) ends the chain.
    auto chain_member = [](GraceHashJoinOp* j) {
      return j->join_type() == JoinFlavor::kInner && j->num_key_columns() == 1;
    };
    if (below != nullptr && !chain_member(below)) below = nullptr;
    if (!chain_member(cursor)) below = nullptr;
    cursor = below;
  }
  bool single_binary =
      chain.size() == 1 &&
      (!force_pipeline || top->join_type() != JoinFlavor::kInner ||
       top->num_key_columns() > 1);
  if (single_binary) {
    if (top->child(1)->ProducesRandomStream()) {
      top->estimation().EnableBinaryOnce(top->child(1), top->join_type());
    }
    // else: clustered probe input, fall back to dne (paper Section 4.1.4).
  } else if (chain.size() > 1 || top->child(1)->ProducesRandomStream()) {
    EnlistPipeline(chain, &GraceHashJoinOp::build_key_index,
                   &GraceHashJoinOp::probe_key_index);
  }
  // Recurse into build children of every chain member plus the driver
  // subtree (the probe children inside the chain are the chain itself).
  for (GraceHashJoinOp* join : chain) {
    WireOnceEstimation(join->child(0));
  }
  WireOnceEstimation(chain.back()->child(1));
}

/// If `agg` sits directly on an inner hash-join chain and groups by a
/// single attribute carried by the chain's driver relation, share the
/// chain's pipeline estimator and enable join-output group push-down
/// (Section 4.2, last paragraph). Returns true if the child subtree was
/// wired here.
bool TryWireAggPushDown(AggregateBaseOp* agg) {
  auto* join = dynamic_cast<GraceHashJoinOp*>(agg->child(0));
  if (join == nullptr || join->join_type() != JoinFlavor::kInner) {
    return false;
  }
  WireHashChain(join, /*force_pipeline=*/true);
  std::shared_ptr<PipelineJoinEstimator> pipeline =
      join->shared_pipeline_estimator();
  if (pipeline == nullptr || agg->group_indices().size() != 1 ||
      !pipeline->Resolved(pipeline->num_joins() - 1)) {
    return true;  // chain wired; no push-down possible
  }
  const Column& group_col =
      agg->child(0)->schema().column(agg->group_indices()[0]);
  auto driver_idx =
      pipeline->driver_schema().FindQualified(group_col.table, group_col.name);
  if (driver_idx.has_value()) {
    pipeline->EnableGroupPushDown(*driver_idx);
    agg->EnableJoinPushDownEstimation(pipeline);
  }
  return true;
}

/// Copy optimizer estimates plan→operators is done inside CompileNode; this
/// pass wires the ONCE estimators onto the finished tree.
void WireOnceEstimation(Operator* op) {
  if (auto* hash_join = dynamic_cast<GraceHashJoinOp*>(op)) {
    WireHashChain(hash_join, /*force_pipeline=*/false);
    return;
  }

  if (auto* merge_top = dynamic_cast<MergeJoinOp*>(op)) {
    // Chains of sort-merge joins estimate like hash-join pipelines
    // (Section 4.1.4.3): left intakes play the build role top-down, the
    // lowest right intake is the driver pass.
    std::vector<MergeJoinOp*> chain;
    MergeJoinOp* cursor = merge_top;
    while (cursor != nullptr) {
      chain.push_back(cursor);
      cursor = dynamic_cast<MergeJoinOp*>(cursor->child(1));
    }
    if (chain.size() == 1) {
      if (merge_top->child(1)->ProducesRandomStream()) {
        merge_top->estimation().EnableBinaryOnce(merge_top->child(1),
                                                 JoinFlavor::kInner);
      }
    } else {
      EnlistPipeline(chain, &MergeJoinOp::left_key_index,
                     &MergeJoinOp::right_key_index);
    }
    for (MergeJoinOp* join : chain) {
      WireOnceEstimation(join->child(0));
    }
    WireOnceEstimation(chain.back()->child(1));
    return;
  }
  if (auto* nlj = dynamic_cast<NestedLoopsJoinOp*>(op)) {
    // The index build and an inequality's sorted inner are usable
    // preprocessing passes; an equality rescan stays on dne (Section
    // 4.1.3), which the join decides.
    if (nlj->child(0)->ProducesRandomStream()) nlj->EnableOnceEstimation();
  } else if (auto* agg = dynamic_cast<AggregateBaseOp*>(op)) {
    if (agg->child(0)->ProducesRandomStream()) {
      agg->EnableOnceEstimation();
    } else if (TryWireAggPushDown(agg)) {
      // The join chain below was wired by the push-down attempt; do not
      // recurse into it again.
      return;
    }
  }
  for (size_t i = 0; i < op->num_children(); ++i) {
    WireOnceEstimation(op->child(i));
  }
}

}  // namespace

Status CompilePlan(PlanNode* plan, ExecContext* ctx, OperatorPtr* out) {
  if (ctx == nullptr || ctx->catalog == nullptr) {
    return Status::InvalidArgument("ExecContext with catalog required");
  }
  OptimizerEstimator optimizer(ctx->catalog);
  QPI_RETURN_NOT_OK(optimizer.Annotate(plan));
  QPI_RETURN_NOT_OK(CompileNode(*plan, ctx, out));
  if (ctx->mode == EstimationMode::kOnce) {
    WireOnceEstimation(out->get());
  }
  return Status::OK();
}

}  // namespace qpi
