#include "plan/optimizer.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace qpi {

namespace {

constexpr double kDefaultSelectivity = 1.0 / 3.0;  // System-R catch-all

double Lookup(const std::map<std::string, double>& m, const std::string& key,
              double fallback) {
  auto it = m.find(key);
  return it == m.end() ? fallback : it->second;
}

/// Qualified name of the column a ref resolves to (so filter selectivity and
/// join estimation agree on identity regardless of qualification style).
std::string QualifyRef(const Schema& schema, const std::string& ref) {
  size_t dot = ref.find('.');
  std::optional<size_t> idx;
  if (dot == std::string::npos) {
    idx = schema.FindColumn(ref);
  } else {
    idx = schema.FindQualified(ref.substr(0, dot), ref.substr(dot + 1));
  }
  if (!idx.has_value()) return ref;
  return schema.column(*idx).QualifiedName();
}

}  // namespace

double OptimizerEstimator::PredicateSelectivity(const Predicate& pred,
                                                const Schema& schema,
                                                const NodeEstimate& est) const {
  if (const auto* cmp = dynamic_cast<const ComparisonPredicate*>(&pred)) {
    std::string col = QualifyRef(schema, cmp->column());
    double d = Lookup(est.distinct, col, 0.0);
    double lo = Lookup(est.min, col, 0.0);
    double hi = Lookup(est.max, col, 0.0);
    bool have_range = est.min.count(col) && est.max.count(col) && hi > lo;
    double lit = 0.0;
    if (cmp->literal().type() == ValueType::kInt64) {
      lit = static_cast<double>(cmp->literal().AsInt64());
    } else if (cmp->literal().type() == ValueType::kDouble) {
      lit = cmp->literal().AsDouble();
    } else {
      have_range = false;
    }
    switch (cmp->op()) {
      case CompareOp::kEq:
        return d > 0 ? 1.0 / d : kDefaultSelectivity;
      case CompareOp::kNe:
        return d > 0 ? 1.0 - 1.0 / d : 1.0 - kDefaultSelectivity;
      case CompareOp::kLt:
      case CompareOp::kLe:
        if (!have_range) return kDefaultSelectivity;
        return std::clamp((lit - lo) / (hi - lo), 0.0, 1.0);
      case CompareOp::kGt:
      case CompareOp::kGe:
        if (!have_range) return kDefaultSelectivity;
        return std::clamp((hi - lit) / (hi - lo), 0.0, 1.0);
    }
    return kDefaultSelectivity;
  }
  if (const auto* logic = dynamic_cast<const BinaryLogicPredicate*>(&pred)) {
    double sl = PredicateSelectivity(logic->left(), schema, est);
    double sr = PredicateSelectivity(logic->right(), schema, est);
    if (logic->kind() == BinaryLogicPredicate::Kind::kAnd) {
      return sl * sr;  // independence assumption
    }
    return sl + sr - sl * sr;
  }
  if (const auto* neg = dynamic_cast<const NotPredicate*>(&pred)) {
    return 1.0 - PredicateSelectivity(neg->inner(), schema, est);
  }
  return kDefaultSelectivity;
}

Status OptimizerEstimator::EstimateNode(PlanNode* node,
                                        NodeEstimate* out) const {
  switch (node->kind) {
    case PlanKind::kScan: {
      TablePtr table = catalog_->Find(node->table_name);
      if (!table) {
        return Status::NotFound("scan table " + node->table_name);
      }
      const TableStats* stats = catalog_->Stats(node->table_name);
      out->rows = static_cast<double>(table->num_rows());
      if (stats != nullptr) {
        for (size_t c = 0; c < table->schema().num_columns(); ++c) {
          const Column& col = table->schema().column(c);
          const ColumnStats& cs = stats->columns[c];
          std::string name = col.QualifiedName();
          out->distinct[name] = static_cast<double>(cs.num_distinct);
          if (!cs.min.is_null() && cs.min.type() != ValueType::kString) {
            out->min[name] = cs.min.AsDouble();
            out->max[name] = cs.max.AsDouble();
          }
        }
      }
      break;
    }
    case PlanKind::kFilter: {
      NodeEstimate child;
      QPI_RETURN_NOT_OK(EstimateNode(node->children[0].get(), &child));
      Schema schema;
      QPI_RETURN_NOT_OK(node->children[0]->DeriveSchema(*catalog_, &schema));
      double sel = PredicateSelectivity(*node->predicate, schema, child);
      out->rows = child.rows * sel;
      out->distinct = child.distinct;
      out->min = child.min;
      out->max = child.max;
      for (auto& [name, d] : out->distinct) {
        (void)name;
        d = std::min(d, out->rows);
      }
      break;
    }
    case PlanKind::kProject:
    case PlanKind::kSort: {
      NodeEstimate child;
      QPI_RETURN_NOT_OK(EstimateNode(node->children[0].get(), &child));
      *out = std::move(child);
      break;
    }
    case PlanKind::kHashJoin:
    case PlanKind::kMergeJoin:
    case PlanKind::kNestedLoopsJoin:
    case PlanKind::kIndexNestedLoopsJoin: {
      NodeEstimate left;
      NodeEstimate right;
      QPI_RETURN_NOT_OK(EstimateNode(node->children[0].get(), &left));
      QPI_RETURN_NOT_OK(EstimateNode(node->children[1].get(), &right));
      Schema lschema;
      Schema rschema;
      QPI_RETURN_NOT_OK(node->children[0]->DeriveSchema(*catalog_, &lschema));
      QPI_RETURN_NOT_OK(node->children[1]->DeriveSchema(*catalog_, &rschema));
      std::string lcol = QualifyRef(lschema, node->left_key);
      std::string rcol = QualifyRef(rschema, node->right_key);
      double dl = Lookup(left.distinct, lcol, 0.0);
      double dr = Lookup(right.distinct, rcol, 0.0);
      double denom = std::max({dl, dr, 1.0});
      if (!node->left_keys.empty()) {
        if (node->left_keys.size() != node->right_keys.size()) {
          return Status::InvalidArgument(
              "multi-key join requires equally many keys on both sides");
        }
        // Conjunctive multi-key equijoin: independence across key pairs.
        denom = 1.0;
        for (size_t i = 0; i < node->left_keys.size(); ++i) {
          double dli = Lookup(left.distinct,
                              QualifyRef(lschema, node->left_keys[i]), 0.0);
          double dri = Lookup(right.distinct,
                              QualifyRef(rschema, node->right_keys[i]), 0.0);
          denom *= std::max({dli, dri, 1.0});
        }
        denom = std::min(denom, std::max(left.rows * right.rows, 1.0));
      }
      double inner_rows = left.rows * right.rows / denom;
      if (node->theta_op != CompareOp::kEq) {
        // Inequality predicates: the System-R defaults (1/3 for ranges,
        // 1 - 1/d for !=).
        double sel = node->theta_op == CompareOp::kNe ? 1.0 - 1.0 / denom
                                                      : kDefaultSelectivity;
        inner_rows = left.rows * right.rows * sel;
      }
      // Probe-side semi selectivity under containment-of-values: the
      // fraction of probe keys with at least one build match.
      double semi_sel =
          dr > 0 ? std::min(1.0, std::max(dl, 1.0) / dr) : 1.0;
      switch (node->join_flavor) {
        case JoinFlavor::kInner:
          out->rows = inner_rows;
          break;
        case JoinFlavor::kSemi:
          out->rows = right.rows * semi_sel;
          break;
        case JoinFlavor::kAnti:
          out->rows = right.rows * (1.0 - semi_sel);
          break;
        case JoinFlavor::kProbeOuter:
          out->rows = inner_rows + right.rows * (1.0 - semi_sel);
          break;
      }
      if (node->join_flavor == JoinFlavor::kSemi ||
          node->join_flavor == JoinFlavor::kAnti) {
        out->distinct = right.distinct;
        out->min = right.min;
        out->max = right.max;
        for (auto& [name, d] : out->distinct) {
          (void)name;
          d = std::min(d, out->rows);
        }
        break;
      }
      out->distinct = left.distinct;
      out->min = left.min;
      out->max = left.max;
      out->distinct.insert(right.distinct.begin(), right.distinct.end());
      out->min.insert(right.min.begin(), right.min.end());
      out->max.insert(right.max.begin(), right.max.end());
      for (auto& [name, d] : out->distinct) {
        (void)name;
        d = std::min(d, out->rows);
      }
      break;
    }
    case PlanKind::kHashAggregate:
    case PlanKind::kSortAggregate: {
      NodeEstimate child;
      QPI_RETURN_NOT_OK(EstimateNode(node->children[0].get(), &child));
      Schema schema;
      QPI_RETURN_NOT_OK(node->children[0]->DeriveSchema(*catalog_, &schema));
      double groups = 1.0;
      for (const std::string& ref : node->group_by) {
        std::string col = QualifyRef(schema, ref);
        double d = Lookup(child.distinct, col, kDefaultSelectivity * 100);
        groups *= std::max(d, 1.0);
      }
      out->rows = std::min(groups, child.rows);
      break;
    }
  }
  node->optimizer_cardinality = out->rows;
  return Status::OK();
}

Status OptimizerEstimator::Annotate(PlanNode* node) const {
  NodeEstimate ignored;
  return EstimateNode(node, &ignored);
}

}  // namespace qpi
