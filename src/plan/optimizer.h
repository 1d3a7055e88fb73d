#ifndef QPI_PLAN_OPTIMIZER_H_
#define QPI_PLAN_OPTIMIZER_H_

#include <map>
#include <string>

#include "plan/plan_node.h"
#include "storage/catalog.h"

namespace qpi {

/// \brief System-R-style cardinality model: uniformity within columns,
/// independence between columns.
///
/// These assumptions are the classic optimizer behaviour the paper's
/// baselines inherit — on the skewed, peak-mismatched data of the
/// evaluation, the initial join estimates are off by large factors
/// (PostgreSQL was off ~13x in Figure 4(a)), which is the starting point
/// the *byte* estimator averages against and the future-pipeline estimate
/// the gnm monitor refines.
class OptimizerEstimator {
 public:
  explicit OptimizerEstimator(const Catalog* catalog) : catalog_(catalog) {}

  /// Annotate `node->optimizer_cardinality` for every node in the tree.
  Status Annotate(PlanNode* node) const;

  /// Per-node recursive estimate (exposed for tests).
  struct NodeEstimate {
    double rows = 0;
    // qualified column name → estimated distinct count / numeric min / max
    std::map<std::string, double> distinct;
    std::map<std::string, double> min;
    std::map<std::string, double> max;
  };

  /// Selectivity of `pred` against `schema` under the model, in [0, 1].
  double PredicateSelectivity(const Predicate& pred, const Schema& schema,
                              const NodeEstimate& est) const;

 private:
  Status EstimateNode(PlanNode* node, NodeEstimate* out) const;

  const Catalog* catalog_;
};

}  // namespace qpi

#endif  // QPI_PLAN_OPTIMIZER_H_
