#include "estimators/pipeline_join.h"

#include <cmath>

#include "common/check.h"
#include "estimators/group_count.h"

namespace qpi {

PipelineJoinEstimator::PipelineJoinEstimator(
    Schema driver_schema, std::vector<JoinSpec> joins,
    std::function<double()> driver_total_provider)
    : driver_schema_(std::move(driver_schema)),
      joins_(std::move(joins)),
      driver_total_provider_(std::move(driver_total_provider)) {
  QPI_CHECK(!joins_.empty());
  QPI_CHECK(driver_total_provider_ != nullptr);
  size_t n = joins_.size();
  locators_.resize(n);
  own_hist_.resize(n);
  build_complete_.assign(n, false);
  pending_.resize(n);
  derived_.resize(n);
  contribution_sum_.assign(n, 0.0);
  moments_.resize(n);
  scratch_last_factor_.assign(n, 0.0);
  scratch_driver_key_.assign(n, 0);
  ResolveLocators();
}

void PipelineJoinEstimator::ResolveLocators() {
  for (size_t k = 0; k < joins_.size(); ++k) {
    const Column& attr = joins_[k].probe_attr;
    Locator loc;
    auto driver_idx = driver_schema_.FindQualified(attr.table, attr.name);
    if (driver_idx.has_value()) {
      loc.kind = Locator::kDriverDirect;
      loc.driver_col = *driver_idx;
    } else {
      for (size_t j = 0; j < k; ++j) {
        auto build_idx =
            joins_[j].build_schema.FindQualified(attr.table, attr.name);
        if (!build_idx.has_value()) continue;
        // Case 2 is supported when the carrier join j is itself
        // driver-direct (the paper's covered configuration); deeper
        // nesting falls back to dne.
        if (locators_[j].kind == Locator::kDriverDirect) {
          loc.kind = Locator::kFromBuild;
          loc.lower_join = j;
          loc.build_attr_col = *build_idx;
          pending_[j].push_back(k);
        }
        break;
      }
    }
    locators_[k] = loc;
    // A join whose fan-out factor is unknown poisons everything above it.
    if (loc.kind == Locator::kNone) {
      for (size_t m = k; m < joins_.size(); ++m) {
        locators_[m].kind = Locator::kNone;
      }
      break;
    }
  }
}

void PipelineJoinEstimator::ObserveBuildRow(size_t k, const Row& row) {
  QPI_DCHECK(k < joins_.size());
  const JoinSpec& spec = joins_[k];
  // A NULL build key matches nothing: neither histogram counts the row.
  if (row[spec.build_key_index].is_null()) return;
  uint64_t key = HistogramKeyCode(row[spec.build_key_index]);
  own_hist_[k].Increment(key);

  // Fold dependent (Case 2) histograms: cumulative product of dependent
  // multipliers in ascending order so every chain prefix stays available.
  if (!pending_[k].empty()) {
    uint64_t w = 1;
    for (size_t dep : pending_[k]) {
      QPI_DCHECK(build_complete_[dep]);  // builds run top-down
      const Locator& dep_loc = locators_[dep];
      // A NULL attribute matches nothing at the dependent join.
      const Value& attr = row[dep_loc.build_attr_col];
      if (attr.is_null()) break;
      w *= own_hist_[dep].Count(HistogramKeyCode(attr));
      if (w == 0) break;
      derived_[k].try_emplace(dep).first->second.Increment(key, w);
    }
  }
}

void PipelineJoinEstimator::BuildComplete(size_t k) {
  guard_.Check();
  QPI_DCHECK(k < joins_.size());
  build_complete_[k] = true;
}

void PipelineJoinEstimator::ObserveDriverRow(const Row& row) {
  if (frozen_) return;
  guard_.Check();
  size_t n = joins_.size();
  double product = 1.0;
  // Per driver-direct join: its current group factor and driver key value,
  // so Case-2 dependents can replace the group factor.
  std::vector<double>& last_factor = scratch_last_factor_;
  std::vector<uint64_t>& driver_key = scratch_driver_key_;

  for (size_t k = 0; k < n; ++k) {
    const Locator& loc = locators_[k];
    if (loc.kind == Locator::kNone) break;
    if (loc.kind == Locator::kDriverDirect) {
      // A NULL driver key matches nothing at this join.
      const Value& attr = row[loc.driver_col];
      uint64_t v = HistogramKeyCode(attr);
      double f =
          attr.is_null() ? 0.0 : static_cast<double>(own_hist_[k].Count(v));
      product *= f;
      last_factor[k] = f;
      driver_key[k] = v;
    } else {
      size_t j = loc.lower_join;
      uint64_t v = driver_key[j];
      double prev = last_factor[j];
      auto it = derived_[j].find(k);
      double folded =
          it == derived_[j].end()
              ? 0.0
              : static_cast<double>(it->second.Count(v));
      // The folded factor replaces the previous factor of group j (which
      // starts as join j's own count and advances along the dependent
      // chain). prev == 0 implies folded == 0 and the product stays 0.
      product = (prev == 0.0) ? 0.0 : product / prev * folded;
      last_factor[j] = folded;
    }
    contribution_sum_[k] += product;
    moments_[k].Observe(product);
  }
  if (group_pushdown_) {
    // `product` now holds the top join's fan-out for this driver tuple
    // (contributions are exact integer counts); fold it into the
    // join-output distribution of the grouping attribute.
    uint64_t weight = static_cast<uint64_t>(product + 0.5);
    if (weight > 0) {
      output_stats_.ObserveWeighted(
          HistogramKeyCode(row[group_driver_column_]), weight);
    }
  }
  ++driver_seen_;
}

void PipelineJoinEstimator::EnableGroupPushDown(size_t driver_column) {
  QPI_CHECK(driver_column < driver_schema_.num_columns());
  // The fan-out weight is the top join's contribution, which only exists
  // when the whole chain resolved to a push-down rule.
  QPI_CHECK(Resolved(joins_.size() - 1));
  group_pushdown_ = true;
  group_driver_column_ = driver_column;
}

double PipelineJoinEstimator::GroupCountEstimate() const {
  QPI_CHECK(group_pushdown_);
  if (output_stats_.num_observed() == 0) return 0.0;
  if (Exact()) {
    return static_cast<double>(output_stats_.num_distinct());
  }
  double total = EstimateForJoin(joins_.size() - 1);
  if (output_stats_.SquaredCoefficientOfVariation() < kGamma2Threshold) {
    return MleEstimate(output_stats_, total);
  }
  return GeeEstimate(output_stats_, total);
}

double PipelineJoinEstimator::EstimateForJoin(size_t k) const {
  QPI_DCHECK(k < joins_.size());
  if (!Resolved(k) || driver_seen_ == 0) return 0.0;
  if (Exact()) return contribution_sum_[k];
  double mean = contribution_sum_[k] / static_cast<double>(driver_seen_);
  return mean * driver_total_provider_();
}

double PipelineJoinEstimator::ConfidenceHalfWidth(size_t k,
                                                  double alpha) const {
  QPI_DCHECK(k < joins_.size());
  if (!Resolved(k) || driver_seen_ == 0 || Exact()) return 0.0;
  double z = ZAlpha(alpha);
  return z * driver_total_provider_() * moments_[k].StdDev() /
         std::sqrt(static_cast<double>(driver_seen_));
}

size_t PipelineJoinEstimator::HistogramBytesUsed() const {
  size_t bytes = 0;
  for (const HashHistogram& h : own_hist_) bytes += h.UsedBytes();
  for (const auto& per_join : derived_) {
    for (const auto& [dep, h] : per_join) {
      (void)dep;
      bytes += h.UsedBytes();
    }
  }
  return bytes;
}

}  // namespace qpi
