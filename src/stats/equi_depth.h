#ifndef QPI_STATS_EQUI_DEPTH_H_
#define QPI_STATS_EQUI_DEPTH_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace qpi {

/// \brief Equi-depth (equal-height) histogram over a numeric column.
///
/// The paper's Section 3: the framework "does not require, but can make use
/// of base table statistics. Such statistics are commonly histograms of the
/// attribute value distribution of single base table attributes." This is
/// that structure: B buckets each holding ~1/B of the rows, so range
/// selectivities are accurate even under heavy skew (where the uniform
/// min/max interpolation the naive optimizer uses can be off by an order of
/// magnitude). ANALYZE builds one per numeric column; the optimizer
/// consults it when OptimizerOptions::use_column_histograms is set.
class EquiDepthHistogram {
 public:
  /// Build from (not necessarily sorted) column values.
  static std::shared_ptr<EquiDepthHistogram> Build(std::vector<double> values,
                                                   size_t num_buckets = 64);

  /// Estimated fraction of rows with value < x (or <= x with `inclusive`).
  double SelectivityBelow(double x, bool inclusive) const;

  /// Estimated fraction of rows equal to x (bucket fraction spread over the
  /// bucket's width under local uniformity).
  double SelectivityEquals(double x) const;

  size_t num_buckets() const { return fences_.size() - 1; }
  uint64_t row_count() const { return row_count_; }
  double min() const { return fences_.front(); }
  double max() const { return fences_.back(); }

 private:
  EquiDepthHistogram() = default;

  // fences_[0] = min, fences_[B] = max; bucket b covers
  // [fences_[b], fences_[b+1]] and holds depth_[b] rows.
  std::vector<double> fences_;
  std::vector<uint64_t> depth_;
  uint64_t row_count_ = 0;
};

}  // namespace qpi

#endif  // QPI_STATS_EQUI_DEPTH_H_
