#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/row.h"
#include "storage/catalog.h"

namespace perfbench {

/// Order-independent digest of a result multiset: the row count, a sum of
/// per-row hashes over every non-double value (integers and strings match
/// bit-exactly), and the sum of every double value (aggregate sums depend
/// on summation order, so doubles are compared with a relative tolerance).
/// Column order inside a row does not matter either, so the digest needs no
/// knowledge of which join side the planner emits first.
struct Digest {
  uint64_t rows = 0;
  uint64_t hash = 0;
  long double doubles = 0;

  void AddRow(const qpi::Row& row);
  /// Add one row given as the sum of its values' hashes and doubles (the
  /// oracle builds join rows from per-side summaries this way).
  void AddParts(uint64_t value_hash_sum, long double double_sum);
};

/// Empty when `got` matches `want`, otherwise what differs.
std::string CompareDigests(const Digest& want, const Digest& got);

/// One query of a workload mix.
struct Shape {
  std::string name;
  std::string sql;
  bool ola = false;  ///< run with online aggregation on, no stop target
};

/// What a shape must return, computed with plain loops over the generated
/// tables — never through the engine.
struct Expected {
  Digest digest;
  /// OLA shapes (a global COUNT(*), SUM(x)): the exact answer the final
  /// OLA snapshot must report.
  double ola_count = 0;
  long double ola_sum = 0;
};

/// The six TPC-H-like shapes shared by tpch_mix and served_mix.
std::vector<Shape> TpchShapes();

/// Expected results of TpchShapes() over `catalog` (nation, customer,
/// orders, lineitem as TpchLikeGenerator makes them), in shape order.
std::vector<Expected> TpchExpected(const qpi::Catalog& catalog);

/// The Figure 3 skewed self-join over tables c1 and c2.
Shape SkewedShape();
Expected SkewedExpected(const qpi::Catalog& catalog);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
