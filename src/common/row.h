#ifndef QPI_COMMON_ROW_H_
#define QPI_COMMON_ROW_H_

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "common/value.h"

namespace qpi {

/// A tuple flowing between operators: one Value per schema column.
using Row = std::vector<Value>;

/// Overwrite `*out` with `left` followed by `right` (join output
/// construction). Copy-assigns over the existing Values, so a slot whose
/// storage has room for this width is refilled without touching the heap:
/// each Value copy is 16 bytes, plus a refcount bump for a string longer
/// than Value::kInlineCapacity. A wider previous row is truncated, leaving
/// no stale trailing Value. A Row converts to either span implicitly; the
/// grace join passes rows straight out of its partition chunks.
inline void AssignConcat(Row* out, std::span<const Value> left,
                         std::span<const Value> right) {
  out->reserve(left.size() + right.size());
  out->resize(left.size() + right.size());
  auto mid = std::copy(left.begin(), left.end(), out->begin());
  std::copy(right.begin(), right.end(), mid);
}

/// "(v1, v2, ...)" debug rendering.
std::string RowToString(const Row& row);

}  // namespace qpi

#endif  // QPI_COMMON_ROW_H_
