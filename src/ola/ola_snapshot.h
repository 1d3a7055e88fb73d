#ifndef QPI_OLA_OLA_SNAPSHOT_H_
#define QPI_OLA_OLA_SNAPSHOT_H_

#include <cstddef>
#include <cstdint>

#include "common/seqlock.h"

namespace qpi {

/// \brief One published observation of a query's running approximate
/// answer: per-aggregate point estimates with CI half-widths at the
/// configured confidence, plus enough bookkeeping for watchers to judge
/// the estimate (draws behind it, group-count estimate, whether the random
/// prefix ended, whether intake finished and the answer is exact).
///
/// Fixed-size and trivially copyable so the seqlock cell below can publish
/// it word by word through atomics; kMaxAggregates bounds the select list
/// OLA accepts.
struct OlaSnapshot {
  static constexpr size_t kMaxAggregates = 8;

  uint64_t tick = 0;
  uint32_t num_aggregates = 0;
  uint64_t draws = 0;   ///< sample rows behind the estimates
  double groups = 0.0;  ///< live group-count estimate of the aggregate
  bool frozen = false;  ///< the input's random prefix has ended
  bool exact = false;   ///< intake complete: estimates exact, half-widths 0
  double estimate[kMaxAggregates] = {};
  double half_width[kMaxAggregates] = {};
};

/// The latest OlaSnapshot of a running query, published like
/// SnapshotSlot through one SeqlockCell.
using OlaSnapshotSlot = SeqlockCell<OlaSnapshot>;

}  // namespace qpi

#endif  // QPI_OLA_OLA_SNAPSHOT_H_
