#ifndef QPI_PROGRESS_SNAPSHOT_SLOT_H_
#define QPI_PROGRESS_SNAPSHOT_SLOT_H_

#include "common/seqlock.h"
#include "progress/gnm.h"

namespace qpi {

/// The latest GnmSnapshot of a running query: the executing worker
/// publishes from its tick path, monitor and UI threads read at any time
/// (see SeqlockCell and DESIGN.md, "Threading model").
using SnapshotSlot = SeqlockCell<GnmSnapshot>;

}  // namespace qpi

#endif  // QPI_PROGRESS_SNAPSHOT_SLOT_H_
