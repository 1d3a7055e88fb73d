#ifndef QPI_STORAGE_CATALOG_H_
#define QPI_STORAGE_CATALOG_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/table.h"

namespace qpi {

/// \brief Per-column statistics collected by Catalog::Analyze.
///
/// These are the "base table statistics" the paper assumes the system
/// catalog provides (Section 3): table sizes always, single-column
/// distributions optionally. The optimizer consumes them under uniformity
/// and independence assumptions — deliberately naive so that skewed data
/// yields the badly-off initial estimates of Figure 4.
struct ColumnStats {
  uint64_t num_distinct = 0;
  Value min;
  Value max;
};

/// Statistics for one table.
struct TableStats {
  uint64_t row_count = 0;
  std::vector<ColumnStats> columns;  ///< parallel to the table schema
};

/// \brief Registry of tables and their statistics.
class Catalog {
 public:
  /// Register a table; fails if the name already exists.
  Status Register(TablePtr table);

  /// Look up a table by name (nullptr if missing).
  TablePtr Find(const std::string& name) const;

  /// Compute exact row counts and per-column distinct/min/max for `name`.
  /// (Exact where a real system would sample; the point is to hand the
  /// optimizer *plausible* single-column stats, not to model ANALYZE cost.)
  Status Analyze(const std::string& name);

  /// Stats for `name` (nullptr if never analyzed).
  const TableStats* Stats(const std::string& name) const;

  std::vector<std::string> TableNames() const;

 private:
  std::map<std::string, TablePtr> tables_;
  std::map<std::string, TableStats> stats_;
};

}  // namespace qpi

#endif  // QPI_STORAGE_CATALOG_H_
