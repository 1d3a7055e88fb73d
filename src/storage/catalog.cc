#include "storage/catalog.h"

#include <unordered_set>

#include "common/table_printer.h"
#include "stats/hash_histogram.h"

namespace qpi {

Status Catalog::Register(TablePtr table) {
  if (!table) return Status::InvalidArgument("null table");
  auto [it, inserted] = tables_.emplace(table->name(), table);
  (void)it;
  if (!inserted) {
    return Status::AlreadyExists(
        StrFormat("table %s already registered", table->name().c_str()));
  }
  return Status::OK();
}

TablePtr Catalog::Find(const std::string& name) const {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : it->second;
}

Status Catalog::Analyze(const std::string& name) {
  TablePtr table = Find(name);
  if (!table) {
    return Status::NotFound(StrFormat("table %s not registered", name.c_str()));
  }
  TableStats stats;
  stats.row_count = table->num_rows();
  size_t ncols = table->schema().num_columns();
  stats.columns.resize(ncols);

  std::vector<HashHistogram> distinct(ncols);
  std::vector<bool> seen_any(ncols, false);
  for (size_t b = 0; b < table->num_blocks(); ++b) {
    const Block& block = table->block(b);
    for (size_t r = 0; r < block.num_rows(); ++r) {
      const Row& row = block.row(r);
      for (size_t c = 0; c < ncols; ++c) {
        const Value& v = row[c];
        if (v.is_null()) continue;
        distinct[c].Increment(HistogramKeyCode(v));
        ColumnStats& cs = stats.columns[c];
        if (!seen_any[c]) {
          cs.min = v;
          cs.max = v;
          seen_any[c] = true;
        } else {
          if (v < cs.min) cs.min = v;
          if (cs.max < v) cs.max = v;
        }
      }
    }
  }
  for (size_t c = 0; c < ncols; ++c) {
    stats.columns[c].num_distinct = distinct[c].num_distinct();
  }
  stats_[name] = std::move(stats);
  return Status::OK();
}

const TableStats* Catalog::Stats(const std::string& name) const {
  auto it = stats_.find(name);
  return it == stats_.end() ? nullptr : &it->second;
}

std::vector<std::string> Catalog::TableNames() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, table] : tables_) {
    (void)table;
    names.push_back(name);
  }
  return names;
}

}  // namespace qpi
