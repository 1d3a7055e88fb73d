#include "oracle.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <unordered_map>

#include "common/value.h"

namespace perfbench {
namespace {

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t ValueHash(const qpi::Value& v) {
  switch (v.type()) {
    case qpi::ValueType::kInt64:
      return Mix(static_cast<uint64_t>(v.AsInt64()));
    case qpi::ValueType::kString: {
      uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a
      for (unsigned char c : v.AsString()) h = (h ^ c) * 0x100000001b3ULL;
      return Mix(h ^ 0x5354ULL);
    }
    case qpi::ValueType::kNull:
      return Mix(0x4e554c4cULL);
    default:
      return 0;  // doubles go to Digest::doubles
  }
}

/// Per-row summary: the hash sum and double sum Digest::AddRow would use.
struct RowSummary {
  uint64_t hash = 0;
  long double doubles = 0;
};

RowSummary Summarize(const qpi::Row& row) {
  RowSummary s;
  for (const qpi::Value& v : row) {
    if (v.type() == qpi::ValueType::kDouble) {
      s.doubles += v.AsDouble();
    } else {
      s.hash += ValueHash(v);
    }
  }
  return s;
}

[[noreturn]] void Fail(const std::string& message) {
  std::fprintf(stderr, "oracle: %s\n", message.c_str());
  std::exit(2);
}

const qpi::Table& FindTable(const qpi::Catalog& catalog,
                            const std::string& name) {
  qpi::TablePtr table = catalog.Find(name);
  if (table == nullptr) Fail("missing table " + name);
  return *table;
}

size_t Col(const qpi::Table& table, const std::string& name) {
  auto index = table.schema().FindColumn(name);
  if (!index.has_value()) Fail("missing column " + table.name() + "." + name);
  return *index;
}

template <typename Fn>
void ForEachRow(const qpi::Table& table, Fn&& fn) {
  for (size_t b = 0; b < table.num_blocks(); ++b) {
    const qpi::Block& block = table.block(b);
    for (size_t r = 0; r < block.num_rows(); ++r) fn(block.row(r));
  }
}

/// Rows of a table whose `key` column is dense 1..N in row order (the
/// generators' SequentialSpec keys), so a key k is row k - 1.
std::vector<const qpi::Row*> DenseIndex(const qpi::Table& table,
                                        const std::string& key) {
  size_t col = Col(table, key);
  std::vector<const qpi::Row*> rows;
  rows.reserve(table.num_rows());
  ForEachRow(table, [&](const qpi::Row& row) {
    if (row[col].AsInt64() != static_cast<int64_t>(rows.size()) + 1) {
      Fail(table.name() + "." + key + " is not dense");
    }
    rows.push_back(&row);
  });
  return rows;
}

const qpi::Row& Lookup(const std::vector<const qpi::Row*>& index,
                       int64_t key) {
  if (key < 1 || static_cast<size_t>(key) > index.size()) {
    Fail("dangling foreign key " + std::to_string(key));
  }
  return *index[static_cast<size_t>(key) - 1];
}

/// One output row of a `SELECT g, COUNT(*), SUM(x) ... GROUP BY g` query.
void AddGroupRow(Digest* digest, int64_t group, uint64_t count,
                 long double sum) {
  digest->AddParts(ValueHash(qpi::Value(group)) +
                       ValueHash(qpi::Value(static_cast<int64_t>(count))),
                   sum);
}

}  // namespace

void Digest::AddRow(const qpi::Row& row) {
  RowSummary s = Summarize(row);
  AddParts(s.hash, s.doubles);
}

void Digest::AddParts(uint64_t value_hash_sum, long double double_sum) {
  ++rows;
  hash += Mix(value_hash_sum);
  doubles += double_sum;
}

std::string CompareDigests(const Digest& want, const Digest& got) {
  if (want.rows != got.rows) {
    return "row count " + std::to_string(got.rows) + ", expected " +
           std::to_string(want.rows);
  }
  if (want.hash != got.hash) return "value checksum mismatch";
  long double tolerance = 1e-9L * std::fmax(1.0L, std::fabs(want.doubles));
  if (std::fabs(want.doubles - got.doubles) > tolerance) {
    return "double checksum mismatch";
  }
  return "";
}

std::vector<Shape> TpchShapes() {
  return {
      {"scan_filter", "SELECT * FROM lineitem WHERE lineitem.quantity <= 5",
       false},
      {"group_orders",
       "SELECT orderpriority, COUNT(*), SUM(totalprice) FROM orders "
       "GROUP BY orderpriority",
       false},
      {"join_filter",
       "SELECT * FROM lineitem JOIN orders ON orders.orderkey = "
       "lineitem.orderkey WHERE orders.totalprice > 450000.0",
       false},
      {"pipeline3",
       "SELECT * FROM lineitem JOIN orders ON orders.orderkey = "
       "lineitem.orderkey JOIN customer ON customer.custkey = orders.custkey "
       "WHERE customer.mktsegment = 1 AND lineitem.quantity <= 25",
       false},
      {"join_group_order",
       "SELECT customer.nationkey, COUNT(*), SUM(orders.totalprice) "
       "FROM orders JOIN customer ON customer.custkey = orders.custkey "
       "GROUP BY customer.nationkey ORDER BY customer.nationkey",
       false},
      {"ola_join_agg",
       "SELECT COUNT(*), SUM(lineitem.extendedprice) FROM lineitem JOIN "
       "orders ON orders.orderkey = lineitem.orderkey "
       "WHERE orders.orderpriority = 1",
       true},
  };
}

std::vector<Expected> TpchExpected(const qpi::Catalog& catalog) {
  const qpi::Table& lineitem = FindTable(catalog, "lineitem");
  const qpi::Table& orders = FindTable(catalog, "orders");
  const qpi::Table& customer = FindTable(catalog, "customer");
  const size_t l_orderkey = Col(lineitem, "orderkey");
  const size_t l_quantity = Col(lineitem, "quantity");
  const size_t l_price = Col(lineitem, "extendedprice");
  const size_t o_custkey = Col(orders, "custkey");
  const size_t o_total = Col(orders, "totalprice");
  const size_t o_priority = Col(orders, "orderpriority");
  const size_t c_nation = Col(customer, "nationkey");
  const size_t c_segment = Col(customer, "mktsegment");
  std::vector<const qpi::Row*> order_by_key = DenseIndex(orders, "orderkey");
  std::vector<const qpi::Row*> customer_by_key =
      DenseIndex(customer, "custkey");

  std::vector<Expected> out(TpchShapes().size());
  // scan_filter, join_filter, pipeline3 and ola_join_agg all drive off
  // lineitem, so one pass serves the four.
  uint64_t ola_count = 0;
  long double ola_sum = 0;
  ForEachRow(lineitem, [&](const qpi::Row& l) {
    const int64_t quantity = l[l_quantity].AsInt64();
    if (quantity <= 5) out[0].digest.AddRow(l);
    const qpi::Row& o = Lookup(order_by_key, l[l_orderkey].AsInt64());
    RowSummary ls = Summarize(l);
    RowSummary os = Summarize(o);
    if (o[o_total].AsDouble() > 450000.0) {
      out[2].digest.AddParts(ls.hash + os.hash, ls.doubles + os.doubles);
    }
    if (quantity <= 25) {
      const qpi::Row& c = Lookup(customer_by_key, o[o_custkey].AsInt64());
      if (c[c_segment].AsInt64() == 1) {
        RowSummary cs = Summarize(c);
        out[3].digest.AddParts(ls.hash + os.hash + cs.hash,
                               ls.doubles + os.doubles + cs.doubles);
      }
    }
    if (o[o_priority].AsInt64() == 1) {
      ++ola_count;
      ola_sum += l[l_price].AsDouble();
    }
  });
  out[5].digest.AddParts(
      ValueHash(qpi::Value(static_cast<int64_t>(ola_count))), ola_sum);
  out[5].ola_count = static_cast<double>(ola_count);
  out[5].ola_sum = ola_sum;

  struct Group {
    uint64_t count = 0;
    long double sum = 0;
  };
  std::map<int64_t, Group> by_priority;
  std::map<int64_t, Group> by_nation;
  ForEachRow(orders, [&](const qpi::Row& o) {
    Group& p = by_priority[o[o_priority].AsInt64()];
    ++p.count;
    p.sum += o[o_total].AsDouble();
    const qpi::Row& c = Lookup(customer_by_key, o[o_custkey].AsInt64());
    Group& n = by_nation[c[c_nation].AsInt64()];
    ++n.count;
    n.sum += o[o_total].AsDouble();
  });
  for (const auto& [key, g] : by_priority) {
    AddGroupRow(&out[1].digest, key, g.count, g.sum);
  }
  for (const auto& [key, g] : by_nation) {
    AddGroupRow(&out[4].digest, key, g.count, g.sum);
  }
  return out;
}

Shape SkewedShape() {
  return {"skewed_join",
          "SELECT * FROM c1 JOIN c2 ON c1.nationkey = c2.nationkey", false};
}

Expected SkewedExpected(const qpi::Catalog& catalog) {
  const qpi::Table& c1 = FindTable(catalog, "c1");
  const qpi::Table& c2 = FindTable(catalog, "c2");
  const size_t k1 = Col(c1, "nationkey");
  const size_t k2 = Col(c2, "nationkey");
  struct Bucket {
    std::vector<uint64_t> hashes;
    long double doubles = 0;
  };
  std::unordered_map<int64_t, Bucket> right;
  ForEachRow(c2, [&](const qpi::Row& row) {
    RowSummary s = Summarize(row);
    Bucket& b = right[row[k2].AsInt64()];
    b.hashes.push_back(s.hash);
    b.doubles += s.doubles;
  });
  Expected out;
  ForEachRow(c1, [&](const qpi::Row& row) {
    auto it = right.find(row[k1].AsInt64());
    if (it == right.end()) return;
    RowSummary s = Summarize(row);
    const Bucket& b = it->second;
    for (uint64_t h : b.hashes) {
      ++out.digest.rows;
      out.digest.hash += Mix(s.hash + h);
    }
    out.digest.doubles +=
        s.doubles * static_cast<long double>(b.hashes.size()) + b.doubles;
  });
  return out;
}

}  // namespace perfbench
