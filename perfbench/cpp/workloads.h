#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "report.h"
#include "storage/catalog.h"

namespace perfbench {

/// CPUs in this process's affinity mask.
size_t HostCpus();

/// Build the catalog several times, report the median as setup_s, and
/// return the last one.
std::unique_ptr<qpi::Catalog> TimedSetups(
    const std::function<std::unique_ptr<qpi::Catalog>()>& build,
    Report* report);

/// nation, customer, orders and lineitem at `scale_factor`, analyzed.
std::unique_ptr<qpi::Catalog> TpchCatalog(uint64_t seed, double scale_factor);

/// Record the named tables' row counts in the report's context.
void RecordTables(const qpi::Catalog& catalog,
                  const std::vector<std::string>& names, Report* report);

/// The served_mix workload: a QpiServer in this process and three
/// closed-loop QpiClient connections over loopback (served.cc).
void RunServedMix(const Args& args, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
