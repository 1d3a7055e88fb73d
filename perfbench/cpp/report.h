#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

/// Collects one run's checks and metrics and prints them: a context line
/// (host, build, seed, table sizes, the tail percentile used, figures that
/// only apply to some workloads) followed by the result line
/// {"correct","attempted","failed","metrics"} as the last line of stdout.
class Report {
 public:
  explicit Report(const Args& args) : args_(args) {}

  /// Record one checked operation; a non-empty `failure` counts it failed.
  void Check(const std::string& failure);
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

  /// An end-to-end metric (untraced run) or a per-layer metric (traced
  /// run); which set is printed follows Args::trace.
  void EndToEnd(const std::string& name, double value);
  void Layer(const std::string& name, double value);
  /// A context entry; `json` is an already-encoded JSON value.
  void Context(const std::string& key, const std::string& json);
  void Context(const std::string& key, double value);

  /// Print both lines. Returns the process exit code: 0, or 1 when a
  /// metric is missing or not finite (no result line is printed then).
  int Print() const;

 private:
  Args args_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::map<std::string, double> end_to_end_;
  std::map<std::string, double> layers_;
  std::vector<std::pair<std::string, std::string>> context_;
};

/// Median (mean of the middle two for an even count); 0 when empty.
double Median(std::vector<double> values);

/// The highest percentile that leaves at least 10 samples beyond it (the
/// maximum when there are fewer than 21 samples, where that percentile
/// would fall below the median). `*percentile` receives its rank.
double TailValue(std::vector<double> values, double* percentile);

/// Peak resident set size of this process, in MiB.
double PeakRssMb();

/// Encode a string as a JSON string literal.
std::string JsonString(const std::string& s);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
