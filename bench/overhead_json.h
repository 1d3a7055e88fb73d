#ifndef QPI_BENCH_OVERHEAD_JSON_H_
#define QPI_BENCH_OVERHEAD_JSON_H_

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace qpi {
namespace bench {

/// \brief Console reporter that additionally records every finished run and
/// writes a machine-readable overhead summary.
///
/// The overhead benches encode their configuration in named benchmark args
/// ("BM_HashJoin/SFpermille:20/sample_pct:1/estimation:1/batch:256"). The
/// recorder pairs each estimation-on run with the estimation-off run that
/// shares every other arg and emits
///     overhead % = (t_on - t_off) / t_off · 100
/// per (benchmark, mode, batch size) into a JSON file, so the perf
/// trajectory of the estimation framework is tracked across PRs by tooling
/// instead of eyeballs. The pairing key is "estimation" (on/off) or
/// "estimator" (0 = off, 1..n = estimator variants).
///
/// The same machinery doubles as a scaling recorder: construct with
/// PairingSpec{"threads", "1", /*speedup_on_real_time=*/true} and every
/// "threads:N" run is paired with the "threads:1" run sharing its other
/// args, emitting speedup = t_1 / t_N on wall time (parallel speedup is a
/// wall-clock property; CPU time grows with the thread count).
///
/// Every recorded run also carries real_time_spread = (max - min) / min of
/// its repetitions' wall times, the run-to-run noise next to the minimum.
class OverheadRecorder : public benchmark::ConsoleReporter {
 public:
  /// How runs are paired and what the paired metric means.
  struct PairingSpec {
    /// Named benchmark arg to pair on; empty = legacy estimation keys.
    std::string key;
    /// Value of `key` identifying the baseline run of each pair.
    std::string baseline = "0";
    /// true: pair on real time and emit "speedup" = t_base / t.
    /// false: pair on CPU time and emit "overhead_pct".
    bool speedup_on_real_time = false;
  };

  explicit OverheadRecorder(std::string json_path)
      : json_path_(std::move(json_path)) {}

  OverheadRecorder(std::string json_path, PairingSpec spec)
      : json_path_(std::move(json_path)), spec_(std::move(spec)) {}

  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      RecordedRun rec;
      ParseName(run.benchmark_name(), &rec);
      rec.real_time = run.GetAdjustedRealTime();
      rec.cpu_time = run.GetAdjustedCPUTime();
      rec.time_unit = benchmark::GetTimeUnitString(run.time_unit);
      // User counters ride along verbatim (benchmark::UserCounters is an
      // ordered map, so the JSON key order is deterministic). The service
      // latency bench reports its percentile latencies this way.
      for (const auto& [counter_name, counter] : run.counters) {
        rec.counters.emplace_back(counter_name,
                                  static_cast<double>(counter.value));
      }
      // Repetitions of the same configuration are folded by taking the
      // minimum — the standard noise-robust location estimate for
      // benchmark timings (scheduler interference only ever adds time).
      rec.real_time_max = rec.real_time;
      for (RecordedRun& prev : runs_) {
        if (prev.name == rec.name && prev.args == rec.args) {
          prev.real_time = std::min(prev.real_time, rec.real_time);
          prev.real_time_max = std::max(prev.real_time_max, rec.real_time);
          prev.cpu_time = std::min(prev.cpu_time, rec.cpu_time);
          for (size_t c = 0;
               c < std::min(prev.counters.size(), rec.counters.size()); ++c) {
            if (prev.counters[c].first == rec.counters[c].first) {
              prev.counters[c].second =
                  std::min(prev.counters[c].second, rec.counters[c].second);
            }
          }
          rec.name.clear();
          break;
        }
      }
      if (!rec.name.empty()) runs_.push_back(std::move(rec));
    }
    ConsoleReporter::ReportRuns(reports);
  }

  /// Write the recorded runs + paired overhead table. Returns false (after
  /// printing a diagnostic) when the file cannot be created.
  bool WriteJson() const {
    std::FILE* f = std::fopen(json_path_.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "overhead_json: cannot write %s\n",
                   json_path_.c_str());
      return false;
    }
    // Host parallelism is part of the record: a flat speedup curve on a
    // single-CPU container is an environmental fact, not a regression.
    std::fprintf(f, "{\n  \"host_cpus\": %u,\n  \"runs\": [\n",
                 std::thread::hardware_concurrency());
    for (size_t i = 0; i < runs_.size(); ++i) {
      const RecordedRun& r = runs_[i];
      std::fprintf(f, "    {\"name\": \"%s\", \"args\": {", r.name.c_str());
      for (size_t a = 0; a < r.args.size(); ++a) {
        std::fprintf(f, "%s\"%s\": %s", a == 0 ? "" : ", ",
                     r.args[a].first.c_str(),
                     JsonValue(r.args[a].second).c_str());
      }
      std::fprintf(f,
                   "}, \"real_time\": %.6f, \"cpu_time\": %.6f, "
                   "\"time_unit\": \"%s\", \"real_time_spread\": %.4f",
                   r.real_time, r.cpu_time, r.time_unit.c_str(),
                   r.real_time > 0
                       ? (r.real_time_max - r.real_time) / r.real_time
                       : 0.0);
      if (!r.counters.empty()) {
        std::fprintf(f, ", \"counters\": {");
        for (size_t c = 0; c < r.counters.size(); ++c) {
          std::fprintf(f, "%s\"%s\": %.6f", c == 0 ? "" : ", ",
                       r.counters[c].first.c_str(), r.counters[c].second);
        }
        std::fprintf(f, "}");
      }
      std::fprintf(f, "}%s\n", i + 1 < runs_.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"%s\": [\n",
                 spec_.speedup_on_real_time ? "speedup" : "overhead");
    std::vector<std::string> lines = OverheadLines();
    for (size_t i = 0; i < lines.size(); ++i) {
      std::fprintf(f, "    %s%s\n", lines[i].c_str(),
                   i + 1 < lines.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("overhead summary written to %s\n", json_path_.c_str());
    return true;
  }

 private:
  struct RecordedRun {
    std::string name;
    std::vector<std::pair<std::string, std::string>> args;
    double real_time = 0.0;
    double real_time_max = 0.0;  ///< slowest repetition, for the spread
    double cpu_time = 0.0;
    std::string time_unit;
    std::vector<std::pair<std::string, double>> counters;
  };

  bool IsPairingKey(const std::string& key) const {
    if (!spec_.key.empty()) return key == spec_.key;
    return key == "estimation" || key == "estimator";
  }

  /// Name parts the benchmark library appends to describe the harness
  /// ("iterations:1", "repeats:3", "manual_time", "process_time") rather
  /// than the measured configuration; identical across paired runs, so
  /// keeping them out of args keeps pair keys and the JSON clean.
  static bool IsHarnessPart(const std::string& key,
                            const std::string& value) {
    if (key == "iterations" || key == "repeats") return true;
    return key.empty() && (value == "manual_time" ||
                           value == "process_time" || value == "real_time");
  }

  /// A bare number passes through as a JSON number; anything else is
  /// emitted as a quoted string.
  static std::string JsonValue(const std::string& v) {
    char* end = nullptr;
    std::strtod(v.c_str(), &end);
    if (!v.empty() && end != nullptr && *end == '\0') return v;
    return "\"" + v + "\"";
  }

  /// "BM_X/k1:v1/k2:v2" -> name "BM_X", args [(k1,v1),(k2,v2)]. Unnamed
  /// positional args become ("argN", value).
  static void ParseName(const std::string& full, RecordedRun* rec) {
    size_t start = 0;
    size_t index = 0;
    while (start <= full.size()) {
      size_t slash = full.find('/', start);
      std::string part = full.substr(
          start, slash == std::string::npos ? std::string::npos
                                            : slash - start);
      if (rec->name.empty()) {
        rec->name = part;
      } else if (!part.empty()) {
        size_t colon = part.find(':');
        std::string key =
            colon == std::string::npos ? "" : part.substr(0, colon);
        std::string value =
            colon == std::string::npos ? part : part.substr(colon + 1);
        if (!IsHarnessPart(key, value)) {
          if (key.empty()) key = "arg" + std::to_string(index);
          rec->args.emplace_back(std::move(key), std::move(value));
        }
        ++index;
      }
      if (slash == std::string::npos) break;
      start = slash + 1;
    }
  }

  /// Key identifying an (estimation-off, estimation-on) pair: the name and
  /// every arg except the pairing key itself.
  std::string PairKey(const RecordedRun& r) const {
    std::string key = r.name;
    for (const auto& [k, v] : r.args) {
      if (IsPairingKey(k)) continue;
      key += "/" + k + ":" + v;
    }
    return key;
  }

  std::vector<std::string> OverheadLines() const {
    // Overhead is paired on CPU time: the estimation framework's cost is
    // in-process work, and wall time on shared machines carries scheduler
    // noise that swamps single-digit-percent deltas. Speedup is paired on
    // real time: parallelism buys wall clock, not CPU cycles.
    // Baselines: pairing-key value `spec_.baseline` ("0" for the legacy
    // estimation pairs).
    std::map<std::string, double> baseline;
    for (const RecordedRun& r : runs_) {
      for (const auto& [k, v] : r.args) {
        if (IsPairingKey(k) && v == spec_.baseline) {
          baseline[PairKey(r)] =
              spec_.speedup_on_real_time ? r.real_time : r.cpu_time;
        }
      }
    }
    std::vector<std::string> lines;
    char buf[512];
    for (const RecordedRun& r : runs_) {
      std::string mode_key, mode_value;
      for (const auto& [k, v] : r.args) {
        if (IsPairingKey(k) && v != spec_.baseline) {
          mode_key = k;
          mode_value = v;
        }
      }
      if (mode_key.empty()) continue;
      auto it = baseline.find(PairKey(r));
      if (it == baseline.end() || it->second <= 0) continue;
      double time = spec_.speedup_on_real_time ? r.real_time : r.cpu_time;
      std::string args_json;
      for (const auto& [k, v] : r.args) {
        if (IsPairingKey(k)) continue;
        args_json += "\"" + k + "\": " + JsonValue(v) + ", ";
      }
      if (spec_.speedup_on_real_time) {
        std::snprintf(buf, sizeof(buf),
                      "{\"name\": \"%s\", %s\"%s\": %s, \"time_base\": %.6f, "
                      "\"time\": %.6f, \"time_unit\": \"%s\", "
                      "\"speedup\": %.4f}",
                      r.name.c_str(), args_json.c_str(), mode_key.c_str(),
                      mode_value.c_str(), it->second, time,
                      r.time_unit.c_str(), it->second / time);
      } else {
        double pct = (time - it->second) / it->second * 100.0;
        std::snprintf(buf, sizeof(buf),
                      "{\"name\": \"%s\", %s\"%s\": %s, \"time_off\": %.6f, "
                      "\"time_on\": %.6f, \"time_unit\": \"%s\", "
                      "\"overhead_pct\": %.4f}",
                      r.name.c_str(), args_json.c_str(), mode_key.c_str(),
                      mode_value.c_str(), it->second, time,
                      r.time_unit.c_str(), pct);
      }
      lines.emplace_back(buf);
    }
    return lines;
  }

  std::string json_path_;
  PairingSpec spec_;
  std::vector<RecordedRun> runs_;
};

/// Shared main() body for the overhead benches: run with the recorder,
/// then write `json_path`. Random interleaving is turned on by default
/// (overridable on the command line): the paired on/off runs are spread
/// across the session instead of executing minutes apart, so slow machine
/// drift (thermal, scheduler) cancels out of the overhead deltas.
inline int RunOverheadBenchmarks(
    int argc, char** argv, const char* json_path,
    OverheadRecorder::PairingSpec spec = OverheadRecorder::PairingSpec{}) {
  std::vector<char*> args(argv, argv + argc);
  char interleave[] = "--benchmark_enable_random_interleaving=true";
  // Inserted after argv[0] so explicit command-line flags still win.
  args.insert(args.begin() + (args.empty() ? 0 : 1), interleave);
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  OverheadRecorder reporter(json_path, std::move(spec));
  benchmark::RunSpecifiedBenchmarks(&reporter);
  reporter.WriteJson();
  benchmark::Shutdown();
  return 0;
}

}  // namespace bench
}  // namespace qpi

#endif  // QPI_BENCH_OVERHEAD_JSON_H_
