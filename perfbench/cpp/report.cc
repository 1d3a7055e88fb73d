#include "report.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Keep in step with BENCHMARK.json.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"query_p50_ms", "ms"},
    {"query_tail_ms", "ms"},
    {"queries_per_s", "1/s"},
    {"gnm_calls_per_s", "1/s"},
    {"peak_rss_mb", "MiB"},
};

constexpr MetricSpec kLayers[] = {
    {"sql.plan_ms", "ms"},
    {"exec.compile_ms", "ms"},
    {"exec.open_ms", "ms"},
    {"exec.drain_ms", "ms"},
    {"exec.drain_cpu_ms", "ms"},
    {"exec.join_partition_ms", "ms"},
    {"exec.join_phase_ms", "ms"},
    {"exec.gnm_calls", "count"},
    {"exec.rows_out", "count"},
    {"alloc.news_per_call", "1/call"},
    {"alloc.bytes_per_call", "B/call"},
    {"sched.subtasks", "count"},
    {"sched.steal_ratio", "ratio"},
    {"progress.publish_ms", "ms"},
    {"progress.publishes", "count"},
    {"progress.publish_share", "%"},
    {"progress.publish_share.scan_filter", "%"},
    {"progress.publish_share.group_orders", "%"},
    {"progress.publish_share.join_filter", "%"},
    {"progress.publish_share.pipeline3", "%"},
    {"progress.publish_share.join_group_order", "%"},
    {"progress.publish_share.ola_join_agg", "%"},
    {"progress.finalize_ms", "ms"},
    {"estimators.once_selected_share", "ratio"},
    {"service.submit_rtt_ms", "ms"},
    {"service.queued_ms", "ms"},
    {"service.snapshots_per_query", "count"},
    {"service.fanout", "ratio"},
    {"delivery_p50_ms", "ms"},
    {"delivery_tail_ms", "ms"},
    {"first_snapshot_p50_ms", "ms"},
    {"progress_err", "ratio"},
    {"failed_ratio", "ratio"},
    {"trace_overhead_pct", "%"},
};

std::string Number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace

void Report::Check(const std::string& failure) {
  ++attempted_;
  if (failure.empty()) return;
  ++failed_;
  if (failed_ <= 10) std::fprintf(stderr, "FAILED %s\n", failure.c_str());
}

void Report::EndToEnd(const std::string& name, double value) {
  end_to_end_[name] = value;
}

void Report::Layer(const std::string& name, double value) {
  layers_[name] = value;
}

void Report::Context(const std::string& key, const std::string& json) {
  context_.emplace_back(key, json);
}

void Report::Context(const std::string& key, double value) {
  Context(key, Number(value));
}

int Report::Print() const {
  std::string metrics;
  std::string not_applicable;
  auto emit = [&metrics](const MetricSpec& spec, double value) {
    if (!metrics.empty()) metrics += ", ";
    metrics += JsonString(spec.name) + ": {\"value\": " + Number(value) +
               ", \"unit\": " + JsonString(spec.unit) + "}";
  };
  if (args_.trace) {
    for (const MetricSpec& spec : kLayers) {
      auto it = layers_.find(spec.name);
      if (it == layers_.end()) {
        // The layer does not run on this workload: report 0, say so.
        if (!not_applicable.empty()) not_applicable += ", ";
        not_applicable += JsonString(spec.name);
        emit(spec, 0.0);
      } else if (!std::isfinite(it->second)) {
        std::fprintf(stderr, "metric %s is not finite\n", spec.name);
        return 1;
      } else {
        emit(spec, it->second);
      }
    }
  } else {
    for (const MetricSpec& spec : kEndToEnd) {
      auto it = end_to_end_.find(spec.name);
      if (it == end_to_end_.end() || !std::isfinite(it->second)) {
        std::fprintf(stderr, "metric %s is missing\n", spec.name);
        return 1;
      }
      emit(spec, it->second);
    }
  }

  std::string context = "\"workload\": " + JsonString(args_.workload) +
                        ", \"seed\": " + std::to_string(args_.seed) +
                        ", \"trace\": " + (args_.trace ? "1" : "0");
  for (const auto& [key, json] : context_) {
    context += ", " + JsonString(key) + ": " + json;
  }
  if (args_.trace) context += ", \"not_applicable\": [" + not_applicable + "]";
  std::printf("{\"context\": {%s}}\n", context.c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      failed_ == 0 ? "true" : "false",
      static_cast<unsigned long long>(attempted_),
      static_cast<unsigned long long>(failed_), metrics.c_str());
  std::fflush(stdout);
  return 0;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double TailValue(std::vector<double> values, double* percentile) {
  *percentile = 0;
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  // Below 21 samples that percentile would sit under the median, so the
  // maximum stands in for it.
  size_t n = values.size();
  size_t index = n >= 21 ? n - 11 : n - 1;
  *percentile = 100.0 * static_cast<double>(index + 1) / static_cast<double>(n);
  return values[index];
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace perfbench
