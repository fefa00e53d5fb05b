// Metrics registry + Prometheus-style text exposition (DESIGN.md §4.8).
//
// A snapshot-based exporter: CollectRuntimeMetrics() reads every row of the
// runtime counter tables (OptiStats, the misuse kinds, TxStats and the
// sw-OCC version-word stats; support/counter_table.h) and the trace
// recorder's own bookkeeping into a plain metric list, and
// RenderPrometheus() turns it into the text exposition format (`# HELP` /
// `# TYPE` / samples) that Prometheus, VictoriaMetrics, and friends
// scrape. Collection sums the per-thread stat shards (support/sharded.h),
// so taking a snapshot costs the readers, never the episode fast path.
//
// The metric list is data, not callbacks: embedders that want a /metrics
// endpoint serve PrometheusSnapshot(); tests assert on the structured form.

#ifndef GOCC_SRC_OBS_METRICS_H_
#define GOCC_SRC_OBS_METRICS_H_

#include <string>
#include <vector>

namespace gocc::obs {

struct MetricSample {
  // Rendered label set without braces, e.g. `code="Conflict"`; empty for
  // unlabelled samples.
  std::string labels;
  double value = 0.0;
};

struct Metric {
  std::string name;  // full exposition name, e.g. "gocc_opti_fast_commits_total"
  std::string help;
  const char* type = "counter";  // "counter" | "gauge"
  std::vector<MetricSample> samples;
};

// Snapshot of every GOCC runtime counter family (see header comment).
std::vector<Metric> CollectRuntimeMetrics();

// Prometheus text exposition of a metric list.
std::string RenderPrometheus(const std::vector<Metric>& metrics);

// RenderPrometheus(CollectRuntimeMetrics()) — the one-call /metrics body.
std::string PrometheusSnapshot();

}  // namespace gocc::obs

#endif  // GOCC_SRC_OBS_METRICS_H_
