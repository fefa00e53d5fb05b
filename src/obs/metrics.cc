#include "src/obs/metrics.h"

#include <cstdint>
#include <span>
#include <string>

#include "src/htm/stats.h"
#include "src/htm/swocc.h"
#include "src/obs/recorder.h"
#include "src/optilib/optilock.h"
#include "src/support/counter_table.h"
#include "src/support/misuse.h"
#include "src/support/strings.h"

namespace gocc::obs {
namespace {

Metric Counter1(const char* name, const char* help, double value) {
  Metric m;
  m.name = name;
  m.help = help;
  m.type = "counter";
  m.samples.push_back({"", value});
  return m;
}

Metric Gauge1(const char* name, const char* help, double value) {
  Metric m = Counter1(name, help, value);
  m.type = "gauge";
  return m;
}

}  // namespace

std::vector<Metric> CollectRuntimeMetrics() {
  const struct {
    const char* family;
    std::span<const support::CounterRow> rows;
    std::vector<uint64_t> counts;
  } tables[] = {
      {"opti", optilib::kOptiStatsRows, optilib::GlobalOptiStats().Counts()},
      {"opti", support::kMisuseRows, support::MisuseCounts()},
      {"tx", htm::kTxStatsRows, htm::GlobalTxStats().Counts()},
      {"swocc", htm::kSwOccWordRows, htm::GlobalSwOccWordStats().Counts()},
  };
  std::vector<Metric> out;
  for (const auto& table : tables) {
    for (const support::CounterRow& row : table.rows) {
      Metric m;
      m.name = StrFormat("gocc_%s_%s_total", table.family, row.name);
      m.help = row.help;
      for (int i = 0; i < row.width; ++i) {
        std::string labels;
        if (row.label != nullptr) {
          const std::string value = row.label_value != nullptr
                                        ? row.label_value(i)
                                        : std::to_string(i);
          labels = StrFormat("%s=\"%s\"", row.label, value.c_str());
        }
        m.samples.push_back(
            {labels, static_cast<double>(table.counts[row.slot + i])});
      }
      out.push_back(std::move(m));
    }
  }

  // --- episode clock & recorder -------------------------------------------
  out.push_back(Gauge1(
      "gocc_opti_episode_clock_frontier",
      "Next unclaimed tick of the process-wide episode clock.",
      static_cast<double>(optilib::EpisodeClockFrontier())));
  out.push_back(Counter1(
      "gocc_obs_trace_events_recorded_total",
      "Episode trace events recorded since the last drain (all rings).",
      static_cast<double>(TraceEventsRecorded())));
  out.push_back(Gauge1("gocc_obs_trace_rings",
                       "Per-thread trace rings ever registered.",
                       static_cast<double>(TraceRingCount())));
  out.push_back(Gauge1("gocc_obs_sites",
                       "Lock sites registered for episode attribution.",
                       static_cast<double>(SiteCount())));
  return out;
}

std::string RenderPrometheus(const std::vector<Metric>& metrics) {
  std::string out;
  for (const Metric& metric : metrics) {
    out += StrFormat("# HELP %s %s\n", metric.name.c_str(),
                     metric.help.c_str());
    out += StrFormat("# TYPE %s %s\n", metric.name.c_str(), metric.type);
    for (const MetricSample& sample : metric.samples) {
      if (sample.labels.empty()) {
        out += StrFormat("%s %.17g\n", metric.name.c_str(), sample.value);
      } else {
        out += StrFormat("%s{%s} %.17g\n", metric.name.c_str(),
                         sample.labels.c_str(), sample.value);
      }
    }
  }
  return out;
}

std::string PrometheusSnapshot() {
  return RenderPrometheus(CollectRuntimeMetrics());
}

}  // namespace gocc::obs
