#include "perfbench/trace.h"

#include <algorithm>

#include "src/support/strings.h"

namespace gocc::perfbench {

std::string ChromeTraceJson(const std::vector<SampledOp>& ops,
                            const char* op_span_name, double ns_per_tick) {
  uint64_t t0 = ~uint64_t{0};
  int max_client = -1;
  for (const SampledOp& op : ops) {
    t0 = std::min(t0, op.op_start);
    max_client = std::max(max_client, op.client);
  }
  const auto us = [&](uint64_t ticks) {
    return static_cast<double>(ticks) * ns_per_tick / 1000.0;
  };

  std::string out =
      "{\"traceEvents\":[{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
      "\"tid\":0,\"args\":{\"name\":\"perfbench\"}}";
  for (int c = 0; c <= max_client; ++c) {
    out += StrFormat(
        ",{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,"
        "\"args\":{\"name\":\"client-%d\"}}",
        c, c);
  }
  const auto span = [&](const char* name, const char* cat, int tid,
                        uint64_t start, uint64_t end, uint64_t id,
                        uint32_t body_runs) {
    out += StrFormat(
        ",{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
        "\"dur\":%.3f,\"pid\":1,\"tid\":%d,\"args\":{\"req\":%llu,"
        "\"body_runs\":%u}}",
        name, cat, us(start - t0), us(end > start ? end - start : 0), tid,
        static_cast<unsigned long long>(id), body_runs);
  };
  for (const SampledOp& op : ops) {
    const OpSpans& s = op.spans;
    span(op_span_name, "request", op.client, op.op_start, op.op_end, op.id,
         s.body_runs);
    if (s.episodes > 0) {
      span("optilib.episode", "optilib", op.client, s.episode_start,
           s.episode_end, op.id, s.body_runs);
      span("workloads.critical_section", "workloads", op.client,
           s.body_start, s.body_end, op.id, s.body_runs);
    }
  }
  out += StrFormat("],\"displayTimeUnit\":\"ns\",\"otherData\":{"
                   "\"nsPerTick\":%.6f,\"requests\":%zu}}",
                   ns_per_tick, ops.size());
  return out;
}

}  // namespace gocc::perfbench
