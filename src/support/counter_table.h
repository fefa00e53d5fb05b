// Counter tables: each runtime stats family declares its counters once
// (DESIGN.md §4.8).
//
// A family (optilib::OptiStats, htm::TxStats, htm::SwOccWordStats, the
// misuse kinds) numbers its counters with a Slot enum and lists them in one
// constexpr CounterRow table beside its struct. Every exporter reads the
// tables: RenderCounters builds each family's ToString, and
// obs::CollectRuntimeMetrics exports each row as the Prometheus counter
// gocc_<family>_<name>_total. Adding a counter touches its Slot entry and
// its row, plus a named handle if code reads it by name.

#ifndef GOCC_SRC_SUPPORT_COUNTER_TABLE_H_
#define GOCC_SRC_SUPPORT_COUNTER_TABLE_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace gocc::support {

// One scalar counter, or one histogram over `width` consecutive slots.
struct CounterRow {
  int slot;          // first slot the row reads
  int width;         // 1 for a scalar; the bucket count for a histogram
  const char* name;  // the handle's name
  const char* help;  // Prometheus HELP text
  // Histograms only: the label key, and the label value of bucket i. A
  // histogram without label_value is labelled by bucket index.
  const char* label = nullptr;
  const char* (*label_value)(int bucket) = nullptr;
};

// The family's counters as `name=v`, `name=[v0 v1 …]` (index-labelled
// histogram) and `name{label0=v0 …}` (name-labelled histogram), separated by
// spaces; `counts` is indexed by slot.
std::string RenderCounters(std::span<const CounterRow> rows,
                           const std::vector<uint64_t>& counts);

}  // namespace gocc::support

#endif  // GOCC_SRC_SUPPORT_COUNTER_TABLE_H_
