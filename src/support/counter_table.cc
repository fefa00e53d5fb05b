#include "src/support/counter_table.h"

namespace gocc::support {

std::string RenderCounters(std::span<const CounterRow> rows,
                           const std::vector<uint64_t>& counts) {
  std::string out;
  for (const CounterRow& row : rows) {
    if (!out.empty()) {
      out += ' ';
    }
    out += row.name;
    if (row.label == nullptr) {
      out += '=';
      out += std::to_string(counts[row.slot]);
      continue;
    }
    const bool named = row.label_value != nullptr;
    out += named ? "{" : "=[";
    for (int i = 0; i < row.width; ++i) {
      if (i > 0) {
        out += ' ';
      }
      if (named) {
        out += row.label_value(i);
        out += '=';
      }
      out += std::to_string(counts[row.slot + i]);
    }
    out += named ? '}' : ']';
  }
  return out;
}

}  // namespace gocc::support
