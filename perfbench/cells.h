// Per-layer microcells: single-threaded costs of the public layer entry
// points on each software backend, plus one 3-thread cell on disjoint
// tracked mutexes.

#ifndef GOCC_PERFBENCH_CELLS_H_
#define GOCC_PERFBENCH_CELLS_H_

#include <string>
#include <utility>
#include <vector>

namespace gocc::perfbench {

using MetricList = std::vector<std::pair<std::string, double>>;

// Runs every cell within about `budget_s` seconds of wall time and appends
// one "<layer>.<cell>_ns[.<backend>]" entry per cell (nanoseconds per
// operation, median of repeated timings). Single-threaded cells run on the
// calling thread; the 3-thread cell starts its own threads. Leaves the
// SimTM backend active.
void RunMicrocells(double budget_s, MetricList* out);

}  // namespace gocc::perfbench

#endif  // GOCC_PERFBENCH_CELLS_H_
