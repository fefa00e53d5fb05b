// Ablations A1/A3: design-choice sweeps on the DES model.
//  A1 — MAX_ATTEMPTS (LockHeld retry budget, Listing 19): too few retries
//       causes premature fallbacks (lemming cascades); extra retries past a
//       small budget add little.
//  A3 — perceptron weight-decay threshold (§5.4.1): too small thrashes on
//       genuinely hostile sites; too large reacts slowly to phase changes.
//       Modelled with a phase-change workload (hostile first, friendly
//       after).
//  A1b — immediate fallback vs retrying conflict aborts.
// The backoff shape (A4) is a pair of constants, OptiLock::kBackoffBasePauses
// and kBackoffCapPauses; EXPERIMENTS.md §A4 keeps the last sweep.

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"

namespace {

using gocc::sim::LockKind;
using gocc::sim::MachineParams;
using gocc::sim::RunMode;
using gocc::sim::Scenario;
using gocc::sim::SimResult;
using gocc::sim::Simulate;

// One sweep point -> one JSON record in the active BENCH_ablation.json.
void EmitPoint(const std::string& benchmark, const std::string& mode,
               double ns_per_op, uint64_t total_ops,
               std::vector<std::pair<std::string, double>> counters) {
  if (gocc::bench::JsonReport* r = gocc::bench::JsonReport::Active()) {
    gocc::bench::JsonRecord rec;
    rec.benchmark = benchmark;
    rec.mode = mode;
    rec.section = "ablation";
    rec.threads = 0;
    rec.ns_per_op = ns_per_op;
    rec.total_ops = total_ops;
    rec.counters = std::move(counters);
    r->Add(std::move(rec));
  }
}

Scenario MixedScenario() {
  Scenario s;
  s.name = "mixed";
  s.kind = LockKind::kMutex;
  s.cs_ns = 25;
  s.shared_write_lines = 1;
  s.write_prob = 0.25;
  s.write_footprint_lines = 4;
  s.outside_ns = 4;
  return s;
}

void RetryBudgetSweep() {
  std::printf("\n[A1] LockHeld retry budget (MAX_ATTEMPTS) sweep — mixed "
              "workload, 8 cores\n");
  std::printf("  %10s %12s %12s %12s\n", "attempts", "GOCC ns/op",
              "aborts/op", "fallbacks/op");
  Scenario s = MixedScenario();
  for (int attempts : {0, 1, 2, 3, 5, 8}) {
    MachineParams params;
    params.lock_held_retries = attempts;
    SimResult r = Simulate(s, 8, RunMode::kElided, params);
    std::printf("  %10d %12.2f %12.3f %12.3f\n", attempts, r.ns_per_op,
                static_cast<double>(r.htm_aborts) /
                    static_cast<double>(r.total_ops),
                static_cast<double>(r.fallbacks) /
                    static_cast<double>(r.total_ops));
    EmitPoint("A1/retry_budget", "sim-elided", r.ns_per_op, r.total_ops,
              {{"attempts", static_cast<double>(attempts)},
               {"aborts", static_cast<double>(r.htm_aborts)},
               {"fallbacks", static_cast<double>(r.fallbacks)}});
  }
  std::printf("  (paper default: a small retry budget; retries only pay "
              "off for LockHeld\n   aborts because the holder is about to "
              "release)\n");
}

void DecayThresholdSweep() {
  std::printf("\n[A3] Perceptron weight-decay threshold sweep — hostile "
              "workload, 8 cores\n");
  std::printf("  %10s %12s %14s\n", "decay", "GOCC ns/op", "aborts/op");
  // Permanently hostile: larger decay thresholds probe HTM less often, so
  // the abort tax falls as the threshold grows.
  Scenario s = MixedScenario();
  s.write_prob = 1.0;
  s.cs_ns = 60;
  for (int decay : {10, 100, 1000, 10000}) {
    MachineParams params;
    params.perceptron_decay = decay;
    SimResult r = Simulate(s, 8, RunMode::kElided, params);
    std::printf("  %10d %12.2f %14.4f\n", decay, r.ns_per_op,
                static_cast<double>(r.htm_aborts) /
                    static_cast<double>(r.total_ops));
    EmitPoint("A3/perceptron_decay", "sim-elided", r.ns_per_op, r.total_ops,
              {{"decay", static_cast<double>(decay)},
               {"aborts", static_cast<double>(r.htm_aborts)}});
  }
  std::printf("  (the paper picks 1000: hostile sites re-probe rarely "
              "enough to be cheap,\n   yet phase changes are noticed within "
              "~1000 critical sections)\n");
}

void ConflictRetryAblation() {
  std::printf("\n[A1b] Immediate fallback vs retrying conflict aborts — 8 "
              "cores\n");
  std::printf("  The paper falls back to the lock on any non-LockHeld "
              "abort. Retrying\n  conflicts instead would re-speculate "
              "against the same contenders:\n");
  // Model conflict retries by letting LockHeld-style retries also apply —
  // approximate upper bound using a higher abort penalty per op.
  Scenario s = MixedScenario();
  s.write_prob = 0.6;
  for (bool retry_conflicts : {false, true}) {
    MachineParams params;
    params.htm_abort_penalty_ns =
        retry_conflicts ? params.htm_abort_penalty_ns * 3 : // ~2 extra tries
        params.htm_abort_penalty_ns;
    SimResult r = Simulate(s, 8, RunMode::kElided, params);
    std::printf("  %-22s %12.2f ns/op\n",
                retry_conflicts ? "retry conflicts (x3)" : "fallback (paper)",
                r.ns_per_op);
    EmitPoint("A1b/conflict_policy",
              retry_conflicts ? "sim-retry" : "sim-fallback", r.ns_per_op,
              r.total_ops, {});
  }
}

}  // namespace

int main() {
  gocc::bench::JsonReport report("ablation");
  std::printf("== Ablations over optiLib policy knobs (DES model) ==\n");
  RetryBudgetSweep();
  DecayThresholdSweep();
  ConflictRetryAblation();
  return 0;
}
