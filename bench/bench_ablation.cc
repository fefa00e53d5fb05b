// Ablations A1/A3: design-choice sweeps on the DES model.
//  A1 — MAX_ATTEMPTS (LockHeld retry budget, Listing 19): too few retries
//       causes premature fallbacks (lemming cascades); extra retries past a
//       small budget add little.
//  A3 — perceptron weight-decay threshold (§5.4.1): too small thrashes on
//       genuinely hostile sites; too large reacts slowly to phase changes.
//       Modelled with a phase-change workload (hostile first, friendly
//       after).
//  A4 — conflict-retry backoff shape, swept on the *real* optiLib runtime
//       with deterministic fault injection (htm/fault.h) standing in for a
//       contended machine.

#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/gosync/mutex.h"
#include "src/gosync/runtime.h"
#include "src/htm/fault.h"
#include "src/htm/shared.h"
#include "src/htm/stats.h"
#include "src/optilib/optilock.h"
#include "src/optilib/perceptron.h"
#include "src/support/stats.h"

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

// --- real-runtime sweep (A4) ---------------------------------------------

// Fresh runtime state for one sweep point.
void ResetRuntime() {
  gocc::htm::GlobalTxStats().Reset();
  gocc::optilib::PublishOptiConfig(gocc::optilib::OptiConfig{});
  gocc::optilib::GlobalOptiStats().Reset();
  gocc::optilib::GlobalPerceptron().Reset();
  gocc::optilib::ResetHardeningState();
  gocc::htm::fault::Disarm();
  gocc::htm::fault::GlobalFaultStats().Reset();
}

void BackoffSweep() {
  std::printf("\n[A4] Conflict-retry backoff sweep — real runtime, 4 "
              "threads, injected 50%% commit-conflict storm\n");
  std::printf("  %10s %12s %12s %12s %14s\n", "base", "ns/op", "fast ratio",
              "waits/op", "pauses/wait");
  constexpr int kThreads = 4;
  constexpr int kIters = 10000;
  for (int base : {0, 8, 32, 128, 512}) {
    ResetRuntime();
    gocc::optilib::OptiConfig cfg = gocc::optilib::GetOptiConfig();
    cfg.use_perceptron = false;  // keep every episode speculating
    cfg.conflict_retries = 3;
    cfg.backoff_base_pauses = base;
    cfg.backoff_cap_pauses = 4096;
    gocc::optilib::PublishOptiConfig(cfg);
    gocc::htm::fault::FaultPlan plan;
    plan.seed = 0x41424c41u;  // fixed: every sweep point sees the same storm
    plan.WithRule(gocc::htm::fault::Site::kCommit, 0.5,
                  gocc::htm::AbortCode::kConflict);
    gocc::htm::fault::Arm(plan);

    gocc::gosync::Mutex mu;
    gocc::htm::Shared<int64_t> counter(0);
    auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&] {
        gocc::optilib::OptiLock ol;
        for (int i = 0; i < kIters; ++i) {
          ol.WithLock(&mu, [&] { counter.Add(1); });
        }
      });
    }
    for (auto& th : threads) th.join();
    auto t1 = std::chrono::steady_clock::now();
    gocc::htm::fault::Disarm();

    const auto& st = gocc::optilib::GlobalOptiStats();
    double ops = static_cast<double>(kThreads) * kIters;
    double ns = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count());
    uint64_t waits = st.backoff_waits.load();
    std::printf("  %10d %12.1f %12.3f %12.3f %14.1f\n", base, ns / ops,
                static_cast<double>(st.fast_commits.load()) / ops,
                static_cast<double>(waits) / ops,
                waits == 0 ? 0.0
                           : static_cast<double>(st.backoff_pauses.load()) /
                                 static_cast<double>(waits));
    EmitPoint("A4/backoff_base", "gocc", ns / ops,
              static_cast<uint64_t>(ops),
              {{"base", static_cast<double>(base)},
               {"fast_commits", static_cast<double>(st.fast_commits.load())},
               {"backoff_waits", static_cast<double>(waits)}});
  }
  std::printf("  (base 0 = retry immediately: contenders re-collide in "
              "lockstep. A small\n   jittered base de-synchronizes them; "
              "past that, pauses are pure latency.)\n");
}

}  // namespace

int main() {
  gocc::bench::JsonReport report("ablation");
  std::printf("== Ablations over optiLib policy knobs (DES model) ==\n");
  RetryBudgetSweep();
  DecayThresholdSweep();
  ConflictRetryAblation();
  std::printf("\n== Conflict-retry backoff ablation (real runtime + fault "
              "injection) ==\n");
  int prev_procs = gocc::gosync::SetMaxProcs(4);
  BackoffSweep();
  gocc::gosync::SetMaxProcs(prev_procs);
  return 0;
}
