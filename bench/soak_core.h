// Lifecycle soak/torture harness (DESIGN.md §4.9).
//
// One knob-driven run that throws every lifecycle hazard this repo hardens
// against at the elision runtime simultaneously:
//
//   * thread churn   — waves of short-lived worker threads (stat shards and
//                      obs rings retire and recycle under load),
//   * exceptions     — critical sections throw at a configurable rate, on
//                      both the fast path (transaction cancel) and the slow
//                      path (unlock during unwind),
//   * deliberate misuse — unpaired unlocks on a dedicated decoy mutex at a
//                      configurable rate (recover-and-count policy),
//   * fault injection — the PR-1 probabilistic abort/stall plan stays armed
//                      for the whole run,
//   * config churn   — a toggler thread publishes live OptiConfig variants
//                      (tracing, backoff, retries, perceptron) mid-run via
//                      PublishOptiConfig.
//
// The harness owns its oracle: every critical section performs its shared-
// cell increment only after the last possible throw point, so an episode
// contributes to the expected count iff its lambda returned normally —
// under correct mutual exclusion, rollback, and unwind recovery the final
// cell sum equals the per-thread success tally exactly, at any seed.
//
// A watchdog thread asserts liveness: if no worker makes progress for
// `watchdog_seconds` it dumps the runtime stats and the seed to stderr and
// aborts (a hang in CI becomes a diagnosable failure, not a timeout). It
// also samples the episode counters to check they stay monotone across
// shard retirement.
//
// Shared between tests/soak_test.cc (moderate, assertion-driven) and the
// bench/soak CLI driver (long-running, report-driven).

#ifndef GOCC_BENCH_SOAK_CORE_H_
#define GOCC_BENCH_SOAK_CORE_H_

#include <cstdint>
#include <string>

namespace gocc::soak {

struct SoakOptions {
  uint64_t seed = 1;
  int waves = 6;              // thread-churn waves, run back to back
  int threads_per_wave = 8;   // short-lived workers per wave
  int iters_per_thread = 2000;
  int locks = 8;      // data-protecting Mutex count
  int rwlocks = 4;    // data-protecting RWMutex count
  double throw_rate = 0.02;   // P(critical section throws)
  double misuse_rate = 0.01;  // P(deliberate unpaired unlock on the decoy)
  double fault_rate = 0.01;   // probabilistic injection rate (0 = disarmed)
  bool toggle_config = true;  // publish OptiConfig variants mid-run
  int watchdog_seconds = 60;  // no-progress window before the abort
};

struct SoakReport {
  uint64_t seed = 0;
  bool conserved = false;  // observed == expected (the headline invariant)
  bool monotone = false;   // episode counters never went backwards
  uint64_t expected = 0;   // increments whose lambda returned normally
  uint64_t observed = 0;   // final sum over every shared cell
  uint64_t episodes = 0;   // completed episodes (fast + nested + slow)
  uint64_t throws = 0;     // exceptions thrown out of critical sections
  uint64_t unwind_cancels = 0;
  uint64_t unwind_slow_unlocks = 0;
  uint64_t misuse_total = 0;
  uint64_t injected_faults = 0;
  uint64_t config_publishes = 0;
  uint64_t threads_run = 0;
  int64_t rss_start_kb = 0;  // VmRSS before the run (0 where unsupported)
  int64_t rss_end_kb = 0;

  bool ok() const { return conserved && monotone; }
  // One line, greppable, carries the seed for exact replay.
  std::string Summary() const;
};

// Runs the soak to completion and returns the report. Resets the runtime
// stats (OptiStats, TxStats, fault stats, misuse counters, cached verdicts)
// at entry, forces the recover-and-count misuse policy for the run, and
// disarms the injector before returning. Aborts the process — with a
// stats dump — only if the watchdog detects a hang.
SoakReport RunSoak(const SoakOptions& options);

}  // namespace gocc::soak

#endif  // GOCC_BENCH_SOAK_CORE_H_
