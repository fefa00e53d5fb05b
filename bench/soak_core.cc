#include "bench/soak_core.h"

#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "src/gosync/mutex.h"
#include "src/gosync/runtime.h"
#include "src/gosync/rwmutex.h"
#include "src/htm/fault.h"
#include "src/htm/shared.h"
#include "src/htm/stats.h"
#include "src/obs/recorder.h"
#include "src/optilib/optilock.h"
#include "src/optilib/perceptron.h"
#include "src/support/misuse.h"
#include "src/support/rng.h"
#include "src/support/strings.h"

namespace gocc::soak {
namespace {

// The one exception type critical sections throw; workers catch exactly it
// so a genuine runtime defect surfacing as another exception still escapes
// the harness and fails the run loudly.
struct SoakThrow {};

// Each shared cell on its own cache line: the soak measures lifecycle
// correctness, not false-sharing throughput, but keeping cells independent
// makes the conservation oracle per-lock meaningful.
struct alignas(64) Cell {
  htm::Shared<int64_t> value;
};

// VmRSS in kB from /proc/self/status, or 0 where unsupported.
int64_t CurrentRssKb() {
#if defined(__linux__)
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return 0;
  }
  char line[256];
  int64_t rss = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmRSS:", 6) == 0) {
      rss = std::strtoll(line + 6, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return rss;
#else
  return 0;
#endif
}

uint64_t CompletedEpisodes(const optilib::OptiStats& stats) {
  return stats.fast_commits.load() + stats.nested_fast_commits.load() +
         stats.slow_acquires.load();
}

// Everything one soak run shares between its workers and service threads.
struct SoakState {
  const SoakOptions& opts;
  std::unique_ptr<gosync::Mutex[]> mutexes;
  std::unique_ptr<Cell[]> cells;
  std::unique_ptr<gosync::RWMutex[]> rwlocks;
  std::unique_ptr<Cell[]> rw_cells;
  // Decoy targets for deliberate misuse: never legitimately locked, so an
  // unpaired unlock against them is the documented count-only no-op and can
  // never corrupt real mutual exclusion.
  gosync::Mutex decoy_mutex;
  gosync::RWMutex decoy_rw;

  std::atomic<bool> done{false};
  std::atomic<uint64_t> progress{0};   // watchdog heartbeat
  std::atomic<uint64_t> expected{0};   // lambdas that returned normally
  std::atomic<uint64_t> throws{0};
  std::atomic<uint64_t> config_publishes{0};
  std::atomic<bool> monotone{true};

  explicit SoakState(const SoakOptions& options)
      : opts(options),
        mutexes(new gosync::Mutex[options.locks]),
        cells(new Cell[options.locks]),
        rwlocks(new gosync::RWMutex[options.rwlocks]),
        rw_cells(new Cell[options.rwlocks]) {}
};

// One short-lived worker: its thread registers fresh stat shards and (when
// tracing is toggled on) an obs ring, then retires them at exit — the churn
// the recycling free-lists must survive.
void WorkerBody(SoakState& st, int wave, int index) {
  SplitMix64 rng(st.opts.seed ^
                          (0x9e3779b97f4a7c15ULL * (wave + 1)) ^
                          (0xbf58476d1ce4e5b9ULL * (index + 1)));
  optilib::OptiLock ol;
  uint64_t successes = 0;
  uint64_t thrown = 0;
  int64_t sink = 0;

  for (int i = 0; i < st.opts.iters_per_thread; ++i) {
    st.progress.fetch_add(1, std::memory_order_relaxed);

    // Deliberate misuse, drawn independently of the op mix: an unpaired
    // unlock of a decoy that is observably unheld. Recovery is count-only.
    if (st.opts.misuse_rate > 0 && rng.NextBool(st.opts.misuse_rate)) {
      switch (rng.NextBelow(3)) {
        case 0:
          ol.FastUnlock(&st.decoy_mutex);
          break;
        case 1:
          ol.FastRUnlock(&st.decoy_rw);
          break;
        default:
          ol.FastWUnlock(&st.decoy_rw);
          break;
      }
    }

    const bool do_throw =
        st.opts.throw_rate > 0 && rng.NextBool(st.opts.throw_rate);
    const uint64_t op = rng.NextBelow(100);
    try {
      if (op < 45) {
        // Plain mutex increment. The throw sits BEFORE the write so a
        // thrown episode contributes nothing on either path: the fast path
        // rolls back, the slow path never wrote.
        const uint64_t j = rng.NextBelow(st.opts.locks);
        ol.WithLock(&st.mutexes[j], [&] {
          if (do_throw) {
            throw SoakThrow{};
          }
          st.cells[j].value.Add(1);
        });
        ++successes;
      } else if (op < 60) {
        // RW read episode (no contribution to the oracle sum).
        const uint64_t j = rng.NextBelow(st.opts.rwlocks);
        ol.WithRLock(&st.rwlocks[j], [&] {
          if (do_throw) {
            throw SoakThrow{};
          }
          sink ^= st.rw_cells[j].value.Load();
        });
      } else if (op < 75) {
        // RW write increment.
        const uint64_t j = rng.NextBelow(st.opts.rwlocks);
        ol.WithWLock(&st.rwlocks[j], [&] {
          if (do_throw) {
            throw SoakThrow{};
          }
          st.rw_cells[j].value.Add(1);
        });
        ++successes;
      } else if (op < 85 && st.opts.locks >= 2) {
        // Nested episodes over an index-ordered mutex pair (the slow path
        // takes real locks, so ordering prevents lock-order deadlock). All
        // throw points precede every write: the inner lambda throws before
        // its own add, and nothing after the inner episode returns can
        // throw, so a normal return means exactly two increments landed.
        uint64_t a = rng.NextBelow(st.opts.locks);
        uint64_t b = rng.NextBelow(st.opts.locks - 1);
        if (b >= a) {
          ++b;
        }
        const uint64_t lo = a < b ? a : b;
        const uint64_t hi = a < b ? b : a;
        optilib::OptiLock inner;
        ol.WithLock(&st.mutexes[lo], [&] {
          inner.WithLock(&st.mutexes[hi], [&] {
            if (do_throw) {
              throw SoakThrow{};
            }
            st.cells[hi].value.Add(1);
          });
          st.cells[lo].value.Add(1);
        });
        st.expected.fetch_add(2, std::memory_order_relaxed);
      } else if (op < 95 && st.opts.locks >= 3) {
        // Multi-lock episode over three distinct accounts. WithLocks sorts
        // and dedupes internally and the slow fallback acquires in address
        // order, so any index order here is deadlock-safe even against the
        // index-ordered nested pairs above. The throw precedes every write,
        // so a normal return means exactly three increments landed.
        uint64_t idx[3];
        idx[0] = rng.NextBelow(st.opts.locks);
        idx[1] =
            (idx[0] + 1 + rng.NextBelow(st.opts.locks - 1)) % st.opts.locks;
        do {
          idx[2] = rng.NextBelow(st.opts.locks);
        } while (idx[2] == idx[0] || idx[2] == idx[1]);
        gosync::Mutex* set[3] = {&st.mutexes[idx[0]], &st.mutexes[idx[1]],
                                 &st.mutexes[idx[2]]};
        ol.WithLocks(set, 3, [&] {
          if (do_throw) {
            throw SoakThrow{};
          }
          for (uint64_t j : idx) {
            st.cells[j].value.Add(1);
          }
        });
        st.expected.fetch_add(3, std::memory_order_relaxed);
      } else {
        // Read-only mutex episode.
        const uint64_t j = rng.NextBelow(st.opts.locks);
        ol.WithLock(&st.mutexes[j], [&] {
          if (do_throw) {
            throw SoakThrow{};
          }
          sink ^= st.cells[j].value.Load();
        });
      }
    } catch (const SoakThrow&) {
      ++thrown;
    }
  }

  st.expected.fetch_add(successes, std::memory_order_relaxed);
  st.throws.fetch_add(thrown, std::memory_order_relaxed);
  // Keep `sink` observable so the read episodes cannot be optimized away.
  if (sink == 0x5a5a5a5a5a5a5a5aLL) {
    std::fprintf(stderr, "[soak] sink sentinel hit\n");
  }
}

// Publishes a rotating set of OptiConfig variants while episodes run. The
// misuse policy is process-wide, not part of the config, so the
// recover-and-count policy RunSoak sets holds throughout (the harness
// injects misuse on purpose).
void TogglerBody(SoakState& st) {
  uint64_t round = 0;
  while (!st.done.load(std::memory_order_acquire)) {
    optilib::OptiConfig next;
    next.trace_episodes = (round & 1) != 0;
    next.use_perceptron = (round & 2) == 0;
    next.conflict_retries = static_cast<uint8_t>(round % 3);
    optilib::PublishOptiConfig(next);
    st.config_publishes.fetch_add(1, std::memory_order_relaxed);
    ++round;
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
}

// Liveness + monotonicity sentinel. A stall past the window is a deadlock
// in a torture harness: dump everything replay needs and abort so CI gets a
// diagnosable failure instead of a silent timeout.
void WatchdogBody(SoakState& st) {
  uint64_t last_progress = st.progress.load(std::memory_order_relaxed);
  uint64_t last_episodes = 0;
  auto last_change = std::chrono::steady_clock::now();
  while (!st.done.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const uint64_t now_progress =
        st.progress.load(std::memory_order_relaxed);
    if (now_progress != last_progress) {
      last_progress = now_progress;
      last_change = std::chrono::steady_clock::now();
    } else if (std::chrono::steady_clock::now() - last_change >
               std::chrono::seconds(st.opts.watchdog_seconds)) {
      std::fprintf(stderr,
                   "[soak] WATCHDOG: no progress for %d s (seed=%" PRIu64
                   ", progress=%" PRIu64 ")\n",
                   st.opts.watchdog_seconds, st.opts.seed, now_progress);
      std::fprintf(stderr, "%s\n",
                   optilib::GlobalOptiStats().ToString().c_str());
      std::fprintf(stderr, "%s\n",
                   htm::fault::GlobalFaultStats().ToString().c_str());
      std::abort();
    }
    // Episode counters must never run backwards, including across shard
    // retirement (the retired fold keeps totals monotone by design).
    const uint64_t episodes = CompletedEpisodes(optilib::GlobalOptiStats()) +
                              support::TotalMisuse();
    if (episodes < last_episodes) {
      st.monotone.store(false, std::memory_order_relaxed);
    }
    last_episodes = episodes;
  }
}

}  // namespace

std::string SoakReport::Summary() const {
  return StrFormat(
      "[soak] seed=%llu %s expected=%llu observed=%llu episodes=%llu "
      "throws=%llu unwind_cancels=%llu unwind_slow_unlocks=%llu "
      "misuse=%llu faults=%llu publishes=%llu threads=%llu "
      "rss=%lld->%lldkB",
      (unsigned long long)seed,
      ok() ? "OK" : (conserved ? "NON-MONOTONE" : "CONSERVATION-VIOLATED"),
      (unsigned long long)expected, (unsigned long long)observed,
      (unsigned long long)episodes, (unsigned long long)throws,
      (unsigned long long)unwind_cancels,
      (unsigned long long)unwind_slow_unlocks,
      (unsigned long long)misuse_total, (unsigned long long)injected_faults,
      (unsigned long long)config_publishes, (unsigned long long)threads_run,
      (long long)rss_start_kb, (long long)rss_end_kb);
}

SoakReport RunSoak(const SoakOptions& options) {
  // Clean slate: the run's counters double as its oracle.
  optilib::GlobalOptiStats().Reset();
  optilib::GlobalPerceptron().Reset();
  optilib::ResetHardeningState();
  htm::GlobalTxStats().Reset();
  htm::fault::GlobalFaultStats().Reset();
  support::ResetMisuseCounters();

  const support::MisusePolicy prev_policy = support::GetMisusePolicy();
  support::SetMisusePolicy(support::MisusePolicy::kRecoverAndCount);
  optilib::PublishOptiConfig(optilib::OptiConfig{});

  const int prev_procs = gosync::SetMaxProcs(options.threads_per_wave);

  if (options.fault_rate > 0) {
    htm::fault::FaultPlan plan;
    plan.seed = options.seed;
    plan.WithRule(htm::fault::Site::kCommit, options.fault_rate,
                  htm::AbortCode::kConflict);
    plan.WithRule(htm::fault::Site::kBegin, options.fault_rate / 2,
                  htm::AbortCode::kCapacity);
    plan.WithRule(htm::fault::Site::kStore, options.fault_rate / 4,
                  htm::AbortCode::kConflict);
    plan.WithRule(htm::fault::Site::kMultiLockSubscribe,
                  options.fault_rate / 2, htm::AbortCode::kConflict);
    plan.WithRule(htm::fault::Site::kMultiLockCommit, options.fault_rate / 4,
                  htm::AbortCode::kConflict);
    plan.WithStallAt(htm::fault::Site::kLockTransition, options.fault_rate,
                     32);
    htm::fault::Arm(plan);
  } else {
    htm::fault::Disarm();
  }

  SoakState st(options);
  SoakReport report;
  report.seed = options.seed;
  report.rss_start_kb = CurrentRssKb();

  std::thread watchdog([&] { WatchdogBody(st); });
  std::thread toggler;
  if (options.toggle_config) {
    toggler = std::thread([&] { TogglerBody(st); });
  }

  // Thread churn: every wave spawns fresh threads and joins them, so shard
  // and ring recycling runs `waves * threads_per_wave` retire/reuse cycles
  // under full load.
  for (int wave = 0; wave < options.waves; ++wave) {
    std::vector<std::thread> workers;
    workers.reserve(options.threads_per_wave);
    for (int t = 0; t < options.threads_per_wave; ++t) {
      workers.emplace_back([&st, wave, t] { WorkerBody(st, wave, t); });
    }
    for (auto& th : workers) {
      th.join();
    }
    report.threads_run += options.threads_per_wave;
    // Act as the trace consumer once per churn generation: retired rings
    // are only adoptable while their backlog stays under half capacity, so
    // a soak that never drained would (correctly) grow the ring pool
    // instead of overwriting undrained events. Discarding here keeps the
    // recycling path — not the overflow path — under test.
    obs::DiscardTrace();
  }

  st.done.store(true, std::memory_order_release);
  watchdog.join();
  if (toggler.joinable()) {
    toggler.join();
  }
  htm::fault::Disarm();

  // Quiesced: harvest the oracle and the lifecycle counters.
  int64_t observed = 0;
  for (int i = 0; i < options.locks; ++i) {
    observed += st.cells[i].value.Load();
  }
  for (int i = 0; i < options.rwlocks; ++i) {
    observed += st.rw_cells[i].value.Load();
  }
  const auto& stats = optilib::GlobalOptiStats();
  report.expected = st.expected.load();
  report.observed = static_cast<uint64_t>(observed);
  report.conserved = report.expected == report.observed && observed >= 0;
  report.monotone = st.monotone.load();
  report.episodes = CompletedEpisodes(stats);
  report.throws = st.throws.load();
  report.unwind_cancels = stats.unwind_cancels.load();
  report.unwind_slow_unlocks = stats.unwind_slow_unlocks.load();
  report.misuse_total = support::TotalMisuse();
  report.injected_faults = htm::fault::GlobalFaultStats().TotalInjected();
  report.config_publishes = st.config_publishes.load();
  report.rss_end_kb = CurrentRssKb();

  // Leave the process in the run's base configuration.
  optilib::PublishOptiConfig(optilib::OptiConfig{});
  support::SetMisusePolicy(prev_policy);
  gosync::SetMaxProcs(prev_procs);
  return report;
}

}  // namespace gocc::soak
