// Fast-path bookkeeping invariants for the sharded-stats + batched-clock
// runtime (see DESIGN.md "fast-path cost model"):
//
//   1. Episode conservation: every FastLock/FastUnlock episode ends exactly
//      one way, so fast_commits + nested_fast_commits + slow_acquires equals
//      the number of completed episodes — single-threaded, multi-threaded,
//      and under chaos-seeded fault injection (the seed battery re-runs this
//      binary, `ctest -L chaos`).
//   2. Reset hygiene: OptiStats::Reset() + ResetHardeningState() leave no
//      residue in any thread's stat shard or cached clock batch; identical
//      back-to-back runs produce identical counters from a zero frontier.
//   3. Cooldown skew: with ticks claimed in thread-local batches, a thread's
//      tick lags the clock frontier by at most threads * batch — the breaker
//      and watchdog must never un-quarantine before
//      cooldown - threads * batch episodes have passed.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "src/gosync/mutex.h"
#include "src/gosync/runtime.h"
#include "src/htm/config.h"
#include "src/htm/fault.h"
#include "src/htm/shared.h"
#include "src/htm/stats.h"
#include "src/optilib/optilock.h"
#include "src/optilib/perceptron.h"

namespace gocc::optilib {
namespace {

using htm::fault::FaultPlan;
using htm::fault::Site;

uint64_t ChaosSeed() {
  const char* env = std::getenv("GOCC_CHAOS_SEED");
  if (env != nullptr && *env != '\0') {
    return static_cast<uint64_t>(std::strtoull(env, nullptr, 0));
  }
  return 1;
}

uint64_t EpisodeSum() {
  OptiStats& s = GlobalOptiStats();
  return s.fast_commits.load(std::memory_order_relaxed) +
         s.nested_fast_commits.load(std::memory_order_relaxed) +
         s.slow_acquires.load(std::memory_order_relaxed);
}

class FastPathStatsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    htm::ForceSoftwareBackend();
    htm::MutableConfig() = htm::TxConfig{};
    htm::GlobalTxStats().Reset();
    PublishOptiConfig(OptiConfig{});
    GlobalOptiStats().Reset();
    GlobalPerceptron().Reset();
    ResetHardeningState();
    htm::fault::Disarm();
    htm::fault::GlobalFaultStats().Reset();
    prev_procs_ = gosync::SetMaxProcs(4);
    seed_ = ChaosSeed();
    std::printf("[chaos] GOCC_CHAOS_SEED=%llu\n",
                static_cast<unsigned long long>(seed_));
  }
  void TearDown() override {
    htm::fault::Disarm();
    ResetHardeningState();
    gosync::SetMaxProcs(prev_procs_);
  }

  int prev_procs_ = 1;
  uint64_t seed_ = 1;
};

// --- 1. Episode conservation -----------------------------------------------

TEST_F(FastPathStatsTest, ConservationSingleThread) {
  gosync::Mutex mu;
  htm::Shared<uint64_t> value{0};
  constexpr int kEpisodes = 2000;
  OptiLock ol;
  for (int i = 0; i < kEpisodes; ++i) {
    ol.WithLock(&mu, [&] { value.Add(1); });
  }
  EXPECT_EQ(value.LoadRelaxed(), static_cast<uint64_t>(kEpisodes));
  EXPECT_EQ(EpisodeSum(), static_cast<uint64_t>(kEpisodes));
}

TEST_F(FastPathStatsTest, ConservationMultiThreadDisjointAndContended) {
  // Disjoint (mutex, counter) slots exercise the pure fast path; one shared
  // hot lock forces real contention, aborts, retries, and slow acquires.
  constexpr int kThreads = 8;
  constexpr int kPerThread = 3000;
  struct Slot {
    gosync::Mutex mu;
    htm::Shared<uint64_t> value{0};
  };
  std::vector<Slot> slots(kThreads);
  Slot hot;

  // Completed-episode count, kept by each thread in plain (non-rolled-back)
  // memory exactly like the stat shards, then summed after the join.
  std::vector<uint64_t> completed(kThreads, 0);

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Slot& mine = slots[static_cast<size_t>(t)];
      OptiLock ol;
      for (int i = 0; i < kPerThread; ++i) {
        if (i % 4 == 3) {
          ol.WithLock(&hot.mu, [&] { hot.value.Add(1); });
        } else {
          ol.WithLock(&mine.mu, [&] { mine.value.Add(1); });
        }
        ++completed[static_cast<size_t>(t)];
      }
    });
  }
  for (std::thread& th : threads) {
    th.join();
  }

  uint64_t total = 0;
  for (uint64_t c : completed) {
    total += c;
  }
  ASSERT_EQ(total, static_cast<uint64_t>(kThreads) * kPerThread);

  uint64_t expected_value = 0;
  for (Slot& s : slots) {
    expected_value += s.value.LoadRelaxed();
  }
  expected_value += hot.value.LoadRelaxed();
  EXPECT_EQ(expected_value, total);  // no lost updates
  EXPECT_EQ(EpisodeSum(), total);    // no lost or double-counted episodes
}

TEST_F(FastPathStatsTest, ConservationUnderChaosInjection) {
  // Spurious aborts at every site plus a schedule burst: episodes must still
  // balance exactly, whatever mix of retries and fallbacks the seed drives.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 1500;

  OptiConfig cfg = GetOptiConfig();
  cfg.conflict_retries = 2;
  cfg.backoff_base_pauses = 4;
  cfg.backoff_cap_pauses = 32;
  PublishOptiConfig(cfg);

  FaultPlan plan;
  plan.seed = seed_;
  plan.WithRule(Site::kLoad, 0.02, htm::AbortCode::kConflict);
  plan.WithRule(Site::kCommit, 0.05, htm::AbortCode::kConflict);
  plan.WithRule(Site::kBegin, 0.02, htm::AbortCode::kSpurious);
  plan.AbortNext(Site::kStore, 50, htm::AbortCode::kCapacity, 100);
  htm::fault::Arm(plan);

  struct Slot {
    gosync::Mutex mu;
    htm::Shared<uint64_t> value{0};
  };
  std::vector<Slot> slots(kThreads);
  std::atomic<uint64_t> completed{0};

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Slot& mine = slots[static_cast<size_t>(t)];
      OptiLock ol;
      uint64_t done = 0;
      for (int i = 0; i < kPerThread; ++i) {
        ol.WithLock(&mine.mu, [&] { mine.value.Add(1); });
        ++done;
      }
      completed.fetch_add(done, std::memory_order_relaxed);
    });
  }
  for (std::thread& th : threads) {
    th.join();
  }
  htm::fault::Disarm();

  const uint64_t total = completed.load(std::memory_order_relaxed);
  ASSERT_EQ(total, static_cast<uint64_t>(kThreads) * kPerThread);
  uint64_t sum = 0;
  for (Slot& s : slots) {
    sum += s.value.LoadRelaxed();
  }
  EXPECT_EQ(sum, total);
  EXPECT_EQ(EpisodeSum(), total);
}

TEST_F(FastPathStatsTest, ConservationWithNestedEpisodes) {
  // A nested elided section counts one nested_fast_commit per *completed*
  // inner FastUnlock — the same granularity the test's own counter sees —
  // so conservation holds even when an outer abort re-executes the body.
  gosync::Mutex outer_mu;
  gosync::Mutex inner_mu;
  htm::Shared<uint64_t> value{0};
  constexpr int kEpisodes = 1000;
  uint64_t completed = 0;  // plain memory: survives SimTM rollback
  OptiLock outer;
  for (int i = 0; i < kEpisodes; ++i) {
    outer.WithLock(&outer_mu, [&] {
      OptiLock inner;
      inner.WithLock(&inner_mu, [&] { value.Add(1); });
      ++completed;
    });
    ++completed;
  }
  EXPECT_EQ(EpisodeSum(), completed);
}

// --- 2. Reset hygiene -------------------------------------------------------

TEST_F(FastPathStatsTest, ResetClearsAllShardsAndClockResidue) {
  OptiConfig cfg = GetOptiConfig();
  cfg.breaker_threshold = 4;  // enable hardening so the clock ticks
  PublishOptiConfig(cfg);
  gosync::Mutex mu;
  htm::Shared<uint64_t> value{0};

  // Touch the runtime from several threads so multiple shards and multiple
  // cached clock batches exist before the reset. Exited threads retire
  // their shards (counts fold into the retired accumulator), so the live
  // shard count tracks peak concurrency, not total threads ever.
  const uint64_t retired_before = GlobalOptiStats().RetiredShardTotal();
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      OptiLock ol;
      for (int i = 0; i < 200; ++i) {
        ol.WithLock(&mu, [&] { value.Add(1); });
      }
    });
  }
  for (std::thread& th : threads) {
    th.join();
  }
  ASSERT_GT(EpisodeSum(), 0u);
  ASSERT_GT(EpisodeClockFrontier(), 0u);
  ASSERT_GE(GlobalOptiStats().ShardCount(), 1u);
  ASSERT_GE(GlobalOptiStats().RetiredShardTotal(), retired_before + 4);

  GlobalOptiStats().Reset();
  htm::GlobalTxStats().Reset();
  ResetHardeningState();

  EXPECT_EQ(EpisodeSum(), 0u);
  EXPECT_EQ(GlobalOptiStats().htm_attempts.load(std::memory_order_relaxed),
            0u);
  EXPECT_EQ(htm::GlobalTxStats().begins.load(std::memory_order_relaxed), 0u);
  EXPECT_EQ(htm::GlobalTxStats().TotalAborts(), 0u);
  EXPECT_EQ(EpisodeClockFrontier(), 0u);
}

TEST_F(FastPathStatsTest, BackToBackRunsStartIdentical) {
  // The same single-threaded workload, run twice with a full reset between,
  // must produce byte-identical counters — any stale shard slot or cached
  // tick batch from run 1 would skew run 2.
  OptiConfig cfg = GetOptiConfig();
  cfg.breaker_threshold = 4;
  cfg.watchdog_threshold = 8;
  PublishOptiConfig(cfg);

  gosync::Mutex mu;
  htm::Shared<uint64_t> value{0};
  auto run = [&] {
    OptiLock ol;
    for (int i = 0; i < 500; ++i) {
      ol.WithLock(&mu, [&] { value.Add(1); });
    }
  };

  auto reset_all = [&] {
    GlobalOptiStats().Reset();
    htm::GlobalTxStats().Reset();
    GlobalPerceptron().Reset();
    ResetHardeningState();
    value.StoreRelaxedInit(0);
  };

  run();
  const std::string first_opti = GlobalOptiStats().ToString();
  const std::string first_tx = htm::GlobalTxStats().ToString();
  const uint64_t first_frontier = EpisodeClockFrontier();

  reset_all();
  EXPECT_EQ(EpisodeClockFrontier(), 0u);

  run();
  EXPECT_EQ(GlobalOptiStats().ToString(), first_opti);
  EXPECT_EQ(htm::GlobalTxStats().ToString(), first_tx);
  EXPECT_EQ(EpisodeClockFrontier(), first_frontier);
}

// --- 3. Cooldown behaviour under the batched clock --------------------------

// Trips the breaker for (mu, ol) deterministically: with threshold 1 and no
// retry budget, a single injected begin-abort exhausts the episode.
void TripBreakerOnce(OptiLock& ol, gosync::Mutex& mu, uint64_t seed) {
  FaultPlan plan;
  plan.seed = seed;
  plan.AbortNext(Site::kBegin, 1, htm::AbortCode::kConflict);
  htm::fault::Arm(plan);
  ol.WithLock(&mu, [] {});
  htm::fault::Disarm();
}

TEST_F(FastPathStatsTest, BreakerCooldownNeverEndsEarlyUnderBatchedClock) {
  constexpr uint64_t kCooldown = 400;
  constexpr int kBatch = kEpisodeClockBatch;
  constexpr int kThreads = 2;  // main + one frontier-advancing helper
  OptiConfig cfg = GetOptiConfig();
  cfg.use_perceptron = false;
  cfg.max_attempts = 1;
  cfg.conflict_retries = 0;
  cfg.breaker_threshold = 1;
  cfg.breaker_cooldown_episodes = kCooldown;
  PublishOptiConfig(cfg);

  gosync::Mutex mu;
  OptiLock ol;  // breaker cells key on (mutex, call site); keep both fixed
  TripBreakerOnce(ol, mu, seed_);
  ASSERT_EQ(GlobalOptiStats().breaker_trips.load(std::memory_order_relaxed),
            1u);

  // A second thread claims (and discards most of) a tick batch, advancing
  // the frontier past the main thread's in-hand block — the worst-case skew
  // the batch documentation allows. (Its episode uses a different, healthy
  // mutex, so it may fast-commit; measure deltas from here on.)
  {
    gosync::Mutex other;
    std::thread helper([&] {
      OptiLock h;
      h.WithLock(&other, [] {});
    });
    helper.join();
  }
  const uint64_t base_fast =
      GlobalOptiStats().fast_commits.load(std::memory_order_relaxed);
  const uint64_t base_short =
      GlobalOptiStats().breaker_short_circuits.load(std::memory_order_relaxed);

  // Every episode inside cooldown - threads*batch must short-circuit to the
  // lock: the skew bound says stale in-hand ticks may shorten the observed
  // quarantine by at most threads * batch, never more.
  const uint64_t safe_window = kCooldown - kThreads * kBatch - 1;
  for (uint64_t i = 0; i < safe_window; ++i) {
    ol.WithLock(&mu, [] {});
  }
  EXPECT_EQ(GlobalOptiStats().fast_commits.load(std::memory_order_relaxed),
            base_fast)
      << "breaker un-quarantined before cooldown - threads*batch episodes";
  EXPECT_EQ(
      GlobalOptiStats().breaker_short_circuits.load(std::memory_order_relaxed),
      base_short + safe_window);

  // ...and the quarantine does end: within another ~2 batches + cooldown
  // slack the re-probe succeeds and elision resumes.
  for (int i = 0; i < 3 * kBatch + 8; ++i) {
    ol.WithLock(&mu, [] {});
  }
  EXPECT_GT(GlobalOptiStats().fast_commits.load(std::memory_order_relaxed),
            0u);
  EXPECT_GT(
      GlobalOptiStats().breaker_reprobes.load(std::memory_order_relaxed), 0u);
}

TEST_F(FastPathStatsTest, WatchdogCooldownNeverEndsEarlyUnderBatchedClock) {
  constexpr uint64_t kCooldown = 400;
  constexpr int kBatch = kEpisodeClockBatch;
  constexpr int kThreads = 2;
  OptiConfig cfg = GetOptiConfig();
  cfg.use_perceptron = false;
  cfg.max_attempts = 1;
  cfg.conflict_retries = 0;
  cfg.watchdog_threshold = 2;
  cfg.watchdog_cooldown_episodes = kCooldown;
  PublishOptiConfig(cfg);

  gosync::Mutex mu;
  OptiLock ol;

  // Two consecutive exhausted-budget episodes trip the watchdog.
  FaultPlan plan;
  plan.seed = seed_;
  plan.AbortNext(Site::kBegin, 2, htm::AbortCode::kConflict);
  htm::fault::Arm(plan);
  ol.WithLock(&mu, [] {});
  ol.WithLock(&mu, [] {});
  htm::fault::Disarm();
  ASSERT_EQ(GlobalOptiStats().watchdog_trips.load(std::memory_order_relaxed),
            1u);

  // The helper's episode happens inside the slow-only window, so it is
  // bypassed too (the watchdog is process-wide); measure deltas after it.
  {
    gosync::Mutex other;
    std::thread helper([&] {
      OptiLock h;
      h.WithLock(&other, [] {});
    });
    helper.join();
  }
  const uint64_t base_fast =
      GlobalOptiStats().fast_commits.load(std::memory_order_relaxed);
  const uint64_t base_bypass =
      GlobalOptiStats().watchdog_bypasses.load(std::memory_order_relaxed);

  const uint64_t safe_window = kCooldown - kThreads * kBatch - 1;
  for (uint64_t i = 0; i < safe_window; ++i) {
    ol.WithLock(&mu, [] {});
  }
  EXPECT_EQ(GlobalOptiStats().fast_commits.load(std::memory_order_relaxed),
            base_fast)
      << "watchdog lifted slow-only mode before cooldown - threads*batch";
  EXPECT_EQ(
      GlobalOptiStats().watchdog_bypasses.load(std::memory_order_relaxed),
      base_bypass + safe_window);

  for (int i = 0; i < 3 * kBatch + 8; ++i) {
    ol.WithLock(&mu, [] {});
  }
  EXPECT_GT(GlobalOptiStats().fast_commits.load(std::memory_order_relaxed),
            0u);
}

// Single-thread tick streams are exact: N hardening episodes consume ticks
// 1..N and the frontier advances in whole batches.
TEST_F(FastPathStatsTest, FrontierAdvancesInWholeBatches) {
  OptiConfig cfg = GetOptiConfig();
  cfg.breaker_threshold = 4;  // enable the clock
  PublishOptiConfig(cfg);
  gosync::Mutex mu;
  OptiLock ol;
  for (int i = 0; i < 100; ++i) {
    ol.WithLock(&mu, [] {});
  }
  // 100 episodes with batch 64 → 2 refills claimed (ceil(100/64) = 2).
  EXPECT_EQ(EpisodeClockFrontier(), 2u * kEpisodeClockBatch);
}

}  // namespace
}  // namespace gocc::optilib
