// Abort-storm hardening: bounded exponential backoff between conflict
// retries, the per-(mutex, call-site) circuit breaker (trip → quarantine →
// cooldown → re-probe), and the process-wide episode watchdog that
// hot-degrades to slow-path-only mode when every speculation drowns in
// aborts (the "RTM died mid-run" scenario). All storms are injected
// deterministically via htm::fault.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <thread>
#include <vector>

#include "src/gosync/mutex.h"
#include "src/gosync/runtime.h"
#include "src/gosync/rwmutex.h"
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

class AbortStormTest : public ::testing::Test {
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

TEST_F(AbortStormTest, BackoffEngagesBetweenConflictRetries) {
  OptiConfig cfg = GetOptiConfig();
  cfg.use_perceptron = false;
  cfg.conflict_retries = 3;
  cfg.backoff_base_pauses = 8;
  cfg.backoff_cap_pauses = 64;
  PublishOptiConfig(cfg);

  FaultPlan plan;
  plan.seed = seed_;
  plan.AbortNext(Site::kCommit, 2, htm::AbortCode::kConflict);
  htm::fault::Arm(plan);

  gosync::Mutex mu;
  htm::Shared<int64_t> value(0);
  OptiLock ol;
  ol.WithLock(&mu, [&] { value.Add(1); });
  htm::fault::Disarm();

  // The episode ate both scheduled conflicts, backed off before each retry,
  // and committed on the third attempt — never touching the lock.
  EXPECT_EQ(value.Load(), 1);
  const auto& stats = GlobalOptiStats();
  EXPECT_EQ(stats.EpisodeAborts(htm::AbortCode::kConflict), 2u);
  EXPECT_EQ(stats.backoff_waits.load(), 2u);
  EXPECT_GE(stats.backoff_pauses.load(), 2u * (8 / 2));
  EXPECT_EQ(stats.fast_commits.load(), 1u);
  EXPECT_EQ(stats.slow_acquires.load(), 0u);
}

TEST_F(AbortStormTest, BackoffDisabledWaitsZero) {
  OptiConfig cfg = GetOptiConfig();
  cfg.use_perceptron = false;
  cfg.conflict_retries = 3;
  cfg.backoff_base_pauses = 0;  // retry immediately
  PublishOptiConfig(cfg);

  FaultPlan plan;
  plan.seed = seed_;
  plan.AbortNext(Site::kCommit, 2, htm::AbortCode::kConflict);
  htm::fault::Arm(plan);

  gosync::Mutex mu;
  htm::Shared<int64_t> value(0);
  OptiLock ol;
  ol.WithLock(&mu, [&] { value.Add(1); });
  htm::fault::Disarm();
  EXPECT_EQ(value.Load(), 1);
  EXPECT_EQ(GlobalOptiStats().backoff_waits.load(), 0u);
  EXPECT_EQ(GlobalOptiStats().fast_commits.load(), 1u);
}

// Acceptance scenario: a persistent injected storm on one (mutex, call-site)
// pair trips its breaker; other pairs keep committing on the fast path; the
// quarantined pair re-probes after the cooldown and recovers.
TEST_F(AbortStormTest, BreakerQuarantinesOnePairAndReprobes) {
  OptiConfig cfg = GetOptiConfig();
  cfg.use_perceptron = false;  // isolate the breaker layer
  cfg.breaker_threshold = 4;
  cfg.breaker_cooldown_episodes = 16;
  PublishOptiConfig(cfg);

  gosync::Mutex mu_victim;
  OptiLock ol_victim;
  OptiLock ol_healthy;
  // Pick a healthy mutex whose breaker cell differs from the victim's (the
  // 4096-entry table hashes addresses; avoid a deterministic collision).
  const uint32_t victim_cell =
      Perceptron::IndicesFor(&mu_victim, &ol_victim).mutex_cell;
  std::vector<std::unique_ptr<gosync::Mutex>> candidates;
  gosync::Mutex* mu_healthy = nullptr;
  while (mu_healthy == nullptr) {
    candidates.push_back(std::make_unique<gosync::Mutex>());
    if (Perceptron::IndicesFor(candidates.back().get(), &ol_healthy)
            .mutex_cell != victim_cell) {
      mu_healthy = candidates.back().get();
    }
  }

  htm::Shared<int64_t> victim_value(0);
  htm::Shared<int64_t> healthy_value(0);

  // Phase 1: storm the victim pair only — 100% commit aborts. Four
  // exhausted episodes trip the breaker; later episodes short-circuit
  // without even attempting HTM.
  FaultPlan plan;
  plan.seed = seed_;
  plan.WithRule(Site::kCommit, 1.0, htm::AbortCode::kConflict);
  htm::fault::Arm(plan);
  for (int i = 0; i < 8; ++i) {
    ol_victim.WithLock(&mu_victim, [&] { victim_value.Add(1); });
  }
  htm::fault::Disarm();

  const auto& stats = GlobalOptiStats();
  EXPECT_EQ(victim_value.Load(), 8);
  EXPECT_EQ(stats.breaker_trips.load(), 1u);
  EXPECT_EQ(stats.htm_attempts.load(), 4u)
      << "episodes after the trip must not speculate";
  EXPECT_EQ(stats.breaker_short_circuits.load(), 4u);
  EXPECT_EQ(stats.slow_acquires.load(), 8u);

  // Phase 2: the injector is gone, but the victim stays quarantined while
  // an unrelated pair commits on the fast path throughout.
  uint64_t healthy_before = stats.fast_commits.load();
  for (int i = 0; i < 4; ++i) {
    ol_healthy.WithLock(mu_healthy, [&] { healthy_value.Add(1); });
    ol_victim.WithLock(&mu_victim, [&] { victim_value.Add(1); });
  }
  EXPECT_EQ(healthy_value.Load(), 4);
  EXPECT_GE(stats.fast_commits.load(), healthy_before + 4)
      << "the healthy pair must be unaffected by the victim's quarantine";
  EXPECT_GE(stats.breaker_short_circuits.load(), 5u);

  // Phase 3: keep issuing victim episodes until the cooldown (16 episode
  // ticks from the trip) elapses; the breaker re-probes once, the probe
  // commits, and the pair is healthy again.
  for (int i = 0; i < 16; ++i) {
    ol_victim.WithLock(&mu_victim, [&] { victim_value.Add(1); });
  }
  EXPECT_EQ(stats.breaker_reprobes.load(), 1u);
  EXPECT_EQ(victim_value.Load(), 8 + 4 + 16);
  // After the successful re-probe the victim commits fast again.
  uint64_t fast_before = stats.fast_commits.load();
  ol_victim.WithLock(&mu_victim, [&] { victim_value.Add(1); });
  EXPECT_EQ(stats.fast_commits.load(), fast_before + 1);
}

TEST_F(AbortStormTest, FailedReprobeReopensBreaker) {
  OptiConfig cfg = GetOptiConfig();
  cfg.use_perceptron = false;
  cfg.breaker_threshold = 2;
  cfg.breaker_cooldown_episodes = 5;
  PublishOptiConfig(cfg);

  FaultPlan plan;
  plan.seed = seed_;
  plan.WithRule(Site::kCommit, 1.0, htm::AbortCode::kConflict);
  htm::fault::Arm(plan);  // the storm never ends

  gosync::Mutex mu;
  htm::Shared<int64_t> value(0);
  OptiLock ol;
  for (int i = 0; i < 40; ++i) {
    ol.WithLock(&mu, [&] { value.Add(1); });
  }
  htm::fault::Disarm();

  const auto& stats = GlobalOptiStats();
  EXPECT_EQ(value.Load(), 40);
  // Trip, cooldown, failed re-probe, re-trip, ... — multiple trips and
  // re-probes, but speculation stays rare (2 initial failures + 1 failed
  // probe per cycle) instead of 40 wasted attempts.
  EXPECT_GE(stats.breaker_trips.load(), 2u);
  EXPECT_GE(stats.breaker_reprobes.load(), 1u);
  EXPECT_LT(stats.htm_attempts.load(), 15u);
  EXPECT_EQ(stats.fast_commits.load(), 0u);
}

TEST_F(AbortStormTest, WatchdogHotDegradesAndRecovers) {
  OptiConfig cfg = GetOptiConfig();
  cfg.use_perceptron = false;
  cfg.watchdog_threshold = 8;
  cfg.watchdog_cooldown_episodes = 50;
  PublishOptiConfig(cfg);

  // RTM dies mid-run: every begin refuses from now on.
  FaultPlan plan;
  plan.seed = seed_;
  plan.WithRule(Site::kBegin, 1.0, htm::AbortCode::kSpurious);
  htm::fault::Arm(plan);

  gosync::Mutex mu;
  htm::Shared<int64_t> value(0);
  OptiLock ol;
  for (int i = 0; i < 40; ++i) {
    ol.WithLock(&mu, [&] { value.Add(1); });
  }

  const auto& stats = GlobalOptiStats();
  EXPECT_EQ(value.Load(), 40);
  EXPECT_EQ(stats.watchdog_trips.load(), 1u);
  EXPECT_EQ(stats.htm_attempts.load(), 8u)
      << "after the trip no episode may pay the begin/abort tax";
  EXPECT_EQ(stats.watchdog_bypasses.load(), 32u);
  EXPECT_EQ(stats.slow_acquires.load(), 40u);

  // The storm ends (microcode rollback, say); after the cooldown window the
  // watchdog lets speculation through again and commits flow.
  htm::fault::Disarm();
  for (int i = 0; i < 60; ++i) {
    ol.WithLock(&mu, [&] { value.Add(1); });
  }
  EXPECT_EQ(value.Load(), 100);
  EXPECT_GT(stats.fast_commits.load(), 0u)
      << "slow-only mode must expire after its cooldown";
  EXPECT_GT(stats.htm_attempts.load(), 8u);
}

// Hot-degrade under live multi-threaded load: a storm that starts mid-run
// must not deadlock in-flight episodes or lose any increments, and the
// breaker+watchdog must bound speculation while it lasts.
TEST_F(AbortStormTest, MidRunStormKeepsFullThroughputCorrect) {
  OptiConfig cfg = GetOptiConfig();
  cfg.breaker_threshold = 4;
  cfg.breaker_cooldown_episodes = 64;
  cfg.watchdog_threshold = 16;
  cfg.watchdog_cooldown_episodes = 256;
  PublishOptiConfig(cfg);

  constexpr int kThreads = 4;
  constexpr int kItersPerPhase = 2000;
  gosync::Mutex mu;
  htm::Shared<int64_t> counter(0);

  // Spin barrier so Arm() never races in-flight injector reads: all workers
  // quiesce between phases (the documented Arm contract).
  std::atomic<int> at_barrier{0};
  std::atomic<bool> phase2_go{false};

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      OptiLock ol;
      for (int i = 0; i < kItersPerPhase; ++i) {
        ol.WithLock(&mu, [&] { counter.Add(1); });
      }
      at_barrier.fetch_add(1);
      while (!phase2_go.load(std::memory_order_acquire)) {
        gosync::CpuPause();
      }
      for (int i = 0; i < kItersPerPhase; ++i) {
        ol.WithLock(&mu, [&] { counter.Add(1); });
      }
    });
  }

  while (at_barrier.load(std::memory_order_acquire) < kThreads) {
    gosync::CpuPause();
  }
  // Phase 2: total storm — begins refuse and any surviving commit aborts.
  FaultPlan plan;
  plan.seed = seed_;
  plan.WithRule(Site::kBegin, 1.0, htm::AbortCode::kConflict)
      .WithRule(Site::kCommit, 1.0, htm::AbortCode::kConflict);
  htm::fault::Arm(plan);
  phase2_go.store(true, std::memory_order_release);

  for (auto& th : threads) {
    th.join();
  }
  htm::fault::Disarm();

  EXPECT_EQ(counter.Load(), 2 * kThreads * kItersPerPhase);
  const auto& stats = GlobalOptiStats();
  EXPECT_EQ(stats.fast_commits.load() + stats.nested_fast_commits.load() +
                stats.slow_acquires.load(),
            static_cast<uint64_t>(2 * kThreads * kItersPerPhase))
      << "every episode must end exactly one way — " << stats.ToString();
}

}  // namespace
}  // namespace gocc::optilib
