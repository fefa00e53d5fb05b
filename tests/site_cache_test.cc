// Per-site decision cache coherence (DESIGN.md §4.11, site_cache.h).
//
// The cache is a pure performance hint, so every test here checks the same
// contract from a different angle: a cached verdict is only ever served
// when it is *indistinguishable* from re-deriving the decision —
//
//   1. any epoch bump (PublishOptiConfig, explicit invalidation) retires
//      every cached verdict before the next episode can see it;
//   2. hardening (breaker/watchdog enabled) bypasses the cache entirely,
//      in both directions — no serving, no installing;
//   3. an elide verdict refuted by the episode itself (lock-held abort
//      storm forcing the slow path) evicts the cell on the spot;
//   4. concurrent thread churn + live config publishing + explicit
//      invalidation never break episode conservation or counter values
//      (this is the TSan/chaos target: the suite is registered in the
//      `ctest -L chaos` and `-L swocc` seed batteries);
//   5. a cached lock verdict keeps feeding the perceptron's slow-streak
//      decay, and the decay reset both evicts the cell and lets the site
//      earn back elision.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
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

uint64_t ChaosSeed() {
  const char* env = std::getenv("GOCC_CHAOS_SEED");
  if (env != nullptr && *env != '\0') {
    return static_cast<uint64_t>(std::strtoull(env, nullptr, 0));
  }
  return 1;
}

uint64_t Hits() { return GlobalOptiStats().site_cache_hits.load(); }
uint64_t Installs() { return GlobalOptiStats().site_cache_installs.load(); }
uint64_t Invalidations() {
  return GlobalOptiStats().site_cache_invalidations.load();
}

uint64_t EpisodeSum() {
  OptiStats& s = GlobalOptiStats();
  return s.fast_commits.load(std::memory_order_relaxed) +
         s.nested_fast_commits.load(std::memory_order_relaxed) +
         s.slow_acquires.load(std::memory_order_relaxed);
}

class SiteCacheTest : public ::testing::Test {
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

// --- 1. epoch bumps retire every verdict -----------------------------------

TEST_F(SiteCacheTest, EpochBumpInvalidatesCachedVerdicts) {
  gosync::Mutex mu;
  htm::Shared<uint64_t> value{0};
  OptiLock ol;

  // First episode derives the decision and memoizes it at commit; the
  // second is served from the cache.
  ol.WithLock(&mu, [&] { value.Add(1); });
  EXPECT_EQ(Hits(), 0u);
  EXPECT_EQ(Installs(), 1u);
  ol.WithLock(&mu, [&] { value.Add(1); });
  EXPECT_EQ(Hits(), 1u);
  EXPECT_EQ(Installs(), 1u);

  // Re-publishing (even an identical config) bumps the decision epoch:
  // the stale cell must not be served again.
  const uint64_t epoch_before = SiteDecisionCacheEpoch();
  PublishOptiConfig(OptiConfig{});
  EXPECT_GT(SiteDecisionCacheEpoch(), epoch_before);

  ol.WithLock(&mu, [&] { value.Add(1); });  // miss: re-derive + re-install
  EXPECT_EQ(Hits(), 1u);
  EXPECT_EQ(Installs(), 2u);
  ol.WithLock(&mu, [&] { value.Add(1); });  // fresh verdict serves again
  EXPECT_EQ(Hits(), 2u);

  // The explicit invalidation hook behaves like a publish.
  InvalidateSiteDecisionCaches();
  ol.WithLock(&mu, [&] { value.Add(1); });
  EXPECT_EQ(Hits(), 2u);
  EXPECT_EQ(Installs(), 3u);

  EXPECT_EQ(value.LoadRelaxed(), 5u);
  EXPECT_EQ(GlobalOptiStats().fast_commits.load(), 5u);
}

// --- 2. hardening bypasses the cache in both directions --------------------

TEST_F(SiteCacheTest, HardeningDisablesServingAndInstalling) {
  OptiConfig hardened;
  hardened.breaker_threshold = 64;  // breaker enabled => hardening active
  PublishOptiConfig(hardened);

  gosync::Mutex mu;
  htm::Shared<uint64_t> value{0};
  OptiLock ol;
  constexpr int kEpisodes = 200;
  for (int i = 0; i < kEpisodes; ++i) {
    ol.WithLock(&mu, [&] { value.Add(1); });
  }
  // Uncontended episodes all elide, but the cache stays cold: hardening
  // admission (breaker/watchdog) must run every episode.
  EXPECT_EQ(GlobalOptiStats().fast_commits.load(), uint64_t{kEpisodes});
  EXPECT_EQ(Hits(), 0u);
  EXPECT_EQ(Installs(), 0u);

  // Turning hardening off re-enables the cache for the same site.
  PublishOptiConfig(OptiConfig{});
  ol.WithLock(&mu, [&] { value.Add(1); });
  ol.WithLock(&mu, [&] { value.Add(1); });
  EXPECT_EQ(Installs(), 1u);
  EXPECT_EQ(Hits(), 1u);
  EXPECT_EQ(value.LoadRelaxed(), uint64_t{kEpisodes} + 2);
}

// --- 3. a refuted elide verdict evicts the cell ----------------------------

TEST_F(SiteCacheTest, SlowPathFallbackInvalidatesElideVerdict) {
  gosync::Mutex mu;
  htm::Shared<uint64_t> value{0};
  OptiLock ol;

  ol.WithLock(&mu, [&] { value.Add(1); });
  ol.WithLock(&mu, [&] { value.Add(1); });
  ASSERT_EQ(Hits(), 1u);  // verdict is cached and serving

  // Hold the lock pessimistically from another thread long enough that the
  // cached-elide episode exhausts its attempt budget on kLockHeld aborts
  // and falls back to the slow path.
  std::atomic<bool> locked{false};
  std::thread holder([&] {
    mu.Lock();
    locked.store(true, std::memory_order_release);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    mu.Unlock();
  });
  while (!locked.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  ol.WithLock(&mu, [&] { value.Add(1); });  // blocks, then acquires slowly
  holder.join();

  EXPECT_GE(GlobalOptiStats().slow_acquires.load(), 1u);
  // The failed episode evicted the cell...
  EXPECT_GE(Invalidations(), 1u);
  const uint64_t installs_before = Installs();
  // ...so the next uncontended episode re-derives and re-installs instead
  // of replaying the refuted verdict.
  ol.WithLock(&mu, [&] { value.Add(1); });
  EXPECT_EQ(Installs(), installs_before + 1);
  EXPECT_EQ(value.LoadRelaxed(), 4u);
}

// --- 4. churn + live publishing never break coherence (TSan target) --------

TEST_F(SiteCacheTest, ChurnWithLivePublishingKeepsConservation) {
  constexpr int kThreads = 8;
  constexpr int kWaves = 3;
  constexpr int kPerThread = 2000;

  struct Slot {
    gosync::Mutex mu;
    htm::Shared<uint64_t> value{0};
  };

  std::atomic<bool> stop{false};
  // Config flipper: re-publishes (epoch bump) and explicitly invalidates
  // while episodes are running; perceptron toggles so cached verdicts are
  // minted under both decision flavours across the run.
  std::thread flipper([&] {
    bool perceptron = true;
    uint64_t flips = 0;
    while (!stop.load(std::memory_order_acquire)) {
      OptiConfig cfg;
      perceptron = !perceptron;
      cfg.use_perceptron = perceptron;
      PublishOptiConfig(cfg);
      if (++flips % 3 == 0) {
        InvalidateSiteDecisionCaches();
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    PublishOptiConfig(OptiConfig{});
  });

  Slot hot;
  uint64_t expected_hot = 0;
  for (int wave = 0; wave < kWaves; ++wave) {
    // Fresh threads and fresh disjoint slots every wave: TLS shards, pins,
    // and cached verdicts from dead threads must not corrupt anything.
    std::vector<Slot> slots(kThreads);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        Slot& mine = slots[static_cast<size_t>(t)];
        OptiLock ol;
        for (int i = 0; i < kPerThread; ++i) {
          if (i % 16 == 15) {
            ol.WithLock(&hot.mu, [&] { hot.value.Add(1); });
          } else {
            ol.WithLock(&mine.mu, [&] { mine.value.Add(1); });
          }
        }
      });
    }
    for (auto& th : threads) {
      th.join();
    }
    for (const Slot& s : slots) {
      EXPECT_EQ(s.value.LoadRelaxed(),
                static_cast<uint64_t>(kPerThread - kPerThread / 16));
    }
    expected_hot += static_cast<uint64_t>(kThreads) * (kPerThread / 16);
    EXPECT_EQ(hot.value.LoadRelaxed(), expected_hot);
  }
  stop.store(true, std::memory_order_release);
  flipper.join();

  // Conservation: every episode ended exactly one way, regardless of how
  // many verdicts were served, installed, or retired mid-flight.
  EXPECT_EQ(EpisodeSum(),
            static_cast<uint64_t>(kThreads) * kWaves * kPerThread);
  // And the run exercised the cache for real.
  EXPECT_GT(Hits() + Installs(), 0u);
}

// --- 5. cached lock verdicts keep the decay cadence ------------------------

TEST_F(SiteCacheTest, LockVerdictFeedsDecayAndReprobesAfterReset) {
  gosync::Mutex mu;
  htm::Shared<uint64_t> value{0};
  OptiLock ol;
  const Perceptron::Indices idx = Perceptron::IndicesFor(&mu, &ol);

  // Train the site's weights below threshold so the next decision is
  // pessimistic (same direction the runtime would push them under a real
  // abort storm).
  for (int i = 0; i < 64 && GlobalPerceptron().Predict(idx); ++i) {
    GlobalPerceptron().PenalizeHtm(idx);
  }
  ASSERT_FALSE(GlobalPerceptron().Predict(idx));

  // First episode: perceptron says lock, verdict memoized.
  ol.WithLock(&mu, [&] { value.Add(1); });
  EXPECT_EQ(GlobalOptiStats().slow_acquires.load(), 1u);
  ASSERT_EQ(Installs(), 1u);

  // Cached-lock episodes skip the dot-product but still count as slow
  // decisions, so the decay streak keeps advancing toward the reset; the
  // reset (at kDecayThreshold) evicts the cell and re-opens elision.
  uint64_t episodes = 1;
  while (GlobalOptiStats().perceptron_resets.load() == 0 &&
         episodes < Perceptron::kDecayThreshold + 64) {
    ol.WithLock(&mu, [&] { value.Add(1); });
    ++episodes;
  }
  EXPECT_EQ(GlobalOptiStats().perceptron_resets.load(), 1u);
  EXPECT_GE(Invalidations(), 1u);
  EXPECT_GT(Hits(), 0u);  // the streak was fed from the cache

  // Post-reset: the site earns elision back immediately.
  const uint64_t fast_before = GlobalOptiStats().fast_commits.load();
  ol.WithLock(&mu, [&] { value.Add(1); });
  ol.WithLock(&mu, [&] { value.Add(1); });
  EXPECT_EQ(GlobalOptiStats().fast_commits.load(), fast_before + 2);
  EXPECT_EQ(value.LoadRelaxed(), episodes + 2);
}

}  // namespace
}  // namespace gocc::optilib
