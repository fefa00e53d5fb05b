// Per-site decision cache coherence (DESIGN.md §4.11). The cached verdict
// is a word in the perceptron's mutex cell (perceptron.h), keyed by the
// decision epoch.
//
// The cache is a pure performance hint that memoizes elide verdicts only,
// so every test here checks the same contract from a different angle: a
// cached verdict is only ever served when re-deriving the decision would
// speculate too —
//
//   1. any epoch bump (PublishOptiConfig, explicit invalidation) retires
//      every cached verdict before the next episode can see it;
//   2. an elide verdict refuted by the episode itself (lock-held abort
//      storm forcing the slow path) evicts the cell on the spot;
//   3. concurrent thread churn + live config publishing + explicit
//      invalidation never break episode conservation or counter values
//      (this is the TSan/chaos target: the suite is registered in the
//      `ctest -L chaos` and `-L swocc` seed batteries);
//   4. lock verdicts are never cached: every slow decision runs the
//      perceptron, so it feeds the slow-streak decay and follows the
//      site's context cell as soon as other mutexes at the site train it;
//   5. the verdict shares the perceptron cell without sharing its state: a
//      weight reset leaves verdicts to the epoch, and neither an epoch bump
//      nor an install or eviction moves a weight or a slow streak.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
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
#include "tests/chaos_seed.h"

namespace gocc::optilib {
namespace {

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
    htm::GlobalTxStats().Reset();
    PublishOptiConfig(OptiConfig{});
    GlobalOptiStats().Reset();
    GlobalPerceptron().Reset();
    ResetHardeningState();
    htm::fault::Disarm();
    htm::fault::GlobalFaultStats().Reset();
    prev_procs_ = gosync::SetMaxProcs(4);
    seed_ = ChaosSeed();
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

  // The explicit reset behaves like a publish.
  ResetHardeningState();
  ol.WithLock(&mu, [&] { value.Add(1); });
  EXPECT_EQ(Hits(), 2u);
  EXPECT_EQ(Installs(), 3u);

  EXPECT_EQ(value.LoadRelaxed(), 5u);
  EXPECT_EQ(GlobalOptiStats().fast_commits.load(), 5u);
}

// --- 2. a refuted elide verdict evicts the cell ----------------------------

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

// The invalidation counter counts only verdicts of the episode's own epoch:
// a refuted episode that meets a verdict minted before an epoch bump (one
// no episode can be served any more) clears it without counting it.
TEST_F(SiteCacheTest, StaleVerdictEvictionIsNotCounted) {
  gosync::Mutex mu;
  htm::Shared<uint64_t> value{0};
  OptiLock ol;
  const Perceptron::Indices idx = Perceptron::IndicesFor(&mu, &ol);

  ol.WithLock(&mu, [&] { value.Add(1); });  // mints the verdict
  ASSERT_EQ(Installs(), 1u);
  const uint64_t minted = SiteDecisionCacheEpoch();
  ResetHardeningState();  // the verdict is stale from here on

  // The perceptron still predicts elide; every attempt fails at commit, so
  // the episode falls back to the lock and evicts the cell.
  htm::fault::FaultPlan plan;
  plan.seed = seed_;
  plan.WithRule(htm::fault::Site::kCommit, 1.0, htm::AbortCode::kConflict);
  htm::fault::Arm(plan);
  ol.WithLock(&mu, [&] { value.Add(1); });
  htm::fault::Disarm();

  EXPECT_EQ(GlobalOptiStats().slow_acquires.load(), 1u);
  EXPECT_EQ(Hits(), 0u);
  EXPECT_EQ(Installs(), 1u);
  EXPECT_EQ(Invalidations(), 0u) << "a stale verdict counted as evicted";
  EXPECT_FALSE(GlobalPerceptron().HoldsElide(idx, minted))
      << "the refuted episode left the stale verdict in place";
  EXPECT_EQ(value.LoadRelaxed(), 2u);
}

// --- 3. churn + live publishing never break coherence (TSan target) --------

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
        ResetHardeningState();
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

// --- 4. lock verdicts are never cached --------------------------------------

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

  // First episode: perceptron says lock; nothing is memoized.
  ol.WithLock(&mu, [&] { value.Add(1); });
  EXPECT_EQ(GlobalOptiStats().slow_acquires.load(), 1u);
  EXPECT_EQ(Installs(), 0u);

  // Every slow decision runs the perceptron and advances the decay streak
  // toward the reset at kDecayThreshold, which re-opens elision.
  uint64_t episodes = 1;
  while (GlobalOptiStats().perceptron_resets.load() == 0 &&
         episodes < Perceptron::kDecayThreshold + 64) {
    ol.WithLock(&mu, [&] { value.Add(1); });
    ++episodes;
  }
  EXPECT_EQ(GlobalOptiStats().perceptron_resets.load(), 1u);
  EXPECT_EQ(episodes, uint64_t{Perceptron::kDecayThreshold});
  EXPECT_EQ(Hits(), 0u);
  EXPECT_EQ(Installs(), 0u);
  EXPECT_EQ(Invalidations(), 0u);

  // Post-reset: the site earns elision back immediately.
  const uint64_t fast_before = GlobalOptiStats().fast_commits.load();
  ol.WithLock(&mu, [&] { value.Add(1); });
  ol.WithLock(&mu, [&] { value.Add(1); });
  EXPECT_EQ(GlobalOptiStats().fast_commits.load(), fast_before + 2);
  EXPECT_EQ(value.LoadRelaxed(), episodes + 2);
}

// Predict() sums the (mutex ^ site) cell and the site's context cell, which
// every mutex locked at that site trains. When commits of mutex A at the
// site raise the context weight until Predict(B) says elide, B's next
// episode must speculate: a lock verdict cached on B's own cell would keep
// it on the lock.
TEST_F(SiteCacheTest, SlowDecisionFollowsContextCellTraining) {
  OptiLock ol;
  gosync::Mutex mu_a;
  const Perceptron::Indices a = Perceptron::IndicesFor(&mu_a, &ol);
  std::vector<std::unique_ptr<gosync::Mutex>> mutexes;
  do {
    mutexes.push_back(std::make_unique<gosync::Mutex>());
  } while (Perceptron::IndicesFor(mutexes.back().get(), &ol).mutex_cell ==
           a.mutex_cell);
  gosync::Mutex& mu_b = *mutexes.back();
  const Perceptron::Indices b = Perceptron::IndicesFor(&mu_b, &ol);
  ASSERT_EQ(a.context_cell, b.context_cell);

  Perceptron& p = GlobalPerceptron();
  for (int i = 0; i < 10; ++i) {
    p.RewardHtm(a);  // A's cell and the shared context cell: +10 each
  }
  for (int i = 0; i < 8; ++i) {
    p.PenalizeHtm(b);  // B's cell -8, the context cell back to +2
  }
  ASSERT_FALSE(p.Predict(b));

  htm::Shared<uint64_t> value{0};
  ol.WithLock(&mu_b, [&] { value.Add(1); });
  EXPECT_EQ(GlobalOptiStats().slow_acquires.load(), 1u);

  for (int i = 0; i < 10; ++i) {
    ol.WithLock(&mu_a, [&] { value.Add(1); });
  }
  ASSERT_EQ(GlobalOptiStats().fast_commits.load(), 10u);
  ASSERT_TRUE(p.Predict(b)) << "A's commits raised the shared context cell";

  ol.WithLock(&mu_b, [&] { value.Add(1); });
  EXPECT_EQ(GlobalOptiStats().fast_commits.load(), 11u)
      << "B stayed on the lock after its prediction turned to elide";
  EXPECT_EQ(GlobalOptiStats().slow_acquires.load(), 1u);
  EXPECT_EQ(value.LoadRelaxed(), 12u);
}

// --- 5. the verdict word and the perceptron state stay independent ---------

// True when `idx`'s cells, whose slow streaks are expected at `streak`,
// reach the decay reset at exactly the kDecayThreshold-th slow decision.
// Consumes the streak (the reset zeroes the cells).
bool StreakIsExactly(Perceptron& p, Perceptron::Indices idx,
                     uint32_t streak) {
  for (uint32_t n = streak + 1; n < Perceptron::kDecayThreshold; ++n) {
    if (p.NoteSlowDecision(idx)) {
      return false;
    }
  }
  return p.NoteSlowDecision(idx);
}

TEST_F(SiteCacheTest, VerdictSurvivesPerceptronResetUntilTheEpochMoves) {
  gosync::Mutex mu;
  htm::Shared<uint64_t> value{0};
  OptiLock ol;
  const Perceptron::Indices idx = Perceptron::IndicesFor(&mu, &ol);

  ol.WithLock(&mu, [&] { value.Add(1); });  // mints the verdict
  ASSERT_EQ(Installs(), 1u);
  GlobalPerceptron().Reset();
  EXPECT_TRUE(GlobalPerceptron().HoldsElide(idx, SiteDecisionCacheEpoch()));
  ol.WithLock(&mu, [&] { value.Add(1); });
  EXPECT_EQ(Hits(), 1u) << "a weight reset retired the verdict";

  ResetHardeningState();
  EXPECT_FALSE(GlobalPerceptron().HoldsElide(idx, SiteDecisionCacheEpoch()));
  ol.WithLock(&mu, [&] { value.Add(1); });  // re-derived, re-installed
  EXPECT_EQ(Hits(), 1u);
  EXPECT_EQ(Installs(), 2u);
  EXPECT_EQ(value.LoadRelaxed(), 3u);
}

TEST_F(SiteCacheTest, EpochBumpLeavesEveryWeightAndStreak) {
  Perceptron& p = GlobalPerceptron();
  auto cells = [](uint32_t i) { return Perceptron::Indices{i, i}; };
  for (uint32_t i = 0; i < Perceptron::kTableSize; ++i) {
    for (uint32_t k = 0; k < i % 7; ++k) {
      p.PenalizeHtm(cells(i));
    }
    for (uint32_t k = 0; k < i % 5; ++k) {
      p.NoteSlowDecision(cells(i));
    }
    p.InstallElide(cells(i), SiteDecisionCacheEpoch());
  }
  PublishOptiConfig(OptiConfig{});
  ResetHardeningState();
  for (uint32_t i = 0; i < Perceptron::kTableSize; ++i) {
    EXPECT_FALSE(p.HoldsElide(cells(i), SiteDecisionCacheEpoch()));
    ASSERT_EQ(p.WeightSum(cells(i)), -2 * static_cast<int32_t>(i % 7))
        << "cell " << i;
    ASSERT_TRUE(StreakIsExactly(p, cells(i), i % 5)) << "cell " << i;
  }
}

TEST_F(SiteCacheTest, InstallAndEvictionLeaveWeightAndStreak) {
  Perceptron& p = GlobalPerceptron();
  int mu = 0;
  int site = 0;
  const Perceptron::Indices idx = Perceptron::IndicesFor(&mu, &site);
  const uint64_t epoch = SiteDecisionCacheEpoch();
  for (int i = 0; i < 3; ++i) {
    p.RewardHtm(idx);
  }
  for (int i = 0; i < 7; ++i) {
    p.NoteSlowDecision(idx);
  }
  ASSERT_EQ(p.WeightSum(idx), 6);

  p.InstallElide(idx, epoch);
  EXPECT_TRUE(p.HoldsElide(idx, epoch));
  EXPECT_EQ(p.WeightSum(idx), 6);
  EXPECT_TRUE(p.InvalidateElide(idx, epoch));
  EXPECT_FALSE(p.HoldsElide(idx, epoch));
  EXPECT_FALSE(p.InvalidateElide(idx, epoch))
      << "an empty cell counted an eviction";
  EXPECT_EQ(p.WeightSum(idx), 6);
  EXPECT_TRUE(StreakIsExactly(p, idx, 7));
}

}  // namespace
}  // namespace gocc::optilib
