// Abort storms: bounded exponential backoff between conflict retries, and
// the perceptron with decay (§5.4.1) as the only speculation throttle — a
// stormed (mutex, call-site) pair goes to the lock after one exhausted
// episode, re-probes once per Perceptron::kDecayThreshold slow decisions,
// and elides again once the storm ends, while pairs at other call sites
// keep committing. That covers the "RTM died mid-run" scenario too (every
// begin refused). All storms are injected deterministically via htm::fault.

#include <gtest/gtest.h>

#include <atomic>
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
#include "tests/chaos_seed.h"

namespace gocc::optilib {
namespace {

using htm::fault::FaultPlan;
using htm::fault::Site;

class AbortStormTest : public ::testing::Test {
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

TEST_F(AbortStormTest, BackoffEngagesBetweenConflictRetries) {
  OptiConfig cfg = GetOptiConfig();
  cfg.use_perceptron = false;
  cfg.conflict_retries = 3;
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
  // Jittered waits of [limit/2, limit] pauses, the limit doubling from
  // kBackoffBasePauses: the two waits take [base/2 + base, base + 2*base].
  constexpr uint64_t kBase = OptiLock::kBackoffBasePauses;
  EXPECT_EQ(stats.backoff_waits.load(), 2u);
  EXPECT_GE(stats.backoff_pauses.load(), kBase / 2 + kBase);
  EXPECT_LE(stats.backoff_pauses.load(), kBase + 2 * kBase);
  EXPECT_EQ(stats.fast_commits.load(), 1u);
  EXPECT_EQ(stats.slow_acquires.load(), 0u);
}

// Acceptance scenario: a persistent injected storm on one (mutex, call-site)
// pair sends it to the lock after one exhausted episode; a pair at another
// call site keeps committing on the fast path; the stormed pair re-probes
// once, after kDecayThreshold slow decisions, and recovers.
TEST_F(AbortStormTest, BreakerQuarantinesOnePairAndReprobes) {
  gosync::Mutex mu_victim;
  OptiLock ol_victim;
  // The healthy pair must share neither perceptron cell with the victim:
  // a shared context cell would carry the victim's penalty over.
  const Perceptron::Indices victim =
      Perceptron::IndicesFor(&mu_victim, &ol_victim);
  std::vector<std::unique_ptr<gosync::Mutex>> mutexes;
  std::vector<std::unique_ptr<OptiLock>> locks;
  while (true) {
    mutexes.push_back(std::make_unique<gosync::Mutex>());
    locks.push_back(std::make_unique<OptiLock>());
    const Perceptron::Indices idx =
        Perceptron::IndicesFor(mutexes.back().get(), locks.back().get());
    if (idx.mutex_cell != victim.mutex_cell &&
        idx.context_cell != victim.context_cell) {
      break;
    }
  }
  gosync::Mutex* mu_healthy = mutexes.back().get();
  OptiLock& ol_healthy = *locks.back();

  htm::Shared<int64_t> victim_value(0);
  htm::Shared<int64_t> healthy_value(0);

  // Phase 1: storm the victim pair only — 100% commit aborts. The first
  // episode exhausts its budget and penalizes both cells; later episodes
  // go straight to the lock without even attempting.
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
  EXPECT_EQ(stats.htm_attempts.load(), 1u)
      << "episodes after the first exhausted one must not speculate";
  EXPECT_EQ(stats.perceptron_slow_decisions.load(), 7u);
  EXPECT_EQ(stats.slow_acquires.load(), 8u);

  // Phase 2: the injector is gone, but the victim stays on the lock while
  // the pair at the other call site commits on the fast path throughout.
  const uint64_t healthy_before = stats.fast_commits.load();
  for (int i = 0; i < 4; ++i) {
    ol_healthy.WithLock(mu_healthy, [&] { healthy_value.Add(1); });
    ol_victim.WithLock(&mu_victim, [&] { victim_value.Add(1); });
  }
  EXPECT_EQ(healthy_value.Load(), 4);
  EXPECT_EQ(stats.fast_commits.load(), healthy_before + 4)
      << "the healthy pair must be unaffected by the victim's storm";
  EXPECT_EQ(stats.htm_attempts.load(), 1u + 4u);

  // Phase 3: the victim's slow decisions feed the decay; the
  // kDecayThreshold-th resets its cells without speculating, and the next
  // episode is the one re-probe. It commits, and the pair is healthy again.
  const uint64_t attempts_before = stats.htm_attempts.load();
  int phase3 = 0;
  while (stats.perceptron_resets.load() == 0 &&
         phase3 < 2 * static_cast<int>(Perceptron::kDecayThreshold)) {
    ol_victim.WithLock(&mu_victim, [&] { victim_value.Add(1); });
    ++phase3;
  }
  EXPECT_EQ(stats.perceptron_resets.load(), 1u);
  EXPECT_EQ(stats.perceptron_slow_decisions.load(),
            uint64_t{Perceptron::kDecayThreshold});
  EXPECT_EQ(stats.htm_attempts.load(), attempts_before)
      << "no re-probe before kDecayThreshold slow decisions";
  const uint64_t fast_before = stats.fast_commits.load();
  ol_victim.WithLock(&mu_victim, [&] { victim_value.Add(1); });
  EXPECT_EQ(stats.htm_attempts.load(), attempts_before + 1);
  EXPECT_EQ(stats.fast_commits.load(), fast_before + 1);
  EXPECT_EQ(victim_value.Load(), 8 + 4 + phase3 + 1);
}

// A storm that never ends costs one attempt per decay period: each re-probe
// fails, re-penalizes the cells, and buys another kDecayThreshold episodes
// on the lock.
TEST_F(AbortStormTest, FailedReprobeReopensBreaker) {
  FaultPlan plan;
  plan.seed = seed_;
  plan.WithRule(Site::kCommit, 1.0, htm::AbortCode::kConflict);
  htm::fault::Arm(plan);  // the storm never ends

  constexpr int kPeriods = 3;
  constexpr int kEpisodes =
      kPeriods * (1 + static_cast<int>(Perceptron::kDecayThreshold));
  gosync::Mutex mu;
  htm::Shared<int64_t> value(0);
  OptiLock ol;
  for (int i = 0; i < kEpisodes; ++i) {
    ol.WithLock(&mu, [&] { value.Add(1); });
  }
  htm::fault::Disarm();

  const auto& stats = GlobalOptiStats();
  EXPECT_EQ(value.Load(), kEpisodes);
  EXPECT_EQ(stats.htm_attempts.load(), uint64_t{kPeriods});
  EXPECT_EQ(stats.perceptron_resets.load(), uint64_t{kPeriods});
  EXPECT_EQ(stats.fast_commits.load(), 0u);
  EXPECT_EQ(stats.slow_acquires.load(), uint64_t{kEpisodes});
}

// RTM dies mid-run: every begin is refused. Episodes degrade to the lock
// after one exhausted episode, every increment lands, and once the storm
// ends the site elides again after its decay period.
TEST_F(AbortStormTest, WatchdogHotDegradesAndRecovers) {
  FaultPlan plan;
  plan.seed = seed_;
  plan.WithRule(Site::kBegin, 1.0, htm::AbortCode::kSpurious);
  htm::fault::Arm(plan);

  gosync::Mutex mu;
  htm::Shared<int64_t> value(0);
  OptiLock ol;
  constexpr int kStorm = 40;
  for (int i = 0; i < kStorm; ++i) {
    ol.WithLock(&mu, [&] { value.Add(1); });
  }

  const auto& stats = GlobalOptiStats();
  EXPECT_EQ(value.Load(), kStorm);
  EXPECT_EQ(stats.htm_attempts.load(), 1u)
      << "after the first exhausted episode none may pay the begin/abort tax";
  EXPECT_EQ(stats.slow_acquires.load(), uint64_t{kStorm});

  // The storm ends (microcode rollback, say). The decay period that began
  // with the storm's second episode ends kDecayThreshold slow decisions
  // later; every episode after it commits.
  htm::fault::Disarm();
  constexpr int kAfter = static_cast<int>(Perceptron::kDecayThreshold) + 60;
  for (int i = 0; i < kAfter; ++i) {
    ol.WithLock(&mu, [&] { value.Add(1); });
  }
  EXPECT_EQ(value.Load(), kStorm + kAfter);
  EXPECT_EQ(stats.perceptron_resets.load(), 1u);
  EXPECT_EQ(stats.fast_commits.load(),
            uint64_t{kStorm + kAfter - 1 - Perceptron::kDecayThreshold});
  EXPECT_EQ(stats.fast_commits.load() + stats.slow_acquires.load(),
            uint64_t{kStorm + kAfter});
}

// Hot-degrade under live multi-threaded load: a storm that starts mid-run
// must not deadlock in-flight episodes or lose any increments.
TEST_F(AbortStormTest, MidRunStormKeepsFullThroughputCorrect) {
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
