// Deterministic fault injection through the transaction substrate: scripted
// and probabilistic abort schedules driven into Mutex/RWMutex elision, with
// the two paper invariants — mutual exclusion and forward progress —
// asserted under every pattern, including a 100% abort rate.
//
// Chaos reproduction: every randomized test derives its schedules from a
// base seed taken from the GOCC_CHAOS_SEED environment variable (default 1)
// and prints it on entry; re-running with the logged value replays each
// thread's Bernoulli stream exactly (see EXPERIMENTS.md, "Chaos suite").

#include <gtest/gtest.h>

#include <atomic>
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
#include "src/support/rng.h"
#include "tests/chaos_seed.h"

namespace gocc::optilib {
namespace {

using htm::fault::FaultPlan;
using htm::fault::Site;

class FaultInjectionTest : public ::testing::Test {
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
    gosync::SetMaxProcs(prev_procs_);
  }

  int prev_procs_ = 1;
  uint64_t seed_ = 1;
};

TEST_F(FaultInjectionTest, DisarmedInjectorIsInvisible) {
  gosync::Mutex mu;
  htm::Shared<int64_t> value(0);
  OptiLock ol;
  for (int i = 0; i < 100; ++i) {
    ol.WithLock(&mu, [&] { value.Add(1); });
  }
  EXPECT_EQ(value.Load(), 100);
  EXPECT_EQ(htm::fault::GlobalFaultStats().checked.load(), 0u);
  EXPECT_EQ(htm::fault::GlobalFaultStats().TotalInjected(), 0u);
  EXPECT_EQ(GlobalOptiStats().fast_commits.load(), 100u);
}

TEST_F(FaultInjectionTest, ScheduledCommitAbortsAreExact) {
  // "Abort the next 3 commits with kConflict": exactly three episodes see a
  // conflict abort; with the paper's immediate-fallback policy each becomes
  // one slow acquisition, then the fast path resumes.
  FaultPlan plan;
  plan.seed = seed_;
  plan.AbortNext(Site::kCommit, 3, htm::AbortCode::kConflict);
  htm::fault::Arm(plan);

  gosync::Mutex mu;
  htm::Shared<int64_t> value(0);
  OptiConfig cfg = GetOptiConfig();
  cfg.use_perceptron = false;  // keep the schedule exact
  PublishOptiConfig(cfg);
  OptiLock ol;
  for (int i = 0; i < 50; ++i) {
    ol.WithLock(&mu, [&] { value.Add(1); });
  }
  EXPECT_EQ(value.Load(), 50);
  const auto& stats = GlobalOptiStats();
  EXPECT_EQ(stats.EpisodeAborts(htm::AbortCode::kConflict), 3u);
  EXPECT_EQ(stats.slow_acquires.load(), 3u);
  EXPECT_EQ(stats.fast_commits.load(), 47u);
  EXPECT_EQ(htm::fault::GlobalFaultStats().TotalInjected(), 3u);
}

TEST_F(FaultInjectionTest, ScheduleSkipThenAbortComposes) {
  // Skip the first 5 commits, then kill the next 2 with capacity aborts.
  FaultPlan plan;
  plan.seed = seed_;
  plan.AbortNext(Site::kCommit, 2, htm::AbortCode::kCapacity, /*skip=*/5);
  htm::fault::Arm(plan);

  gosync::Mutex mu;
  htm::Shared<int64_t> value(0);
  OptiConfig cfg = GetOptiConfig();
  cfg.use_perceptron = false;  // keep the schedule exact
  PublishOptiConfig(cfg);
  OptiLock ol;
  for (int i = 0; i < 10; ++i) {
    ol.WithLock(&mu, [&] { value.Add(1); });
  }
  EXPECT_EQ(value.Load(), 10);
  EXPECT_EQ(GlobalOptiStats().EpisodeAborts(htm::AbortCode::kCapacity), 2u);
  EXPECT_EQ(GlobalOptiStats().fast_commits.load(), 8u);
}

TEST_F(FaultInjectionTest, BeginInjectionModelsRtmRefusal) {
  // 100% kBegin injection: the pre-RTM decision path refuses every
  // transaction, exactly like TSX disabled by microcode. Every episode must
  // complete through the lock.
  FaultPlan plan;
  plan.seed = seed_;
  plan.WithRule(Site::kBegin, 1.0, htm::AbortCode::kSpurious);
  htm::fault::Arm(plan);

  gosync::Mutex mu;
  htm::Shared<int64_t> value(0);
  OptiConfig cfg = GetOptiConfig();
  cfg.use_perceptron = false;  // keep probing, keep failing
  PublishOptiConfig(cfg);
  OptiLock ol;
  for (int i = 0; i < 100; ++i) {
    ol.WithLock(&mu, [&] { value.Add(1); });
  }
  EXPECT_EQ(value.Load(), 100);
  EXPECT_EQ(GlobalOptiStats().fast_commits.load(), 0u);
  EXPECT_EQ(GlobalOptiStats().slow_acquires.load(), 100u);
  EXPECT_GE(GlobalOptiStats().EpisodeAborts(htm::AbortCode::kSpurious), 100u);
}

TEST_F(FaultInjectionTest, SameSeedReplaysIdenticalInjections) {
  gosync::Mutex mu;
  htm::Shared<int64_t> value(0);
  // Disable learning so both runs drive the identical operation sequence.
  OptiConfig cfg = GetOptiConfig();
  cfg.use_perceptron = false;
  PublishOptiConfig(cfg);
  auto run = [&]() -> uint64_t {
    FaultPlan plan;
    plan.seed = seed_;
    plan.WithRule(Site::kCommit, 0.3, htm::AbortCode::kConflict)
        .WithRule(Site::kLoad, 0.05, htm::AbortCode::kSpurious);
    htm::fault::Arm(plan);
    htm::fault::BindThisThread(0);
    OptiLock ol;
    for (int i = 0; i < 200; ++i) {
      ol.WithLock(&mu, [&] { value.Add(1); });
    }
    htm::fault::Disarm();
    return htm::fault::GlobalFaultStats().TotalInjected();
  };
  uint64_t first = run();
  uint64_t second = run();
  EXPECT_GT(first, 0u);
  EXPECT_EQ(first, second) << "same seed + same thread binding must replay "
                              "the identical injection sequence";
}

TEST_F(FaultInjectionTest, PerThreadFilterTargetsOneVictim) {
  // Injection bound to ordinal 0 only: the victim thread never commits fast,
  // the bystander (own mutex, own call site) is untouched.
  FaultPlan plan;
  plan.seed = seed_;
  plan.WithRule(Site::kCommit, 1.0, htm::AbortCode::kConflict);
  plan.only_thread = 0;
  htm::fault::Arm(plan);

  gosync::Mutex victim_mu;
  gosync::Mutex bystander_mu;
  htm::Shared<int64_t> victim_count(0);
  htm::Shared<int64_t> bystander_count(0);
  constexpr int kIters = 500;

  std::thread victim([&] {
    htm::fault::BindThisThread(0);
    OptiLock ol;
    for (int i = 0; i < kIters; ++i) {
      ol.WithLock(&victim_mu, [&] { victim_count.Add(1); });
    }
  });
  std::thread bystander([&] {
    htm::fault::BindThisThread(1);
    OptiLock ol;
    for (int i = 0; i < kIters; ++i) {
      ol.WithLock(&bystander_mu, [&] { bystander_count.Add(1); });
    }
  });
  victim.join();
  bystander.join();

  EXPECT_EQ(victim_count.Load(), kIters);
  EXPECT_EQ(bystander_count.Load(), kIters);
  // The bystander's episodes all commit fast; the victim's all fall back
  // (perceptron quickly routes it to the lock, which is also not a fast
  // commit). Fast commits therefore come from the bystander alone.
  EXPECT_GE(GlobalOptiStats().fast_commits.load(),
            static_cast<uint64_t>(kIters));
  EXPECT_GE(GlobalOptiStats().EpisodeAborts(htm::AbortCode::kConflict), 1u);
}

// The chaos core: randomized per-site abort probabilities (multiple derived
// seeds per run) driven through Mutex elision, RWMutex write elision, and
// RWMutex read elision concurrently with slow-path writers. Mutual exclusion
// is asserted by exact counting and torn-pair detection; forward progress by
// the test completing with every episode accounted for.
TEST_F(FaultInjectionTest, MutexElisionSurvivesRandomizedInjection) {
  constexpr int kThreads = 4;
  constexpr int kIters = 3000;
  for (int round = 0; round < 3; ++round) {
    const uint64_t round_seed = seed_ * 1000003u + static_cast<uint64_t>(round);
    SplitMix64 mix(round_seed);
    FaultPlan plan;
    plan.seed = round_seed;
    plan.WithRule(Site::kCommit, 0.05 + 0.3 * mix.NextDouble(),
                  htm::AbortCode::kConflict)
        .WithRule(Site::kLoad, 0.02 * mix.NextDouble(),
                  htm::AbortCode::kSpurious)
        .WithRule(Site::kStore, 0.02 * mix.NextDouble(),
                  htm::AbortCode::kCapacity)
        .WithRule(Site::kBegin, 0.05 * mix.NextDouble(),
                  htm::AbortCode::kConflict)
        .WithStallAt(Site::kLockTransition, 0.01, 64);
    htm::fault::Arm(plan);

    gosync::Mutex mu;
    htm::Shared<int64_t> counter(0);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&] {
        OptiLock ol;
        for (int i = 0; i < kIters; ++i) {
          ol.WithLock(&mu, [&] { counter.Add(1); });
        }
      });
    }
    for (auto& th : threads) {
      th.join();
    }
    htm::fault::Disarm();
    ASSERT_EQ(counter.Load(), kThreads * kIters)
        << "mutual exclusion violated under seed " << round_seed << " — "
        << htm::fault::GlobalFaultStats().ToString();
  }
}

TEST_F(FaultInjectionTest, RWMutexElisionSurvivesRandomizedInjection) {
  constexpr int kWriters = 2;
  constexpr int kReaders = 2;
  constexpr int kIters = 2000;
  for (int round = 0; round < 3; ++round) {
    const uint64_t round_seed = seed_ * 7777777u + static_cast<uint64_t>(round);
    SplitMix64 mix(round_seed);
    FaultPlan plan;
    plan.seed = round_seed;
    plan.WithRule(Site::kCommit, 0.05 + 0.25 * mix.NextDouble(),
                  htm::AbortCode::kConflict)
        .WithRule(Site::kLoad, 0.03 * mix.NextDouble(),
                  htm::AbortCode::kSpurious)
        .WithStallAt(Site::kLockTransition, 0.02, 96);
    htm::fault::Arm(plan);

    gosync::RWMutex rw;
    htm::Shared<int64_t> a(0);
    htm::Shared<int64_t> b(0);
    std::atomic<bool> torn{false};
    std::vector<std::thread> threads;
    for (int t = 0; t < kWriters; ++t) {
      threads.emplace_back([&] {
        OptiLock ol;
        for (int i = 0; i < kIters; ++i) {
          ol.WithWLock(&rw, [&] {
            a.Add(1);
            b.Add(1);
          });
        }
      });
    }
    for (int t = 0; t < kReaders; ++t) {
      threads.emplace_back([&] {
        OptiLock ol;
        for (int i = 0; i < kIters; ++i) {
          int64_t x = 0;
          int64_t y = 0;
          ol.WithRLock(&rw, [&] {
            x = a.Load();
            y = b.Load();
          });
          if (x != y) {
            torn.store(true, std::memory_order_relaxed);
          }
        }
      });
    }
    for (auto& th : threads) {
      th.join();
    }
    htm::fault::Disarm();
    ASSERT_FALSE(torn.load())
        << "readers observed a torn a/b pair under seed " << round_seed
        << " — " << htm::fault::GlobalFaultStats().ToString();
    ASSERT_EQ(a.Load(), kWriters * kIters) << "seed " << round_seed;
    ASSERT_EQ(b.Load(), kWriters * kIters) << "seed " << round_seed;
  }
}

TEST_F(FaultInjectionTest, HundredPercentAbortRateStillMakesProgress) {
  // Every transactional access and every commit aborts; every begin fails
  // too. Forward progress must come entirely from the lock, for all three
  // elision modes.
  FaultPlan plan;
  plan.seed = seed_;
  plan.WithRule(Site::kBegin, 1.0, htm::AbortCode::kConflict)
      .WithRule(Site::kLoad, 1.0, htm::AbortCode::kConflict)
      .WithRule(Site::kStore, 1.0, htm::AbortCode::kConflict)
      .WithRule(Site::kCommit, 1.0, htm::AbortCode::kConflict);
  htm::fault::Arm(plan);

  gosync::Mutex mu;
  gosync::RWMutex rw;
  htm::Shared<int64_t> m_count(0);
  htm::Shared<int64_t> w_count(0);
  htm::Shared<int64_t> r_sum(0);
  constexpr int kThreads = 3;
  constexpr int kIters = 800;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      OptiLock ol;
      for (int i = 0; i < kIters; ++i) {
        ol.WithLock(&mu, [&] { m_count.Add(1); });
        ol.WithWLock(&rw, [&] { w_count.Add(1); });
        int64_t seen = 0;
        ol.WithRLock(&rw, [&] { seen = w_count.Load(); });
        if (seen >= 0) {
          ol.WithLock(&mu, [&] { r_sum.Add(1); });
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  htm::fault::Disarm();
  EXPECT_EQ(m_count.Load(), kThreads * kIters);
  EXPECT_EQ(w_count.Load(), kThreads * kIters);
  EXPECT_EQ(r_sum.Load(), kThreads * kIters);
  EXPECT_EQ(GlobalOptiStats().fast_commits.load(), 0u)
      << "no transaction can survive a 100% abort schedule";
}

// Satellite: RWMutex mismatch recovery under injected aborts. The
// transformer can pair FastRUnlock/FastWUnlock with the wrong mutex
// (hand-over-hand, Appendix C); recovery must re-route to the slow path with
// no lost unlocks even while the injector is also killing transactions.
class RWMismatchTest : public FaultInjectionTest {};

TEST_F(RWMismatchTest, FastRUnlockWrongMutexRecovers) {
  FaultPlan plan;
  plan.seed = seed_;
  plan.WithRule(Site::kLoad, 0.2, htm::AbortCode::kSpurious);
  htm::fault::Arm(plan);

  // Keep speculating even after repeated fallbacks so every episode opens a
  // transaction (the perceptron would otherwise route straight to the lock
  // and the mismatch would never be observed transactionally).
  OptiConfig cfg = GetOptiConfig();
  cfg.use_perceptron = false;
  PublishOptiConfig(cfg);

  gosync::RWMutex outer;
  gosync::RWMutex inner;
  htm::Shared<int64_t> value(0);
  constexpr int kEpisodes = 20;
  // volatile + statement-form increment: `i` is live across the setjmp
  // planted by OPTI_FAST_RLOCK.
  volatile int i = 0;
  while (i < kEpisodes) {
    i = i + 1;
    // Untransformed shape: outer.RLock(); inner.RLock(); outer.RUnlock();
    // inner.RUnlock(); — read-coupled traversal. The transformed inner pair
    // is (FastRLock(inner), FastRUnlock(outer)): mismatched on purpose.
    outer.RLock();
    OptiLock ol;
    OPTI_FAST_RLOCK(ol, &inner);
    value.Add(1);
    ol.FastRUnlock(&outer);
    inner.RUnlock();
  }
  htm::fault::Disarm();
  EXPECT_EQ(value.Load(), kEpisodes);
  const auto& stats = GlobalOptiStats();
  // Every episode ends on the slow path: either the injector killed its
  // transaction first (spurious) or the mismatched unlock did. The two
  // causes partition the episodes exactly.
  EXPECT_EQ(stats.slow_acquires.load(), static_cast<uint64_t>(kEpisodes));
  EXPECT_EQ(stats.mismatch_recoveries.load(),
            stats.EpisodeAborts(htm::AbortCode::kMutexMismatch));
  EXPECT_EQ(stats.EpisodeAborts(htm::AbortCode::kMutexMismatch) +
                stats.EpisodeAborts(htm::AbortCode::kSpurious),
            static_cast<uint64_t>(kEpisodes));
  EXPECT_GE(stats.mismatch_recoveries.load(), 1u);
  // No lost unlocks: both locks must be writer-acquirable afterwards.
  outer.Lock();
  outer.Unlock();
  inner.Lock();
  inner.Unlock();
}

TEST_F(RWMismatchTest, FastWUnlockWrongMutexRecovers) {
  FaultPlan plan;
  plan.seed = seed_;
  plan.WithRule(Site::kStore, 0.25, htm::AbortCode::kConflict);
  htm::fault::Arm(plan);
  OptiConfig cfg = GetOptiConfig();
  cfg.use_perceptron = false;
  PublishOptiConfig(cfg);

  gosync::RWMutex outer;
  gosync::RWMutex inner;
  htm::Shared<int64_t> value(0);
  constexpr int kEpisodes = 20;
  // volatile + statement-form increment: `i` is live across the setjmp
  // planted by OPTI_FAST_WLOCK.
  volatile int i = 0;
  while (i < kEpisodes) {
    i = i + 1;
    // Untransformed: outer.Lock(); inner.Lock(); outer.Unlock();
    // inner.Unlock(); — write-coupled. Transformed inner pair mismatches.
    outer.Lock();
    OptiLock ol;
    OPTI_FAST_WLOCK(ol, &inner);
    value.Add(1);
    ol.FastWUnlock(&outer);
    inner.Unlock();
  }
  htm::fault::Disarm();
  EXPECT_EQ(value.Load(), kEpisodes);
  const auto& stats = GlobalOptiStats();
  EXPECT_EQ(stats.slow_acquires.load(), static_cast<uint64_t>(kEpisodes));
  EXPECT_EQ(stats.mismatch_recoveries.load(),
            stats.EpisodeAborts(htm::AbortCode::kMutexMismatch));
  if (htm::ActiveBackend() == htm::Backend::kSwOcc) {
    // Write elision is never eligible under sw-OCC: every episode took the
    // slow path up front, so no transactional mismatch was manufactured and
    // the crossed unlock pair simply ran with untransformed pairing.
    EXPECT_EQ(stats.EpisodeAborts(htm::AbortCode::kMutexMismatch), 0u);
    EXPECT_EQ(stats.mismatch_recoveries.load(), 0u);
  } else {
    EXPECT_EQ(stats.EpisodeAborts(htm::AbortCode::kMutexMismatch) +
                  stats.EpisodeAborts(htm::AbortCode::kConflict),
              static_cast<uint64_t>(kEpisodes));
    EXPECT_GE(stats.mismatch_recoveries.load(), 1u);
  }
  outer.Lock();
  outer.Unlock();
  inner.Lock();
  inner.Unlock();
}

TEST_F(RWMismatchTest, WrongModeUnlockDetectedTransactionally) {
  // A read elision unlocked through the write API is a programming error
  // with no sound untransformed equivalent, so the runtime's obligation is
  // detection: the fast path must abort with kMutexMismatch and re-execute
  // the episode on the slow path (where the program below pairs correctly,
  // mirroring Appendix C's "behaviourally identical to the original").
  gosync::RWMutex rw;
  htm::Shared<int64_t> value(0);
  OptiLock ol;
  OPTI_FAST_RLOCK(ol, &rw);
  value.Add(1);
  if (ol.on_slow_path()) {
    ol.FastRUnlock(&rw);  // recovered episode: corrected pairing
  } else {
    ol.FastWUnlock(&rw);  // wrong mode: must be detected, not committed
  }
  EXPECT_EQ(value.Load(), 1);
  EXPECT_EQ(GlobalOptiStats().mismatch_recoveries.load(), 1u);
  EXPECT_EQ(htm::GlobalTxStats().Aborts(htm::AbortCode::kMutexMismatch), 1u);
  // No lost unlocks: a writer can still get in.
  rw.Lock();
  rw.Unlock();
}

}  // namespace
}  // namespace gocc::optilib
