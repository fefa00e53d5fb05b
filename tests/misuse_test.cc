// Lifecycle hardening (DESIGN.md §4.9): exception-safe episodes and lock-API
// misuse detection/recovery, with exact per-kind counter assertions.
//
// Every test here runs under the SimTM backend so the assertions are exact
// and deterministic; the RTM-hardware variant of the unwind contract lives
// in rtm_test.cc behind the usual probe guard. The suite is part of the
// chaos battery (`ctest -L chaos`) so the misuse paths also run under every
// chaos seed.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <thread>

#include "src/gosync/mutex.h"
#include "src/gosync/runtime.h"
#include "src/gosync/rwmutex.h"
#include "src/htm/config.h"
#include "src/htm/fault.h"
#include "src/htm/shared.h"
#include "src/htm/stats.h"
#include "src/optilib/optilock.h"
#include "src/support/misuse.h"

namespace gocc::optilib {
namespace {

using support::MisuseCount;
using support::MisuseKind;
using support::MisusePolicy;

class MisuseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    htm::ForceSoftwareBackend();
    htm::GlobalTxStats().Reset();
    PublishOptiConfig(OptiConfig{});
    GlobalOptiStats().Reset();
    GlobalPerceptron().Reset();
    ResetHardeningState();
    htm::fault::Disarm();
    support::ResetMisuseCounters();
    prev_policy_ = support::GetMisusePolicy();
    support::SetMisusePolicy(MisusePolicy::kRecoverAndCount);
    prev_procs_ = gosync::SetMaxProcs(4);
  }
  void TearDown() override {
    support::SetMisusePolicy(prev_policy_);
    gosync::SetMaxProcs(prev_procs_);
  }

  int prev_procs_ = 1;
  support::MisusePolicy prev_policy_ = support::MisusePolicy::kAbortProcess;
};

struct Boom : std::runtime_error {
  Boom() : std::runtime_error("boom") {}
};

// --- exception-safe episodes (tentpole part 1) ------------------------------

TEST_F(MisuseTest, ThrowInsideWithLockCancelsFastPathTransaction) {
  gosync::Mutex mu;
  htm::Shared<int64_t> value(0);
  OptiLock ol;
  EXPECT_THROW(ol.WithLock(&mu,
                           [&] {
                             value.Add(5);  // buffered by the transaction
                             throw Boom();
                           }),
               Boom);
  // The cancelled transaction rolled its buffered write back: the caller
  // observes a critical section that never executed.
  EXPECT_EQ(value.Load(), 0);
  EXPECT_FALSE(mu.IsLocked());
  const auto& stats = GlobalOptiStats();
  EXPECT_EQ(stats.unwind_cancels.load(), 1u);
  EXPECT_EQ(stats.unwind_slow_unlocks.load(), 0u);
  EXPECT_EQ(stats.fast_commits.load(), 0u);
  EXPECT_EQ(support::TotalMisuse(), 0u);  // an unwind is not misuse

  // The OptiLock and the mutex are both reusable afterwards.
  ol.WithLock(&mu, [&] { value.Add(1); });
  EXPECT_EQ(value.Load(), 1);
  EXPECT_EQ(stats.fast_commits.load(), 1u);
}

TEST_F(MisuseTest, ThrowInsideWithLockReleasesSlowPathLock) {
  gosync::SetMaxProcs(1);  // single-proc bypass: every episode is slow-path
  gosync::Mutex mu;
  htm::Shared<int64_t> value(0);
  OptiLock ol;
  EXPECT_THROW(ol.WithLock(&mu,
                           [&] {
                             value.Add(5);  // direct write: not rolled back
                             throw Boom();
                           }),
               Boom);
  // Slow path has no rollback — the partial write survives (exactly the
  // untransformed program's behaviour) — but the lock is released.
  EXPECT_EQ(value.Load(), 5);
  EXPECT_FALSE(mu.IsLocked());
  const auto& stats = GlobalOptiStats();
  EXPECT_EQ(stats.unwind_slow_unlocks.load(), 1u);
  EXPECT_EQ(stats.unwind_cancels.load(), 0u);
  EXPECT_EQ(support::TotalMisuse(), 0u);

  mu.Lock();  // not deadlocked
  mu.Unlock();
}

TEST_F(MisuseTest, ThrowInsideReadAndWriteEpisodesUnwindsCleanly) {
  gosync::RWMutex rw;
  OptiLock ol;
  EXPECT_THROW(ol.WithRLock(&rw, [&] { throw Boom(); }), Boom);
  EXPECT_THROW(ol.WithWLock(&rw, [&] { throw Boom(); }), Boom);
  // Each throw tears down exactly one episode. Under sw-OCC the write
  // episode runs on the slow path (write elision is never eligible), so its
  // unwind lands in unwind_slow_unlocks instead of unwind_cancels.
  const auto& stats = GlobalOptiStats();
  EXPECT_EQ(stats.unwind_cancels.load() + stats.unwind_slow_unlocks.load(),
            2u);
  if (htm::ActiveBackend() == htm::Backend::kSwOcc) {
    EXPECT_EQ(stats.unwind_cancels.load(), 1u);
    EXPECT_EQ(stats.unwind_slow_unlocks.load(), 1u);
  } else {
    EXPECT_EQ(stats.unwind_cancels.load(), 2u);
  }
  // Both modes still acquirable: nothing was left subscribed or held.
  rw.RLock();
  rw.RUnlock();
  rw.Lock();
  rw.Unlock();
}

TEST_F(MisuseTest, ThrowInsideNestedEpisodesAbandonsBoth) {
  gosync::Mutex outer_mu;
  gosync::Mutex inner_mu;
  htm::Shared<int64_t> value(0);
  OptiLock outer;
  OptiLock inner;
  EXPECT_THROW(outer.WithLock(&outer_mu,
                              [&] {
                                value.Add(1);
                                inner.WithLock(&inner_mu, [&] {
                                  value.Add(1);
                                  throw Boom();
                                });
                              }),
               Boom);
  // The inner AbandonEpisode cancelled the whole flattened transaction
  // (RTM semantics: rollback to the outermost begin); the outer episode's
  // AbandonEpisode then found no transaction left and reset bookkeeping
  // only. Both writes rolled back, both episodes counted.
  EXPECT_EQ(value.Load(), 0);
  EXPECT_FALSE(outer_mu.IsLocked());
  EXPECT_FALSE(inner_mu.IsLocked());
  EXPECT_EQ(GlobalOptiStats().unwind_cancels.load(), 2u);

  outer.WithLock(&outer_mu, [&] { value.Add(1); });
  EXPECT_EQ(value.Load(), 1);
}

TEST_F(MisuseTest, AbandonEpisodeWithoutEpisodeIsNoOp) {
  OptiLock ol;
  ol.AbandonEpisode();
  ol.AbandonEpisode();
  EXPECT_EQ(GlobalOptiStats().unwind_cancels.load(), 0u);
  EXPECT_EQ(GlobalOptiStats().unwind_slow_unlocks.load(), 0u);
  EXPECT_EQ(support::TotalMisuse(), 0u);
}

TEST_F(MisuseTest, PaperTextualUnwindContract) {
  // The documented OPTI_FAST_LOCK try/catch idiom from the AbandonEpisode
  // contract, exercised verbatim.
  gosync::Mutex mu;
  htm::Shared<int64_t> value(0);
  OptiLock ol;
  bool caught = false;
  OPTI_FAST_LOCK(ol, &mu);
  try {
    value.Add(7);
    throw Boom();
  } catch (...) {
    ol.AbandonEpisode();
    caught = true;
  }
  EXPECT_TRUE(caught);
  EXPECT_EQ(value.Load(), 0);
  EXPECT_FALSE(mu.IsLocked());
  EXPECT_EQ(GlobalOptiStats().unwind_cancels.load(), 1u);
}

// --- misuse detection & recovery (tentpole part 2) --------------------------

TEST_F(MisuseTest, DoubleFastLockRecoversAndCountsExactly) {
  gosync::Mutex mu1;
  gosync::Mutex mu2;
  htm::Shared<int64_t> value(0);
  OptiLock ol;
  OPTI_FAST_LOCK(ol, &mu1);
  value.Add(3);  // buffered inside the stale episode's transaction
  OPTI_FAST_LOCK(ol, &mu2);  // misuse: previous episode never unlocked
  value.Add(1);
  ol.FastUnlock(&mu2);

  EXPECT_EQ(MisuseCount(MisuseKind::kDoubleFastLock), 1u);
  EXPECT_EQ(support::TotalMisuse(), 1u);
  // The stale episode was torn down like an unwind: its buffered write was
  // discarded with the cancelled transaction, and only the fresh episode's
  // write committed.
  EXPECT_EQ(value.Load(), 1);
  EXPECT_EQ(GlobalOptiStats().unwind_cancels.load(), 1u);
  EXPECT_EQ(GlobalOptiStats().fast_commits.load(), 1u);
  EXPECT_FALSE(mu1.IsLocked());
  EXPECT_FALSE(mu2.IsLocked());
}

TEST_F(MisuseTest, DoubleFastLockOnSlowPathReleasesStaleLock) {
  gosync::SetMaxProcs(1);  // every episode slow-path
  gosync::Mutex mu1;
  gosync::Mutex mu2;
  OptiLock ol;
  OPTI_FAST_LOCK(ol, &mu1);
  EXPECT_TRUE(mu1.IsLocked());
  OPTI_FAST_LOCK(ol, &mu2);  // misuse: mu1's episode still open
  // Recovery released mu1 instead of leaking it held forever.
  EXPECT_FALSE(mu1.IsLocked());
  EXPECT_TRUE(mu2.IsLocked());
  ol.FastUnlock(&mu2);
  EXPECT_FALSE(mu2.IsLocked());

  EXPECT_EQ(MisuseCount(MisuseKind::kDoubleFastLock), 1u);
  EXPECT_EQ(GlobalOptiStats().unwind_slow_unlocks.load(), 1u);
}

TEST_F(MisuseTest, UnpairedUnlockOfUnheldMutexIsCountedNoOp) {
  gosync::Mutex mu;
  OptiLock ol;
  ol.FastUnlock(&mu);  // no episode in flight, mutex not held
  EXPECT_EQ(MisuseCount(MisuseKind::kUnpairedUnlock), 1u);
  EXPECT_FALSE(mu.IsLocked());
  mu.Lock();  // lock word undamaged
  mu.Unlock();
}

TEST_F(MisuseTest, UnpairedUnlockOfHeldMutexReleasesIt) {
  // Go's legal cross-goroutine handoff: the mutex is held (by someone) and
  // an episode-less unlock releases it.
  gosync::Mutex mu;
  mu.Lock();
  OptiLock ol;
  ol.FastUnlock(&mu);
  EXPECT_EQ(MisuseCount(MisuseKind::kUnpairedUnlock), 1u);
  EXPECT_FALSE(mu.IsLocked());
}

TEST_F(MisuseTest, UnpairedRWUnlocksRecoverPerMode) {
  gosync::RWMutex rw;
  OptiLock ol;

  // Not held at all: both recoveries are counted no-ops.
  ol.FastRUnlock(&rw);
  ol.FastWUnlock(&rw);
  EXPECT_EQ(MisuseCount(MisuseKind::kUnpairedUnlock), 2u);
  EXPECT_EQ(rw.ReaderCountValue(), 0);

  // Reader held: the read-mode recovery releases it; write-mode does not
  // touch a read-held lock.
  rw.RLock();
  ol.FastWUnlock(&rw);  // wrong mode for the held state: counted no-op
  EXPECT_EQ(rw.ReaderCountValue(), 1);
  ol.FastRUnlock(&rw);
  EXPECT_EQ(rw.ReaderCountValue(), 0);

  // Writer held: symmetric.
  rw.Lock();
  ol.FastRUnlock(&rw);  // counted no-op
  EXPECT_LT(rw.ReaderCountValue(), 0);
  ol.FastWUnlock(&rw);
  EXPECT_EQ(rw.ReaderCountValue(), 0);
  EXPECT_EQ(MisuseCount(MisuseKind::kUnpairedUnlock), 6u);

  rw.Lock();  // still fully functional
  rw.Unlock();
}

TEST_F(MisuseTest, CrossThreadFastUnlockLeavesOwnersEpisodeIntact) {
  gosync::Mutex mu;
  htm::Shared<int64_t> value(0);
  OptiLock ol;
  std::atomic<int> stage{0};

  std::thread owner([&] {
    OPTI_FAST_LOCK(ol, &mu);
    value.Add(1);
    stage.store(1, std::memory_order_release);
    while (stage.load(std::memory_order_acquire) < 2) {
      std::this_thread::yield();
    }
    ol.FastUnlock(&mu);  // the owner's unlock still commits
  });
  std::thread intruder([&] {
    while (stage.load(std::memory_order_acquire) < 1) {
      std::this_thread::yield();
    }
    ol.FastUnlock(&mu);  // misuse: not the episode's thread
    stage.store(2, std::memory_order_release);
  });
  owner.join();
  intruder.join();

  EXPECT_EQ(MisuseCount(MisuseKind::kCrossThreadUnlock), 1u);
  EXPECT_EQ(value.Load(), 1);
  EXPECT_EQ(GlobalOptiStats().fast_commits.load(), 1u);
  EXPECT_FALSE(mu.IsLocked());
}

TEST_F(MisuseTest, CrossThreadSlowUnlockProceedsAsHandoff) {
  gosync::SetMaxProcs(1);  // slow path everywhere
  gosync::Mutex mu;
  OptiLock ol;
  std::atomic<int> stage{0};

  std::thread owner([&] {
    OPTI_FAST_LOCK(ol, &mu);  // slow: really holds mu
    stage.store(1, std::memory_order_release);
    while (stage.load(std::memory_order_acquire) < 2) {
      std::this_thread::yield();
    }
    // The intruder consumed the episode (Go handoff); the owner must not
    // unlock again.
  });
  std::thread intruder([&] {
    while (stage.load(std::memory_order_acquire) < 1) {
      std::this_thread::yield();
    }
    ol.FastUnlock(&mu);  // counted, but the unlock itself is Go-legal
    stage.store(2, std::memory_order_release);
  });
  owner.join();
  intruder.join();

  EXPECT_EQ(MisuseCount(MisuseKind::kCrossThreadUnlock), 1u);
  EXPECT_FALSE(mu.IsLocked());
  EXPECT_EQ(GlobalOptiStats().slow_acquires.load(), 1u);
}

TEST_F(MisuseTest, WrongModeSlowUnlockReleasesTheModeActuallyHeld) {
  gosync::SetMaxProcs(1);  // slow path everywhere
  gosync::RWMutex rw;
  OptiLock ol;

  // Write episode released through the read API.
  OPTI_FAST_WLOCK(ol, &rw);
  ol.FastRUnlock(&rw);
  EXPECT_EQ(MisuseCount(MisuseKind::kWrongModeUnlock), 1u);
  EXPECT_EQ(rw.ReaderCountValue(), 0);  // write lock correctly released

  // Read episode released through the write API.
  OPTI_FAST_RLOCK(ol, &rw);
  ol.FastWUnlock(&rw);
  EXPECT_EQ(MisuseCount(MisuseKind::kWrongModeUnlock), 2u);
  EXPECT_EQ(rw.ReaderCountValue(), 0);  // read lock correctly released

  rw.Lock();  // the lock word stayed sound throughout
  rw.Unlock();
  rw.RLock();
  rw.RUnlock();
}

TEST_F(MisuseTest, FastPathWrongModeStaysTransactionalThenCorrects) {
  // On the fast path a wrong-mode unlock is indistinguishable from the
  // paper's hand-over-hand mismatch: the transaction aborts (kMutexMismatch)
  // and the episode re-executes on the slow path, where the same-object
  // wrong-mode unlock is classified as misuse and releases the held mode.
  gosync::RWMutex rw;
  OptiConfig cfg = GetOptiConfig();
  cfg.use_perceptron = false;
  PublishOptiConfig(cfg);
  OptiLock ol;
  OPTI_FAST_RLOCK(ol, &rw);
  ol.FastWUnlock(&rw);  // first pass: fast, aborts; second pass: slow

  const auto& stats = GlobalOptiStats();
  EXPECT_EQ(stats.mismatch_recoveries.load(), 1u);
  EXPECT_EQ(stats.EpisodeAborts(htm::AbortCode::kMutexMismatch), 1u);
  EXPECT_EQ(MisuseCount(MisuseKind::kWrongModeUnlock), 1u);
  EXPECT_EQ(rw.ReaderCountValue(), 0);
}

// --- destruction while in use (tentpole part 2, teardown kinds) -------------

TEST_F(MisuseTest, MutexDestroyedWhileLockedIsCounted) {
  auto mu = std::make_unique<gosync::Mutex>();
  mu->Lock();
  mu.reset();  // destroys a locked mutex
  EXPECT_EQ(MisuseCount(MisuseKind::kMutexDestroyedInUse), 1u);
}

TEST_F(MisuseTest, CleanMutexDestructionIsNotMisuse) {
  {
    gosync::Mutex mu;
    mu.Lock();
    mu.Unlock();
    gosync::RWMutex rw;
    rw.RLock();
    rw.RUnlock();
  }
  EXPECT_EQ(support::TotalMisuse(), 0u);
}

TEST_F(MisuseTest, RWMutexDestroyedWithActiveReaderIsCounted) {
  auto rw = std::make_unique<gosync::RWMutex>();
  rw->RLock();
  rw.reset();
  EXPECT_EQ(MisuseCount(MisuseKind::kRWMutexDestroyedInUse), 1u);
  EXPECT_EQ(MisuseCount(MisuseKind::kMutexDestroyedInUse), 0u);
}

TEST_F(MisuseTest, RWMutexDestroyedWriteLockedReportsBothLayers) {
  auto rw = std::make_unique<gosync::RWMutex>();
  rw->Lock();
  rw.reset();
  // The RWMutex reports, then its inner writer Mutex (still locked) reports
  // as it is destroyed in turn.
  EXPECT_EQ(MisuseCount(MisuseKind::kRWMutexDestroyedInUse), 1u);
  EXPECT_EQ(MisuseCount(MisuseKind::kMutexDestroyedInUse), 1u);
}

// --- policy ----------------------------------------------------------------

TEST_F(MisuseTest, AbortPolicyDiesWithStructuredReport) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        support::SetMisusePolicy(MisusePolicy::kAbortProcess);
        auto mu = std::make_unique<gosync::Mutex>();
        mu->Lock();
        mu.reset();
      },
      "\\[gocc-misuse\\] kind=mutex-destroyed-in-use policy=abort");
}

TEST_F(MisuseTest, EpisodeSnapshotAbortPolicyDiesOnDoubleFastLock) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        support::SetMisusePolicy(MisusePolicy::kAbortProcess);
        gosync::Mutex mu;
        OptiLock ol;
        OPTI_FAST_LOCK(ol, &mu);
        OPTI_FAST_LOCK(ol, &mu);  // episode reports read the process policy
      },
      "\\[gocc-misuse\\] kind=double-fast-lock policy=abort");
}

TEST_F(MisuseTest, RecoverPolicyReportsAreRateLimitedButCountsExact) {
  gosync::Mutex mu;
  OptiLock ol;
  const uint64_t n = support::kMisuseReportLimit + 20;
  for (uint64_t i = 0; i < n; ++i) {
    ol.FastUnlock(&mu);  // unpaired every time
  }
  // Reports stop at the limit (observable only on stderr); the counter
  // keeps the exact total regardless.
  EXPECT_EQ(MisuseCount(MisuseKind::kUnpairedUnlock), n);
}

}  // namespace
}  // namespace gocc::optilib
