// Multi-lock transactional episodes (DESIGN.md §4.12): lifecycle edges.
//
// Covers the WithLocks / OPTI_FAST_LOCK_SET surface the single-lock misuse
// suite cannot reach: set-wide atomic commit and rollback, the address-
// sorted slow-path fallback, abort attribution (recorded at subscription,
// inferred at commit), exception unwind with a set in flight, destructor
// poisoning of a member mid-episode, lock-order-inversion detection against
// the slow-held watermark, cross-thread / unpaired / mismatched set
// unlocks, the perceptron's per-set throttle under injected set-abort
// storms, and the exact-conservation oracle under concurrent transfers.
//
// Everything runs under the SimTM backend (ForceSoftwareBackend) so counter
// assertions are exact and deterministic; the chaos battery replays this
// suite under every chaos seed and again under GOCC_BACKEND=swocc.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <new>
#include <stdexcept>
#include <thread>
#include <vector>

#include "src/gosync/mutex.h"
#include "src/gosync/runtime.h"
#include "src/htm/abort.h"
#include "src/htm/config.h"
#include "src/htm/fault.h"
#include "src/htm/shared.h"
#include "src/htm/stats.h"
#include "src/optilib/optilock.h"
#include "src/support/misuse.h"
#include "src/support/rng.h"

namespace gocc::optilib {
namespace {

using support::MisuseCount;
using support::MisuseKind;
using support::MisusePolicy;

class MultiLockTest : public ::testing::Test {
 protected:
  void SetUp() override {
    htm::ForceSoftwareBackend();
    htm::GlobalTxStats().Reset();
    OptiConfig cfg;
    // The perceptron starts untrained; pin the decision to "attempt" so the
    // fast/slow assertions below are exact rather than predictor-dependent.
    cfg.use_perceptron = false;
    PublishOptiConfig(cfg);
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
    htm::fault::Disarm();
    support::SetMisusePolicy(prev_policy_);
    gosync::SetMaxProcs(prev_procs_);
  }

  int prev_procs_ = 1;
  support::MisusePolicy prev_policy_ = support::MisusePolicy::kAbortProcess;
};

struct Boom : std::runtime_error {
  Boom() : std::runtime_error("boom") {}
};

// --- fast-path set commit ---------------------------------------------------

TEST_F(MultiLockTest, CommitsWholeSetAtomicallyOnFastPath) {
  gosync::Mutex a, b, c;
  htm::Shared<int64_t> x(0), y(0), z(0);
  OptiLock ol;
  ol.WithLocks({&a, &b, &c}, [&] {
    EXPECT_FALSE(ol.on_slow_path());
    x.Add(1);
    y.Add(2);
    z.Add(3);
  });
  EXPECT_EQ(x.Load(), 1);
  EXPECT_EQ(y.Load(), 2);
  EXPECT_EQ(z.Load(), 3);
  EXPECT_FALSE(a.IsLocked() || b.IsLocked() || c.IsLocked());
  const auto& stats = GlobalOptiStats();
  EXPECT_EQ(stats.multilock_episodes.load(), 1u);
  EXPECT_EQ(stats.multilock_fast_commits.load(), 1u);
  EXPECT_EQ(stats.multilock_slow_acquires.load(), 0u);
  EXPECT_EQ(stats.fast_commits.load(), 1u);
  EXPECT_EQ(support::TotalMisuse(), 0u);
}

TEST_F(MultiLockTest, SingleDistinctLockDegradesToSingleLockEpisode) {
  gosync::Mutex mu;
  htm::Shared<int64_t> v(0);
  OptiLock ol;
  ol.WithLocks({&mu}, [&] { v.Add(1); });
  // Same lock listed three times: dedupe leaves one member, which must take
  // the exact single-lock trajectory (a literal Lock/Lock/Lock would
  // self-deadlock; the episode treats it as one).
  ol.WithLocks({&mu, &mu, &mu}, [&] { v.Add(1); });
  EXPECT_EQ(v.Load(), 2);
  EXPECT_FALSE(mu.IsLocked());
  const auto& stats = GlobalOptiStats();
  EXPECT_EQ(stats.multilock_episodes.load(), 0u);  // degraded, not counted
  EXPECT_EQ(stats.fast_commits.load(), 2u);
}

TEST_F(MultiLockTest, DuplicateMembersAreDeduplicated) {
  gosync::Mutex a, b;
  htm::Shared<int64_t> v(0);
  OptiLock ol;
  ol.WithLocks({&b, &a, &b, &a}, [&] { v.Add(1); });
  EXPECT_EQ(v.Load(), 1);
  EXPECT_FALSE(a.IsLocked() || b.IsLocked());
  const auto& stats = GlobalOptiStats();
  EXPECT_EQ(stats.multilock_episodes.load(), 1u);
  EXPECT_EQ(stats.multilock_fast_commits.load(), 1u);
  EXPECT_EQ(support::TotalMisuse(), 0u);
}

TEST_F(MultiLockTest, ValidatingUnlockAcceptsAnyOrderAndDuplicates) {
  gosync::Mutex a, b, c;
  OptiLock ol;
  gosync::Mutex* declared[] = {&c, &a, &b};
  OPTI_FAST_LOCK_SET(ol, declared, 3);
  gosync::Mutex* released[] = {&b, &c, &a, &b};  // permuted, one duplicate
  ol.FastUnlockSet(released, 4);
  const auto& stats = GlobalOptiStats();
  EXPECT_EQ(stats.multilock_fast_commits.load(), 1u);
  EXPECT_EQ(stats.mismatch_recoveries.load(), 0u);
  EXPECT_EQ(support::TotalMisuse(), 0u);
  EXPECT_FALSE(a.IsLocked() || b.IsLocked() || c.IsLocked());
}

// --- exception unwind with a set in flight ----------------------------------

TEST_F(MultiLockTest, ThrowInsideWithLocksCancelsFastPathTransaction) {
  gosync::Mutex a, b, c;
  htm::Shared<int64_t> x(0), y(0);
  OptiLock ol;
  EXPECT_THROW(ol.WithLocks({&a, &b, &c},
                            [&] {
                              x.Add(5);  // buffered by the transaction
                              y.Add(7);
                              throw Boom();
                            }),
               Boom);
  // Every buffered write across the whole set rolled back together.
  EXPECT_EQ(x.Load(), 0);
  EXPECT_EQ(y.Load(), 0);
  EXPECT_FALSE(a.IsLocked() || b.IsLocked() || c.IsLocked());
  const auto& stats = GlobalOptiStats();
  EXPECT_EQ(stats.unwind_cancels.load(), 1u);
  EXPECT_EQ(stats.unwind_slow_unlocks.load(), 0u);
  EXPECT_EQ(stats.multilock_fast_commits.load(), 0u);
  EXPECT_EQ(support::TotalMisuse(), 0u);  // an unwind is not misuse

  // Episode state fully recycled: the same OptiLock runs the next set.
  ol.WithLocks({&a, &b, &c}, [&] { x.Add(1); });
  EXPECT_EQ(x.Load(), 1);
  EXPECT_EQ(stats.multilock_fast_commits.load(), 1u);
}

TEST_F(MultiLockTest, ThrowInsideWithLocksReleasesWholeSlowPathSet) {
  gosync::SetMaxProcs(1);  // single-proc bypass: the set is slow-held
  gosync::Mutex a, b, c;
  htm::Shared<int64_t> x(0);
  OptiLock ol;
  EXPECT_THROW(ol.WithLocks({&a, &b, &c},
                            [&] {
                              EXPECT_TRUE(ol.on_slow_path());
                              EXPECT_TRUE(a.IsLocked());
                              EXPECT_TRUE(b.IsLocked());
                              EXPECT_TRUE(c.IsLocked());
                              x.Add(5);  // direct write: not rolled back
                              throw Boom();
                            }),
               Boom);
  // Slow path has no rollback, but every member of the sorted hold set is
  // released on the way out — no deadlock, no stranded lock.
  EXPECT_EQ(x.Load(), 5);
  EXPECT_FALSE(a.IsLocked() || b.IsLocked() || c.IsLocked());
  const auto& stats = GlobalOptiStats();
  EXPECT_EQ(stats.unwind_slow_unlocks.load(), 1u);
  EXPECT_EQ(stats.unwind_cancels.load(), 0u);
  EXPECT_EQ(support::TotalMisuse(), 0u);

  a.Lock();  // not deadlocked
  a.Unlock();
  c.Lock();
  c.Unlock();
}

// --- slow-path admission ----------------------------------------------------

TEST_F(MultiLockTest, SingleProcBypassTakesSortedSlowPath) {
  gosync::SetMaxProcs(1);
  gosync::Mutex a, b;
  htm::Shared<int64_t> v(0);
  OptiLock ol;
  ol.WithLocks({&b, &a}, [&] {
    EXPECT_TRUE(ol.on_slow_path());
    v.Add(1);
  });
  EXPECT_EQ(v.Load(), 1);
  const auto& stats = GlobalOptiStats();
  EXPECT_EQ(stats.multilock_episodes.load(), 1u);
  EXPECT_EQ(stats.multilock_slow_acquires.load(), 1u);
  EXPECT_EQ(stats.multilock_fast_commits.load(), 0u);
  EXPECT_GE(stats.single_proc_bypasses.load(), 1u);
  EXPECT_FALSE(a.IsLocked() || b.IsLocked());
}

// The largest legal set speculates like any other: one transaction
// subscribes all kMaxLockSet members, listed here against address order,
// and commits the whole set elided.
TEST_F(MultiLockTest, FullSizeSetSpeculatesAndCommits) {
  constexpr int kN = OptiLock::kMaxLockSet;
  gosync::Mutex mus[kN];
  gosync::Mutex* ptrs[kN];
  htm::Shared<int64_t> cells[kN];
  for (int i = 0; i < kN; ++i) {
    ptrs[i] = &mus[kN - 1 - i];
  }
  OptiLock ol;
  bool slow = true;
  ol.WithLocks(ptrs, kN, [&] {
    slow = ol.on_slow_path();
    for (auto& cell : cells) {
      cell.Add(1);
    }
  });
  EXPECT_FALSE(slow);
  for (int i = 0; i < kN; ++i) {
    EXPECT_EQ(cells[i].Load(), 1);
    EXPECT_FALSE(mus[i].IsLocked());
  }
  const auto& stats = GlobalOptiStats();
  EXPECT_EQ(stats.multilock_episodes.load(), 1u);
  EXPECT_EQ(stats.multilock_fast_commits.load(), 1u);
  EXPECT_EQ(stats.htm_attempts.load(), 1u);
  EXPECT_EQ(stats.slow_acquires.load(), 0u);
  EXPECT_EQ(stats.multilock_slow_acquires.load(), 0u);
}

TEST_F(MultiLockTest, OversizedOrEmptySetAbortsProcess) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        gosync::Mutex mus[OptiLock::kMaxLockSet + 1];
        gosync::Mutex* ptrs[OptiLock::kMaxLockSet + 1];
        for (int i = 0; i <= OptiLock::kMaxLockSet; ++i) {
          ptrs[i] = &mus[i];
        }
        OptiLock ol;
        ol.WithLocks(ptrs, OptiLock::kMaxLockSet + 1, [] {});
      },
      "WithLocks set size 9 outside");
  EXPECT_DEATH(
      {
        OptiLock ol;
        ol.WithLocks(nullptr, 0, [] {});
      },
      "WithLocks set size 0 outside");
}

// --- abort attribution ------------------------------------------------------

TEST_F(MultiLockTest, SubscriptionFaultBlamesExactMember) {
  // kMultiLockSubscribe is checked once per member in sorted order, so a
  // schedule with skip=2 forces the conflict on exactly the third lock.
  OptiConfig cfg = GetOptiConfig();
  cfg.conflict_retries = 2;
  PublishOptiConfig(cfg);
  gosync::Mutex mus[3];
  htm::Shared<int64_t> v(0);
  htm::fault::FaultPlan plan;
  plan.AbortNext(htm::fault::Site::kMultiLockSubscribe, /*count=*/1,
                 htm::AbortCode::kConflict, /*skip=*/2);
  htm::fault::Arm(plan);
  OptiLock ol;
  ol.WithLocks({&mus[0], &mus[1], &mus[2]}, [&] { v.Add(1); });
  htm::fault::Disarm();
  EXPECT_EQ(v.Load(), 1);
  const auto& stats = GlobalOptiStats();
  EXPECT_EQ(stats.EpisodeAborts(htm::AbortCode::kConflict), 1u);
  EXPECT_EQ(stats.MultiLockAbortsOnMember(0), 0u);
  EXPECT_EQ(stats.MultiLockAbortsOnMember(1), 0u);
  EXPECT_EQ(stats.MultiLockAbortsOnMember(2), 1u);
  EXPECT_EQ(stats.multilock_aborts_unattributed.load(), 0u);
  // The retry (conflict_retries > 0) recovered the fast path.
  EXPECT_EQ(stats.multilock_fast_commits.load(), 1u);
}

TEST_F(MultiLockTest, CommitFaultWithNoMovedWordLandsUnattributed) {
  // A commit-time abort after every subscription succeeded exercises the
  // inference path; with no member word actually moved there is nothing to
  // blame and the abort must land in the unattributed bucket, not on a
  // scapegoat member.
  OptiConfig cfg = GetOptiConfig();
  cfg.conflict_retries = 2;
  PublishOptiConfig(cfg);
  gosync::Mutex a, b;
  htm::Shared<int64_t> v(0);
  htm::fault::FaultPlan plan;
  plan.AbortNext(htm::fault::Site::kMultiLockCommit, /*count=*/1,
                 htm::AbortCode::kConflict);
  htm::fault::Arm(plan);
  OptiLock ol;
  ol.WithLocks({&a, &b}, [&] { v.Add(1); });
  htm::fault::Disarm();
  EXPECT_EQ(v.Load(), 1);
  const auto& stats = GlobalOptiStats();
  EXPECT_EQ(stats.multilock_aborts_unattributed.load(), 1u);
  EXPECT_EQ(stats.MultiLockAbortsOnMember(0), 0u);
  EXPECT_EQ(stats.MultiLockAbortsOnMember(1), 0u);
  EXPECT_EQ(stats.multilock_fast_commits.load(), 1u);
}

TEST_F(MultiLockTest, ConcurrentSlowTransitionIsBlamedViaInference) {
  // A pessimistic Lock/Unlock of one member between subscription and commit
  // bumps that member's version word: validation fails, and the inference
  // path must name exactly that member from the moved word.
  OptiConfig cfg = GetOptiConfig();
  cfg.conflict_retries = 2;
  PublishOptiConfig(cfg);
  gosync::Mutex mus[3];
  htm::Shared<int64_t> v(0);
  std::atomic<int> phase{0};
  std::thread interferer([&] {
    while (phase.load(std::memory_order_acquire) != 1) {
    }
    mus[1].Lock();
    mus[1].Unlock();
    phase.store(2, std::memory_order_release);
  });
  bool fired = false;
  OptiLock ol;
  ol.WithLocks({&mus[0], &mus[1], &mus[2]}, [&] {
    v.Add(1);
    if (!fired) {
      fired = true;
      phase.store(1, std::memory_order_release);
      while (phase.load(std::memory_order_acquire) != 2) {
      }
    }
  });
  interferer.join();
  EXPECT_EQ(v.Load(), 1);  // the aborted attempt's Add rolled back
  const auto& stats = GlobalOptiStats();
  EXPECT_EQ(stats.MultiLockAbortsOnMember(1), 1u);
  EXPECT_EQ(stats.MultiLockAbortsOnMember(0), 0u);
  EXPECT_EQ(stats.MultiLockAbortsOnMember(2), 0u);
  EXPECT_EQ(stats.multilock_aborts_unattributed.load(), 0u);
  EXPECT_EQ(stats.multilock_fast_commits.load(), 1u);
}

// --- lock-order inversion against the slow-held watermark -------------------

TEST_F(MultiLockTest, LockOrderInversionDetectedBelowSlowSetWatermark) {
  gosync::SetMaxProcs(1);  // every episode slow: watermark paths are live
  gosync::Mutex arr[4];    // array layout fixes the address order
  OptiLock outer;
  outer.WithLocks({&arr[1], &arr[2]}, [&] {
    // In-order nested acquire (above the set's ceiling): not an inversion.
    OptiLock inner_ok;
    inner_ok.WithLock(&arr[3], [] {});
    EXPECT_EQ(MisuseCount(MisuseKind::kLockOrderInversion), 0u);
    // Single-lock acquire below the held set's watermark: flagged, then
    // recovered by proceeding in the requested order (the untransformed
    // program's behaviour — the report is the value).
    OptiLock inner_bad;
    inner_bad.WithLock(&arr[0], [] {});
    EXPECT_EQ(MisuseCount(MisuseKind::kLockOrderInversion), 1u);
    // A nested *set* whose lowest member dips below the watermark reports
    // once for that member only.
    OptiLock inner_set;
    inner_set.WithLocks({&arr[0], &arr[3]}, [] {});
    EXPECT_EQ(MisuseCount(MisuseKind::kLockOrderInversion), 2u);
  });
  // Watermark popped with the set: the same low acquire is clean now.
  OptiLock after;
  after.WithLock(&arr[0], [] {});
  EXPECT_EQ(MisuseCount(MisuseKind::kLockOrderInversion), 2u);
  for (auto& m : arr) {
    EXPECT_FALSE(m.IsLocked());
  }
}

// --- destructor poisoning of a member mid-episode ---------------------------

TEST_F(MultiLockTest, MemberDestroyedWhileSlowHeldIsCountedAndRecovered) {
  gosync::SetMaxProcs(1);  // slow path: the set is pessimistically held
  gosync::Mutex a;
  alignas(gosync::Mutex) unsigned char storage[sizeof(gosync::Mutex)];
  auto* b = new (storage) gosync::Mutex();
  OptiLock ol;
  ol.WithLocks({&a, b}, [&] {
    EXPECT_TRUE(ol.on_slow_path());
    // Destroying a held member mid-episode is the teardown misuse; the
    // destructor reports it and poisons the storage.
    b->~Mutex();
    EXPECT_EQ(MisuseCount(MisuseKind::kMutexDestroyedInUse), 1u);
    // Model the storage being reused by a recycled lock that is locked
    // again by the time the episode releases — the release must still
    // unlock the member slot cleanly.
    b = new (storage) gosync::Mutex();
    b->Lock();
  });
  EXPECT_EQ(MisuseCount(MisuseKind::kMutexDestroyedInUse), 1u);
  EXPECT_FALSE(a.IsLocked());
  EXPECT_FALSE(b->IsLocked());
  EXPECT_EQ(GlobalOptiStats().multilock_slow_acquires.load(), 1u);
  b->~Mutex();
}

TEST_F(MultiLockTest, MemberDestroyedMidFastEpisodeUnwindsWithoutCommit) {
  // Fast path: the member is only subscribed, not held, so its destruction
  // mid-episode is clean teardown — but the episode must NOT commit over
  // it. Unwinding out abandons the transaction with every buffered write
  // rolled back; the poisoned lock word left behind is what defeats any
  // episode still subscribed (word-level poison semantics are covered by
  // the swocc/simtm suites).
  gosync::Mutex a;
  alignas(gosync::Mutex) unsigned char storage[sizeof(gosync::Mutex)];
  auto* b = new (storage) gosync::Mutex();
  htm::Shared<int64_t> v(0);
  OptiLock ol;
  bool destroyed = false;
  EXPECT_THROW(ol.WithLocks({&a, b},
                            [&] {
                              v.Add(7);
                              if (!destroyed) {
                                destroyed = true;
                                b->~Mutex();
                              }
                              throw Boom();
                            }),
               Boom);
  EXPECT_EQ(v.Load(), 0);  // nothing committed over the dead member
  EXPECT_EQ(MisuseCount(MisuseKind::kMutexDestroyedInUse), 0u);
  EXPECT_EQ(GlobalOptiStats().unwind_cancels.load(), 1u);
  EXPECT_FALSE(a.IsLocked());
  // The surviving member is fully reusable.
  ol.WithLock(&a, [&] { v.Add(1); });
  EXPECT_EQ(v.Load(), 1);
}

// --- unlock-side misuse and mismatch ----------------------------------------

TEST_F(MultiLockTest, UnpairedSetUnlockIsCountOnlyRecovery) {
  OptiLock ol;
  ol.FastUnlockSet();  // no set episode in flight
  EXPECT_EQ(MisuseCount(MisuseKind::kUnpairedUnlock), 1u);
}

TEST_F(MultiLockTest, CrossThreadSetUnlockLeavesOwnersSetIntact) {
  gosync::SetMaxProcs(1);  // slow path: the hold set is real
  gosync::Mutex a, b;
  OptiLock ol;
  gosync::Mutex* set2[] = {&a, &b};
  OPTI_FAST_LOCK_SET(ol, set2, 2);
  EXPECT_TRUE(a.IsLocked() && b.IsLocked());
  std::thread foreign([&] { ol.FastUnlockSet(); });
  foreign.join();
  EXPECT_EQ(MisuseCount(MisuseKind::kCrossThreadUnlock), 1u);
  // The foreign unlock released nothing: the owner's set is intact...
  EXPECT_TRUE(a.IsLocked() && b.IsLocked());
  // ...and the owner's own unlock still works.
  ol.FastUnlockSet();
  EXPECT_FALSE(a.IsLocked() || b.IsLocked());
}

TEST_F(MultiLockTest, MismatchedValidatingUnlockRecoversViaSlowPath) {
  gosync::Mutex a, b, c;
  OptiLock ol;
  gosync::Mutex* declared[] = {&a, &b};
  OPTI_FAST_LOCK_SET(ol, declared, 2);
  // Fast path: the wrong-set unlock aborts the transaction (kMutexMismatch)
  // and the episode re-executes on the slow path, where the same wrong-set
  // unlock releases what the episode actually holds.
  gosync::Mutex* wrong[] = {&a, &c};
  ol.FastUnlockSet(wrong, 2);
  const auto& stats = GlobalOptiStats();
  EXPECT_EQ(stats.EpisodeAborts(htm::AbortCode::kMutexMismatch), 1u);
  EXPECT_GE(stats.mismatch_recoveries.load(), 1u);
  EXPECT_EQ(stats.multilock_slow_acquires.load(), 1u);
  EXPECT_FALSE(a.IsLocked() || b.IsLocked() || c.IsLocked());
  EXPECT_EQ(support::TotalMisuse(), 0u);  // mismatch is recovery, not misuse
}

// --- the perceptron's per-set throttle under set-abort storms --------------

// Publishes the fixture's config with the perceptron on, and returns the
// lock-set storm plan: every member subscription aborts.
htm::fault::FaultPlan PerceptronOnSetStorm() {
  OptiConfig cfg = GetOptiConfig();
  cfg.use_perceptron = true;
  cfg.backoff_base_pauses = 0;  // keep the storm fast
  PublishOptiConfig(cfg);
  htm::fault::FaultPlan plan;
  plan.WithRule(htm::fault::Site::kMultiLockSubscribe, 1.0,
                htm::AbortCode::kConflict);
  return plan;
}

// A stormed lock set goes to the sorted slow path after one exhausted
// episode, while a disjoint set at another call site keeps committing.
// (Sets of one size at one call site share a context cell, so the healthy
// set gets its own OptiLock.)
TEST_F(MultiLockTest, BreakerQuarantinesStormingLockSetOnly) {
  gosync::Mutex a, b, c, d;
  htm::fault::Arm(PerceptronOnSetStorm());
  OptiLock ol;
  auto storm_site = [&] { ol.WithLocks({&a, &b}, [] {}); };
  for (int i = 0; i < 4; ++i) {
    storm_site();
  }
  htm::fault::Disarm();
  const auto& stats = GlobalOptiStats();
  EXPECT_EQ(stats.htm_attempts.load(), 1u)
      << "only the first set episode may speculate";
  EXPECT_EQ(stats.perceptron_slow_decisions.load(), 3u);
  EXPECT_EQ(stats.multilock_slow_acquires.load(), 4u);

  OptiLock other_site;
  const void* ab[] = {&a, &b};
  const void* cd[] = {&c, &d};
  const Perceptron::Indices stormed = Perceptron::IndicesForSet(ab, 2, &ol);
  const Perceptron::Indices healthy =
      Perceptron::IndicesForSet(cd, 2, &other_site);
  ASSERT_NE(healthy.mutex_cell, stormed.mutex_cell);
  ASSERT_NE(healthy.context_cell, stormed.context_cell);
  const uint64_t fast_before = stats.multilock_fast_commits.load();
  other_site.WithLocks({&c, &d}, [] {});
  EXPECT_EQ(stats.multilock_fast_commits.load(), fast_before + 1);

  // The stormed set stays on the lock with the injector disarmed, until its
  // decay period ends.
  const uint64_t slow_before = stats.perceptron_slow_decisions.load();
  storm_site();
  EXPECT_EQ(stats.perceptron_slow_decisions.load(), slow_before + 1);
  EXPECT_FALSE(a.IsLocked() || b.IsLocked() || c.IsLocked() || d.IsLocked());
}

// Every set subscription refused: set episodes degrade to the sorted slow
// path after one exhausted episode, every increment lands, and the set
// elides again after the storm.
TEST_F(MultiLockTest, WatchdogHotDegradesSetEpisodesDuringStorm) {
  gosync::Mutex a, b;
  htm::Shared<int64_t> x(0), y(0);
  htm::fault::Arm(PerceptronOnSetStorm());
  OptiLock ol;
  auto transfer = [&] {
    ol.WithLocks({&a, &b}, [&] {
      x.Add(-1);
      y.Add(1);
    });
  };
  constexpr int kStorm = 40;
  for (int i = 0; i < kStorm; ++i) {
    transfer();
  }
  htm::fault::Disarm();
  const auto& stats = GlobalOptiStats();
  EXPECT_EQ(stats.htm_attempts.load(), 1u);
  EXPECT_EQ(stats.multilock_slow_acquires.load(), uint64_t{kStorm});

  // Storm over: the decay period ends and the set commits elided again.
  constexpr int kAfter = static_cast<int>(Perceptron::kDecayThreshold) + 20;
  for (int i = 0; i < kAfter; ++i) {
    transfer();
  }
  EXPECT_EQ(x.Load(), -(kStorm + kAfter));
  EXPECT_EQ(y.Load(), kStorm + kAfter);
  EXPECT_EQ(stats.multilock_fast_commits.load(),
            uint64_t{kStorm + kAfter - 1 - Perceptron::kDecayThreshold});
  EXPECT_EQ(stats.multilock_fast_commits.load() +
                stats.multilock_slow_acquires.load(),
            uint64_t{kStorm + kAfter});
}

// --- conservation oracle under concurrency ----------------------------------

TEST_F(MultiLockTest, ConcurrentTransfersConserveTotalExactly) {
  constexpr int kCells = 8;
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 4000;
  constexpr int64_t kInitial = 1000;
  struct alignas(64) Cell {
    gosync::Mutex mu;
    htm::Shared<int64_t> balance;
  };
  static Cell cells[kCells];  // static: addresses stable across death forks
  for (auto& c : cells) {
    c.balance.Store(kInitial);
  }
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([t] {
      gocc::SplitMix64 rng(0x5e7c0de + static_cast<uint64_t>(t));
      OptiLock ol;
      for (int op = 0; op < kOpsPerThread; ++op) {
        const auto i = static_cast<int>(rng.NextBelow(kCells));
        const auto j =
            static_cast<int>((i + 1 + rng.NextBelow(kCells - 1)) % kCells);
        const auto amount = static_cast<int64_t>(rng.NextBelow(10));
        ol.WithLocks({&cells[i].mu, &cells[j].mu}, [&] {
          cells[i].balance.Store(cells[i].balance.Load() - amount);
          cells[j].balance.Store(cells[j].balance.Load() + amount);
        });
      }
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  int64_t total = 0;
  for (auto& c : cells) {
    EXPECT_FALSE(c.mu.IsLocked());
    total += c.balance.Load();
  }
  EXPECT_EQ(total, kInitial * kCells);
  const auto& stats = GlobalOptiStats();
  const uint64_t episodes = stats.multilock_episodes.load();
  EXPECT_EQ(episodes,
            static_cast<uint64_t>(kThreads) * kOpsPerThread);
  // Every episode ended exactly one way.
  EXPECT_EQ(stats.multilock_fast_commits.load() +
                stats.multilock_slow_acquires.load(),
            episodes);
  EXPECT_EQ(support::TotalMisuse(), 0u);
}

}  // namespace
}  // namespace gocc::optilib
