// Software-OCC backend hardening (DESIGN.md §4.10): occ-word encoding and
// 31-bit version wraparound, reader-side poison detection, the
// validation-retry livelock guard, validation-failure storms sending the
// site to the lock until the perceptron's decay, writer-starvation
// pending-flag protocol, publish-window
// chaos (delayed unlock, version skew), and the invisible-read consistency
// property that makes elided read sections sound.
//
// The whole binary forces Backend::kSwOcc; the sim/RTM paths have their own
// suites. Chaos registrations additionally run the shared batteries under
// GOCC_BACKEND=swocc (tests/CMakeLists.txt).

#include <gtest/gtest.h>

#include <atomic>
#include <csetjmp>
#include <thread>
#include <vector>

#include "src/gosync/mutex.h"
#include "src/gosync/runtime.h"
#include "src/gosync/rwmutex.h"
#include "src/htm/config.h"
#include "src/htm/fault.h"
#include "src/htm/shared.h"
#include "src/htm/stats.h"
#include "src/htm/swocc.h"
#include "src/htm/tx.h"
#include "src/optilib/optilock.h"
#include "src/optilib/perceptron.h"
#include "src/support/misuse.h"
#include "tests/chaos_seed.h"

namespace gocc::optilib {
namespace {

using htm::fault::FaultPlan;
using htm::fault::Site;

class SwOccTest : public ::testing::Test {
 protected:
  void SetUp() override {
    htm::ForceSwOccBackend();
    htm::GlobalTxStats().Reset();
    htm::GlobalSwOccWordStats().Reset();
    PublishOptiConfig(OptiConfig{});
    GlobalOptiStats().Reset();
    GlobalPerceptron().Reset();
    ResetHardeningState();
    htm::fault::Disarm();
    htm::fault::GlobalFaultStats().Reset();
    support::ResetMisuseCounters();
    prev_policy_ = support::GetMisusePolicy();
    prev_procs_ = gosync::SetMaxProcs(4);
    seed_ = ChaosSeed();
  }
  void TearDown() override {
    htm::fault::Disarm();
    ResetHardeningState();
    support::SetMisusePolicy(prev_policy_);
    gosync::SetMaxProcs(prev_procs_);
  }

  int prev_procs_ = 1;
  support::MisusePolicy prev_policy_ = support::MisusePolicy::kAbortProcess;
  uint64_t seed_ = 1;
};

// --- occ-word encoding: 31-bit wraparound and poison distinctness ---

TEST_F(SwOccTest, VersionWrapsMod2e31AndNeverProducesPoison) {
  // Free word at the maximum version: the next acquisition wraps to 0.
  const uint64_t at_max = htm::kOccVersionMask << htm::kOccVersionShift;
  EXPECT_EQ(htm::OccVersion(at_max), htm::kOccVersionMask);
  const uint64_t wrapped = htm::OccAcquired(at_max);
  EXPECT_EQ(htm::OccVersion(wrapped), 0u);
  EXPECT_TRUE(htm::OccIsExclusive(wrapped));
  EXPECT_FALSE(htm::OccWriterPending(wrapped)) << "acquire clears pending";

  // No acquire transition can reach the poison pattern, and the bits above
  // the version field stay zero across the wrap (poison lives there).
  const uint64_t probes[] = {0, at_max, at_max | htm::kOccWriterPendingBit,
                             (htm::kOccVersionMask - 1)
                                 << htm::kOccVersionShift};
  for (uint64_t w : probes) {
    const uint64_t next = htm::OccAcquired(w);
    EXPECT_NE(next, htm::kOccPoison);
    EXPECT_EQ(next >> (htm::kOccVersionShift + htm::kOccVersionBits), 0u);
  }
  EXPECT_TRUE(htm::OccIsPoisoned(htm::kOccPoison));
  EXPECT_TRUE(htm::OccUnavailable(htm::kOccPoison))
      << "poison must read as held so subscribers never speculate on it";
}

TEST_F(SwOccTest, WordProtocolSurvivesWrapBoundary) {
  // Drive the real acquire/release protocol across the 2^31 boundary: the
  // word must stay live (flags coherent, high bits clear) on every step.
  std::atomic<uint64_t> word{(htm::kOccVersionMask - 1)
                             << htm::kOccVersionShift};
  const uint64_t expected_versions[] = {htm::kOccVersionMask, 0, 1, 2};
  for (uint64_t expected : expected_versions) {
    htm::OccWordAcquireExclusive(&word);
    uint64_t held = word.load(std::memory_order_relaxed);
    EXPECT_TRUE(htm::OccIsExclusive(held));
    EXPECT_EQ(htm::OccVersion(held), expected);
    htm::OccWordReleaseExclusive(&word);
    uint64_t free_word = word.load(std::memory_order_relaxed);
    EXPECT_FALSE(htm::OccUnavailable(free_word));
    EXPECT_EQ(htm::OccVersion(free_word), expected);
    EXPECT_FALSE(htm::OccIsPoisoned(free_word));
  }
}

TEST_F(SwOccTest, SubscriptionDetectsWrappedVersionAba) {
  // ABA regression: an episode that subscribed just below the wrap boundary
  // must fail validation after the version passes through 0 — the full-word
  // compare sees value inequality even though the version is now "small".
  std::atomic<uint64_t> word{(htm::kOccVersionMask - 1)
                             << htm::kOccVersionShift};
  std::jmp_buf env;
  volatile bool mutated = false;
  auto status = GOCC_TX_BEGIN(env);
  if (status.started) {
    htm::TxSubscribe(&word);
    if (!mutated) {
      mutated = true;
      // Wrap the version across the boundary under the episode's feet.
      for (int i = 0; i < 3; ++i) {
        htm::OccWordAcquireExclusive(&word);
        htm::OccWordReleaseExclusive(&word);
      }
    }
    htm::TxCommit();
    ADD_FAILURE() << "commit must fail validation after the version wrap";
  } else {
    EXPECT_EQ(status.abort_code, htm::AbortCode::kOccValidateFail);
  }
  EXPECT_FALSE(htm::InTx());
}

// --- reader-side poison detection (misuse taxonomy) ---

TEST_F(SwOccTest, PoisonedWordReportsElidedUseAfterDestroy) {
  support::SetMisusePolicy(support::MisusePolicy::kRecoverAndCount);
  // Raw word carrying the destructor poison, as left behind by a tracked
  // mutex destroyed while an episode still holds a stale pointer to it. The
  // raw-transaction shape keeps the (freed, in real misuse) mutex object out
  // of the retry loop; the OptiLock-level recovery is covered by the misuse
  // suite's destroyed-mutex tests.
  std::atomic<uint64_t> word{htm::kOccPoison};
  std::jmp_buf env;
  auto status = GOCC_TX_BEGIN(env);
  if (status.started) {
    htm::TxSubscribe(&word);
    ADD_FAILURE() << "subscribing a poisoned word must abort the episode";
    htm::TxCommit();
  } else {
    EXPECT_EQ(status.abort_code, htm::AbortCode::kOccValidateFail);
  }
  EXPECT_EQ(
      support::MisuseCount(support::MisuseKind::kElidedUseAfterDestroy), 1u);
  EXPECT_FALSE(htm::InTx());
}

TEST_F(SwOccTest, MidEpisodePoisonDetectedAtValidation) {
  support::SetMisusePolicy(support::MisusePolicy::kRecoverAndCount);
  // The word turns to poison *after* subscription (destructor raced the
  // episode): the next validated read must classify it as use-after-destroy
  // rather than an ordinary conflict.
  std::atomic<uint64_t> word{0};
  htm::Shared<int64_t> data(7);
  std::jmp_buf env;
  volatile bool poisoned = false;
  auto status = GOCC_TX_BEGIN(env);
  if (status.started) {
    htm::TxSubscribe(&word);
    if (!poisoned) {
      poisoned = true;
      word.store(htm::kOccPoison, std::memory_order_release);
    }
    (void)data.Load();  // validated read: must notice the poison
    ADD_FAILURE() << "validated read of a poisoned subscription must abort";
    htm::TxCommit();
  } else {
    EXPECT_EQ(status.abort_code, htm::AbortCode::kOccValidateFail);
  }
  EXPECT_EQ(
      support::MisuseCount(support::MisuseKind::kElidedUseAfterDestroy), 1u);
}

// --- livelock guard: bounded validation retries, then the real lock ---

TEST_F(SwOccTest, LivelockGuardBoundsValidationRetries) {
  OptiConfig cfg = GetOptiConfig();
  cfg.use_perceptron = false;
  PublishOptiConfig(cfg);

  FaultPlan plan;
  plan.seed = seed_;
  plan.WithRule(Site::kCommit, 1.0, htm::AbortCode::kOccValidateFail);
  htm::fault::Arm(plan);

  gosync::Mutex mu;
  htm::Shared<int64_t> value(0);
  OptiLock ol;
  ol.WithLock(&mu, [&] { value.Add(1); });
  htm::fault::Disarm();

  // 1 initial attempt + OptiLock::kOccMaxRetries (4) retries, each behind
  // a jittered backoff, then the episode pins itself to the lock and
  // completes there: the budget is a hard bound, not a hint.
  EXPECT_EQ(value.Load(), 1);
  const auto& stats = GlobalOptiStats();
  EXPECT_EQ(stats.EpisodeAborts(htm::AbortCode::kOccValidateFail), 5u);
  EXPECT_EQ(stats.backoff_waits.load(), 4u);
  EXPECT_EQ(stats.slow_acquires.load(), 1u);
  EXPECT_EQ(stats.occ_fallbacks.load(), 1u);
  EXPECT_EQ(stats.fast_commits.load(), 0u);
}

// --- validation-failure storm: the site goes to the lock, then recovers ---

TEST_F(SwOccTest, ValidationStormTripsBreakerAndRecovers) {
  // OptiLock::kOccMaxRetries (4): 5 validation failures exhaust one
  // episode.
  FaultPlan plan;
  plan.seed = seed_;
  plan.WithRule(Site::kCommit, 1.0, htm::AbortCode::kOccValidateFail);
  htm::fault::Arm(plan);

  gosync::Mutex mu;
  htm::Shared<int64_t> value(0);
  OptiLock ol;
  for (int i = 0; i < 8; ++i) {
    ol.WithLock(&mu, [&] { value.Add(1); });
  }
  htm::fault::Disarm();

  const auto& stats = GlobalOptiStats();
  EXPECT_EQ(value.Load(), 8);
  // One exhausted validation budget (1 + 4 tries, each penalized at double
  // weight) sends the site to the lock: the other seven episodes are
  // perceptron slow decisions and never speculate.
  EXPECT_EQ(stats.htm_attempts.load(), 1u + 4u);
  EXPECT_EQ(stats.perceptron_slow_decisions.load(), 7u);
  EXPECT_EQ(stats.slow_acquires.load(), 8u);
  EXPECT_EQ(stats.occ_fallbacks.load(), 1u);
  EXPECT_EQ(stats.EpisodeAborts(htm::AbortCode::kOccValidateFail), 1u + 4u);
  EXPECT_EQ(htm::fault::GlobalFaultStats()
                .injected_by_site[static_cast<int>(Site::kCommit)]
                .load(),
            1u + 4u);

  // Storm over: the site stays on the lock until its decay period ends,
  // then commits fast again — validation storms throttle, they do not
  // strand.
  int after = 0;
  while (stats.perceptron_resets.load() == 0 &&
         after < 2 * static_cast<int>(Perceptron::kDecayThreshold)) {
    ol.WithLock(&mu, [&] { value.Add(1); });
    ++after;
  }
  EXPECT_EQ(stats.perceptron_resets.load(), 1u);
  EXPECT_EQ(stats.htm_attempts.load(), 1u + 4u)
      << "no re-probe before kDecayThreshold slow decisions";
  const uint64_t fast_before = stats.fast_commits.load();
  ol.WithLock(&mu, [&] { value.Add(1); });
  EXPECT_EQ(stats.fast_commits.load(), fast_before + 1);
  EXPECT_EQ(value.Load(), 8 + after + 1);
}

// --- writer starvation: the pending flag stops the commit stream ---

TEST_F(SwOccTest, StarvedWriterRaisesPendingFlagAndWins) {
  // A pessimistic acquirer spinning on a word held exclusive past the
  // starvation threshold raises the pending flag; OCC episodes then treat
  // the word as held, and the acquirer's eventual CAS clears the flag.
  std::atomic<uint64_t> word{htm::OccAcquired(0)};  // exclusive, version 1
  auto& wstats = htm::GlobalSwOccWordStats();
  std::thread writer([&] { htm::OccWordAcquireExclusive(&word); });
  while (wstats.writer_pending_sets.load(std::memory_order_relaxed) == 0) {
    std::this_thread::yield();
  }
  uint64_t starved = word.load(std::memory_order_relaxed);
  EXPECT_TRUE(htm::OccWriterPending(starved));
  EXPECT_TRUE(htm::OccUnavailable(starved))
      << "OCC subscribers must see a pending word as held";
  // Hand the word over (an OCC committer's release preserves the flag).
  word.fetch_sub(htm::kOccExclusiveBit, std::memory_order_release);
  writer.join();

  const uint64_t won = word.load(std::memory_order_relaxed);
  EXPECT_TRUE(htm::OccIsExclusive(won));
  EXPECT_FALSE(htm::OccWriterPending(won)) << "the acquirer IS the writer";
  EXPECT_EQ(htm::OccVersion(won), 2u);
  EXPECT_GE(wstats.writer_waits.load(), 1u);
  EXPECT_GE(wstats.writer_pending_sets.load(), 1u);
  htm::OccWordReleaseExclusive(&word);
  EXPECT_FALSE(htm::OccUnavailable(word.load(std::memory_order_relaxed)));
}

// --- publish-window chaos: version skew and delayed unlock ---

TEST_F(SwOccTest, PublishVersionSkewTolerated) {
  OptiConfig cfg = GetOptiConfig();
  cfg.use_perceptron = false;
  PublishOptiConfig(cfg);
  FaultPlan plan;
  plan.seed = seed_;
  plan.WithRule(Site::kOccPublish, 1.0);  // every release skips a version
  htm::fault::Arm(plan);

  gosync::Mutex mu;
  htm::Shared<int64_t> value(0);
  OptiLock ol;
  for (int i = 0; i < 8; ++i) {
    ol.WithLock(&mu, [&] { value.Add(1); });
  }
  htm::fault::Disarm();

  // Nothing downstream may assume version continuity: every commit still
  // lands, later episodes subscribe the skewed word and commit, and the
  // pessimistic path still acquires it.
  EXPECT_EQ(value.Load(), 8);
  EXPECT_EQ(GlobalOptiStats().fast_commits.load(), 8u);
  const htm::TxStats& tx = htm::GlobalTxStats();
  EXPECT_EQ(tx.commits.load() - tx.read_only_commits.load(), 8u)
      << "every writing commit published through the word";
  ol.WithLock(&mu, [&] { value.Add(1); });
  EXPECT_EQ(value.Load(), 9);
  mu.Lock();
  mu.Unlock();
}

TEST_F(SwOccTest, DelayedPublishStallIsBoundedAndCounted) {
  OptiConfig cfg = GetOptiConfig();
  cfg.use_perceptron = false;
  PublishOptiConfig(cfg);
  FaultPlan plan;
  plan.seed = seed_;
  plan.WithStallAt(Site::kOccPublish, 1.0, 64);
  htm::fault::Arm(plan);

  gosync::Mutex mu;
  htm::Shared<int64_t> value(0);
  OptiLock ol;
  for (int i = 0; i < 4; ++i) {
    ol.WithLock(&mu, [&] { value.Add(1); });
  }
  htm::fault::Disarm();
  EXPECT_EQ(value.Load(), 4);
  const auto& fstats = htm::fault::GlobalFaultStats();
  EXPECT_GE(fstats.stalls.load(), 4u);
  // Stall lengths are jittered within [pauses/2, pauses].
  EXPECT_GE(fstats.stall_pauses.load(), 4u * (64u / 2));
}

// --- the invisible-read property: torn reads never survive validation ---

TEST_F(SwOccTest, InvisibleReadsNeverObserveInFlightWriter) {
  // A pessimistic writer keeps two cells equal; elided read episodes load
  // both with invisible (unannounced) reads. Soundness of the whole backend
  // rests on the per-read validation catching every in-flight writer: a
  // reader that ever observes a != b has acted on a torn snapshot. Run
  // under TSan to also certify the fence/CAS choreography race-free.
  gosync::RWMutex rw;
  htm::Shared<int64_t> a(0);
  htm::Shared<int64_t> b(0);
  std::atomic<bool> done{false};
  std::atomic<uint64_t> torn{0};
  std::atomic<uint64_t> consistent{0};
  // Readers that have completed their first episode. The writer waits for
  // all of them: otherwise it can finish every iteration before a reader
  // is scheduled, and the readers then see `done` before any episode.
  std::atomic<int> readers_started{0};

  constexpr int kReaders = 2;
  constexpr int kWriterIters = 3000;
  std::thread writer([&] {
    while (readers_started.load(std::memory_order_acquire) < kReaders) {
      std::this_thread::yield();
    }
    for (int i = 1; i <= kWriterIters; ++i) {
      rw.Lock();
      a.Store(i);
      if ((i & 7) == 0) {
        std::this_thread::yield();  // widen the a != b window
      }
      b.Store(i);
      rw.Unlock();
    }
    done.store(true, std::memory_order_release);
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      OptiLock ol;
      bool started = false;
      while (!done.load(std::memory_order_acquire)) {
        int64_t seen_a = 0;
        int64_t seen_b = 0;
        ol.WithRLock(&rw, [&] {
          seen_a = a.Load();
          seen_b = b.Load();
        });
        if (seen_a != seen_b) {
          torn.fetch_add(1, std::memory_order_relaxed);
        } else {
          consistent.fetch_add(1, std::memory_order_relaxed);
        }
        if (!started) {
          started = true;
          readers_started.fetch_add(1, std::memory_order_release);
        }
      }
    });
  }
  writer.join();
  for (std::thread& t : readers) {
    t.join();
  }

  EXPECT_EQ(torn.load(), 0u)
      << "an invisible read of an in-flight writer survived validation";
  EXPECT_GE(consistent.load(), 1u);
  // The writer's final state is visible through a fresh elided read.
  OptiLock ol;
  int64_t final_a = 0;
  ol.WithRLock(&rw, [&] { final_a = a.Load(); });
  EXPECT_EQ(final_a, kWriterIters);
}

}  // namespace
}  // namespace gocc::optilib
