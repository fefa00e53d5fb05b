// OptiLock end-to-end: elision fast path, slow-path fallback and interop,
// mismatch recovery, nesting, perceptron gating, single-P bypass, and the
// live config store.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "src/gosync/mutex.h"
#include "src/gosync/runtime.h"
#include "src/gosync/rwmutex.h"
#include "src/htm/config.h"
#include "src/htm/shared.h"
#include "src/htm/stats.h"
#include "src/obs/recorder.h"
#include "src/optilib/optilock.h"

namespace gocc::optilib {
namespace {

class OptiLockTest : public ::testing::Test {
 protected:
  void SetUp() override {
    htm::ForceSimBackend();
    htm::GlobalTxStats().Reset();
    PublishOptiConfig(OptiConfig{});
    GlobalOptiStats().Reset();
    GlobalPerceptron().Reset();
    prev_procs_ = gosync::SetMaxProcs(4);
  }
  void TearDown() override { gosync::SetMaxProcs(prev_procs_); }

  int prev_procs_ = 1;
};

TEST_F(OptiLockTest, FastPathCommitsOnFreeMutex) {
  gosync::Mutex mu;
  htm::Shared<int64_t> value(0);
  OptiLock ol;
  ol.WithLock(&mu, [&] { value.Add(1); });
  EXPECT_EQ(value.Load(), 1);
  EXPECT_FALSE(mu.IsLocked());
  EXPECT_EQ(GlobalOptiStats().fast_commits.load(), 1u);
  EXPECT_EQ(GlobalOptiStats().slow_acquires.load(), 0u);
}

TEST_F(OptiLockTest, MacroApiTextualShape) {
  gosync::Mutex mu;
  htm::Shared<int64_t> value(0);
  OptiLock optiLock1;
  OPTI_FAST_LOCK(optiLock1, &mu);
  value.Add(5);
  optiLock1.FastUnlock(&mu);
  EXPECT_EQ(value.Load(), 5);
  EXPECT_EQ(GlobalOptiStats().fast_commits.load(), 1u);
}

TEST_F(OptiLockTest, SingleProcBypassUsesLock) {
  gosync::SetMaxProcs(1);
  gosync::Mutex mu;
  htm::Shared<int64_t> value(0);
  OptiLock ol;
  ol.WithLock(&mu, [&] { value.Add(1); });
  EXPECT_EQ(value.Load(), 1);
  EXPECT_EQ(GlobalOptiStats().single_proc_bypasses.load(), 1u);
  EXPECT_EQ(GlobalOptiStats().slow_acquires.load(), 1u);
  EXPECT_EQ(GlobalOptiStats().htm_attempts.load(), 0u);
}

TEST_F(OptiLockTest, ElidedCriticalSectionsExcludeEachOther) {
  gosync::Mutex mu;
  htm::Shared<int64_t> counter(0);
  constexpr int kThreads = 4;
  constexpr int kIters = 20000;
  std::vector<std::thread> threads;
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
  EXPECT_EQ(counter.Load(), kThreads * kIters);
}

// Interoperability (§4): some critical sections on a mutex are transformed,
// others still use Lock()/Unlock() directly; mutual exclusion must hold
// across the mix.
TEST_F(OptiLockTest, FastAndSlowPathsInteroperate) {
  gosync::Mutex mu;
  htm::Shared<int64_t> counter(0);
  constexpr int kIters = 20000;

  std::thread elided([&] {
    OptiLock ol;
    for (int i = 0; i < kIters; ++i) {
      ol.WithLock(&mu, [&] { counter.Add(1); });
    }
  });
  std::thread pessimistic([&] {
    for (int i = 0; i < kIters; ++i) {
      mu.Lock();
      counter.Add(1);  // non-tx strongly-atomic RMW under the real lock
      mu.Unlock();
    }
  });
  elided.join();
  pessimistic.join();
  EXPECT_EQ(counter.Load(), 2 * kIters);
}

TEST_F(OptiLockTest, LockHeldAtFastLockFallsBackAndCompletes) {
  gosync::Mutex mu;
  htm::Shared<int64_t> value(0);
  mu.Lock();
  std::thread contender([&] {
    OptiLock ol;
    ol.WithLock(&mu, [&] { value.Add(1); });
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  mu.Unlock();
  contender.join();
  EXPECT_EQ(value.Load(), 1);
  EXPECT_FALSE(mu.IsLocked());
}

// Hand-over-hand pairing (§5.2.3, Appendix C): the transformer may pair
// b.Lock() with a.Unlock(). FastUnlock detects the mismatch, aborts the
// transaction, and the episode re-executes on the slow path — behaviourally
// identical to the untransformed program.
TEST_F(OptiLockTest, MutexMismatchRecoversViaSlowPath) {
  gosync::Mutex a;
  gosync::Mutex b;
  htm::Shared<int64_t> value(0);

  a.Lock();  // outer (untransformed) lock of the hand-over-hand pattern
  OptiLock ol;
  OPTI_FAST_LOCK(ol, &b);  // transformed inner pair: FastLock(b) ...
  value.Add(1);
  ol.FastUnlock(&a);  // ... FastUnlock(a) — mismatched on purpose
  b.Unlock();         // outer pattern's remaining unlock (untransformed)

  EXPECT_EQ(value.Load(), 1);
  EXPECT_FALSE(a.IsLocked());
  EXPECT_FALSE(b.IsLocked());
  EXPECT_EQ(GlobalOptiStats().mismatch_recoveries.load(), 1u);
  EXPECT_GE(GlobalOptiStats().slow_acquires.load(), 1u);
  EXPECT_EQ(htm::GlobalTxStats().Aborts(htm::AbortCode::kMutexMismatch), 1u);
}

TEST_F(OptiLockTest, NestedElisionCommitsAtOutermost) {
  gosync::Mutex outer;
  gosync::Mutex inner;
  htm::Shared<int64_t> value(0);
  OptiLock ol_outer;
  OptiLock ol_inner;
  ol_outer.WithLock(&outer, [&] {
    value.Add(1);
    ol_inner.WithLock(&inner, [&] { value.Add(10); });
    value.Add(100);
  });
  EXPECT_EQ(value.Load(), 111);
  EXPECT_EQ(GlobalOptiStats().fast_commits.load(), 1u);
  EXPECT_EQ(GlobalOptiStats().nested_fast_commits.load(), 1u);
  EXPECT_FALSE(outer.IsLocked());
  EXPECT_FALSE(inner.IsLocked());
}

// A third party holds the inner lock throughout. Every attempt of the
// elided outer episode aborts with LockHeld at the nested subscription, so
// the outer spends its kMaxAttempts retries and takes its lock; the inner
// episode, now outside any transaction, spends its own budget the same way
// and blocks on the inner lock until the holder lets go.
TEST_F(OptiLockTest, NestedWithHeldInnerLockAbortsAndRecovers) {
  gosync::Mutex outer;
  gosync::Mutex inner;
  htm::Shared<int64_t> value(0);

  inner.Lock();  // a third party holds the inner lock
  std::thread worker([&] {
    OptiLock ol_outer;
    OptiLock ol_inner;
    ol_outer.WithLock(&outer, [&] {
      value.Add(1);
      ol_inner.WithLock(&inner, [&] { value.Add(10); });
    });
  });
  // Release only once both episodes have gone to the lock, so every
  // attempt met the held lock and the counts below are exact.
  while (GlobalOptiStats().slow_acquires.load() < 2) {
    std::this_thread::yield();
  }
  inner.Unlock();
  worker.join();
  EXPECT_EQ(value.Load(), 11);
  EXPECT_FALSE(outer.IsLocked());
  EXPECT_FALSE(inner.IsLocked());
  // Each episode: one attempt plus kMaxAttempts retries, all LockHeld.
  const uint64_t tries = OptiLock::kMaxAttempts + 1;
  const auto& stats = GlobalOptiStats();
  EXPECT_EQ(stats.EpisodeAborts(htm::AbortCode::kLockHeld), 2 * tries);
  EXPECT_EQ(stats.htm_attempts.load(), 2 * tries);
  EXPECT_EQ(stats.slow_acquires.load(), 2u);
  EXPECT_EQ(stats.fast_commits.load(), 0u);
}

// A nested episode subsumed into an enclosing SimTM transaction skips the
// decision, so it checks its target's eligibility itself: an untracked
// inner mutex aborts the nest once (kExplicit), the outer episode degrades
// to its lock, and the inner section then takes its own lock.
TEST_F(OptiLockTest, NestedUntrackedMutexAbortsTheNestOnceAndRunsLocked) {
  gosync::Mutex outer;
  gosync::Mutex inner(gosync::ElisionTracking::kDisabled);
  htm::Shared<int64_t> value(0);
  std::atomic<int> inner_runs{0};
  std::atomic<bool> both_held{false};
  OptiLock ol_outer;
  OptiLock ol_inner;
  ol_outer.WithLock(&outer, [&] {
    value.Add(1);
    ol_inner.WithLock(&inner, [&] {
      value.Add(10);
      inner_runs.fetch_add(1);
      both_held.store(outer.IsLocked() && inner.IsLocked());
    });
    value.Add(100);
  });
  EXPECT_EQ(value.Load(), 111);
  EXPECT_EQ(inner_runs.load(), 1);
  EXPECT_TRUE(both_held.load());
  EXPECT_FALSE(outer.IsLocked());
  EXPECT_FALSE(inner.IsLocked());
  const auto& stats = GlobalOptiStats();
  EXPECT_EQ(stats.EpisodeAborts(htm::AbortCode::kExplicit), 1u);
  EXPECT_EQ(htm::GlobalTxStats().Aborts(htm::AbortCode::kExplicit), 1u);
  EXPECT_EQ(stats.htm_attempts.load(), 1u);
  EXPECT_EQ(stats.slow_acquires.load(), 2u);
  EXPECT_EQ(stats.fast_commits.load(), 0u);
}

// The same when the nested episode is a lock set with one untracked member:
// the set cannot be validated, so the nest aborts once and both sections
// run under their locks.
TEST_F(OptiLockTest, NestedSetWithUntrackedMemberAbortsTheNestOnceAndRunsLocked) {
  gosync::Mutex outer;
  gosync::Mutex tracked;
  gosync::Mutex untracked(gosync::ElisionTracking::kDisabled);
  htm::Shared<int64_t> value(0);
  std::atomic<int> inner_runs{0};
  std::atomic<bool> all_held{false};
  OptiLock ol_outer;
  OptiLock ol_inner;
  ol_outer.WithLock(&outer, [&] {
    value.Add(1);
    ol_inner.WithLocks({&tracked, &untracked}, [&] {
      value.Add(10);
      inner_runs.fetch_add(1);
      all_held.store(outer.IsLocked() && tracked.IsLocked() &&
                     untracked.IsLocked());
    });
    value.Add(100);
  });
  EXPECT_EQ(value.Load(), 111);
  EXPECT_EQ(inner_runs.load(), 1);
  EXPECT_TRUE(all_held.load());
  EXPECT_FALSE(outer.IsLocked());
  EXPECT_FALSE(tracked.IsLocked());
  EXPECT_FALSE(untracked.IsLocked());
  const auto& stats = GlobalOptiStats();
  EXPECT_EQ(stats.EpisodeAborts(htm::AbortCode::kExplicit), 1u);
  EXPECT_EQ(htm::GlobalTxStats().Aborts(htm::AbortCode::kExplicit), 1u);
  EXPECT_EQ(stats.htm_attempts.load(), 1u);
  EXPECT_EQ(stats.slow_acquires.load(), 2u);
  EXPECT_EQ(stats.fast_commits.load(), 0u);
}

// One cell per 64-B line, one line past the write capacity: a critical
// section that writes them all overflows it on every elided attempt.
struct alignas(64) Line {
  htm::Shared<int64_t> cell;
};
std::vector<std::unique_ptr<Line>> CapacityHostileLines() {
  std::vector<std::unique_ptr<Line>> lines;
  for (size_t i = 0; i < htm::kWriteCapacityLines + 1; ++i) {
    lines.push_back(std::make_unique<Line>());
  }
  return lines;
}

// An HTM-hostile critical section (capacity overflow on every attempt) must
// converge to the slow path via the perceptron instead of thrashing.
TEST_F(OptiLockTest, PerceptronLearnsToAvoidHostileCriticalSection) {
  gosync::Mutex mu;
  const std::vector<std::unique_ptr<Line>> lines = CapacityHostileLines();

  OptiLock ol;  // one static call site: a stable perceptron context feature
  constexpr int kEpisodes = 100;
  for (int e = 0; e < kEpisodes; ++e) {
    ol.WithLock(&mu, [&] {
      for (auto& line : lines) {
        line->cell.Add(1);
      }
    });
  }
  for (auto& line : lines) {
    EXPECT_EQ(line->cell.Load(), kEpisodes);
  }
  const auto& stats = GlobalOptiStats();
  EXPECT_GT(stats.perceptron_slow_decisions.load(), 90u)
      << "perceptron should route almost all episodes to the lock";
  EXPECT_LT(stats.htm_attempts.load(), 10u)
      << "HTM attempts must stop after a few failures";
  EXPECT_GT(htm::GlobalTxStats().Aborts(htm::AbortCode::kCapacity), 0u);
}

TEST_F(OptiLockTest, NoPerceptronKeepsAttemptingHtm) {
  OptiConfig cfg = GetOptiConfig();
  cfg.use_perceptron = false;
  PublishOptiConfig(cfg);
  gosync::Mutex mu;
  const std::vector<std::unique_ptr<Line>> lines = CapacityHostileLines();
  OptiLock ol;
  constexpr int kEpisodes = 50;
  for (int e = 0; e < kEpisodes; ++e) {
    ol.WithLock(&mu, [&] {
      for (auto& line : lines) {
        line->cell.Add(1);
      }
    });
  }
  for (auto& line : lines) {
    EXPECT_EQ(line->cell.Load(), kEpisodes);
  }
  EXPECT_GE(GlobalOptiStats().htm_attempts.load(),
            static_cast<uint64_t>(kEpisodes))
      << "without the perceptron every episode retries HTM";
  EXPECT_GE(htm::GlobalTxStats().Aborts(htm::AbortCode::kCapacity),
            static_cast<uint64_t>(kEpisodes));
}

TEST_F(OptiLockTest, RWMutexReadElisionAllowsParallelReaders) {
  gosync::RWMutex rw;
  htm::Shared<int64_t> data(42);
  constexpr int kThreads = 4;
  constexpr int kIters = 10000;
  std::atomic<bool> wrong{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      OptiLock ol;
      for (int i = 0; i < kIters; ++i) {
        int64_t seen = 0;
        ol.WithRLock(&rw, [&] { seen = data.Load(); });
        if (seen != 42) {
          wrong.store(true);
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_FALSE(wrong.load());
  // Read-only elisions must commit on the fast path in the common case.
  EXPECT_GT(GlobalOptiStats().fast_commits.load(),
            static_cast<uint64_t>(kThreads) * kIters / 2);
}

TEST_F(OptiLockTest, ElidedReadersInteroperateWithSlowWriter) {
  gosync::RWMutex rw;
  htm::Shared<int64_t> a(0);
  htm::Shared<int64_t> b(0);
  std::atomic<bool> torn{false};
  std::atomic<bool> stop{false};

  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      OptiLock ol;
      while (!stop.load(std::memory_order_relaxed)) {
        int64_t x = 0;
        int64_t y = 0;
        ol.WithRLock(&rw, [&] {
          x = a.Load();
          y = b.Load();
        });
        if (x != y) {
          torn.store(true);  // writer updates a and b together under Lock()
        }
      }
    });
  }
  std::thread writer([&] {
    for (int i = 1; i <= 3000; ++i) {
      rw.Lock();
      a.Store(i);
      b.Store(i);
      rw.Unlock();
    }
    stop.store(true);
  });
  writer.join();
  for (auto& th : readers) {
    th.join();
  }
  EXPECT_FALSE(torn.load());
  EXPECT_EQ(a.Load(), 3000);
  EXPECT_EQ(b.Load(), 3000);
}

TEST_F(OptiLockTest, RWMutexWriteElision) {
  gosync::RWMutex rw;
  htm::Shared<int64_t> counter(0);
  constexpr int kThreads = 4;
  constexpr int kIters = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      OptiLock ol;
      for (int i = 0; i < kIters; ++i) {
        ol.WithWLock(&rw, [&] { counter.Add(1); });
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(counter.Load(), kThreads * kIters);
}

// A pessimistic RLock/RUnlock moves only readerCount, and elided readers
// subscribe the writer-maintained version word instead, so a slow reader
// whose whole section falls inside an elided reader's must not abort it.
TEST_F(OptiLockTest, SlowReaderDoesNotAbortElidedReader) {
  gosync::RWMutex rw;
  htm::Shared<int64_t> a(1);
  htm::Shared<int64_t> b(2);
  std::atomic<int> phase{0};  // 1: elided reader has read a; 2: slow done
  std::thread slow_reader([&] {
    while (phase.load() != 1) {
      std::this_thread::yield();
    }
    rw.RLock();
    EXPECT_EQ(a.Load(), 1);
    rw.RUnlock();
    phase.store(2);
  });
  OptiLock ol;
  int64_t x = 0;
  int64_t y = 0;
  ol.WithRLock(&rw, [&] {
    x = a.Load();
    if (phase.load() == 0) {
      phase.store(1);
      while (phase.load() != 2) {
        std::this_thread::yield();
      }
    }
    y = b.Load();
  });
  slow_reader.join();
  EXPECT_EQ(x, 1);
  EXPECT_EQ(y, 2);
  EXPECT_EQ(GlobalOptiStats().htm_attempts.load(), 1u);
  EXPECT_EQ(GlobalOptiStats().fast_commits.load(), 1u);
  EXPECT_EQ(htm::GlobalTxStats().Aborts(htm::AbortCode::kConflict), 0u);
}

// Elided RWMutex write sections beside pessimistic readers: slow readers
// never touch the version word, so a write episode must validate
// readerCount by value, or it could publish between a reader's two loads.
TEST_F(OptiLockTest, ElidedWritersInteroperateWithSlowReaders) {
  gosync::RWMutex rw;
  htm::Shared<int64_t> a(0);
  htm::Shared<int64_t> b(0);
  std::atomic<bool> torn{false};
  std::atomic<bool> stop{false};
  constexpr int kIters = 20000;

  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        rw.RLock();
        const int64_t x = a.Load();
        const int64_t y = b.Load();
        rw.RUnlock();
        if (x != y) {
          torn.store(true);  // writers update a and b in one section
        }
      }
    });
  }
  std::vector<std::thread> writers;
  for (int t = 0; t < 2; ++t) {
    writers.emplace_back([&] {
      OptiLock ol;
      for (int i = 0; i < kIters; ++i) {
        ol.WithWLock(&rw, [&] {
          a.Add(1);
          b.Add(1);
        });
      }
    });
  }
  for (auto& th : writers) {
    th.join();
  }
  stop.store(true);
  for (auto& th : readers) {
    th.join();
  }
  EXPECT_FALSE(torn.load());
  EXPECT_EQ(a.Load(), 2 * kIters);
  EXPECT_EQ(b.Load(), 2 * kIters);
}

TEST_F(OptiLockTest, SlowPathFlagVisibleInsideCriticalSection) {
  gosync::SetMaxProcs(1);  // force slow path
  gosync::Mutex mu;
  OptiLock ol;
  bool observed_slow = false;
  ol.WithLock(&mu, [&] { observed_slow = ol.on_slow_path(); });
  EXPECT_TRUE(observed_slow);
}

TEST_F(OptiLockTest, GetOptiConfigReturnsPublishedConfig) {
  OptiConfig c;
  c.use_perceptron = false;
  c.single_proc_bypass = false;
  c.trace_episodes = !OptiConfig{}.trace_episodes;
  c.conflict_retries = 2;
  c.backoff_base_pauses = 4;
  c.backoff_cap_pauses = 4096;  // the largest value any caller sets
  PublishOptiConfig(c);
  const OptiConfig got = GetOptiConfig();
  EXPECT_EQ(got.use_perceptron, c.use_perceptron);
  EXPECT_EQ(got.single_proc_bypass, c.single_proc_bypass);
  EXPECT_EQ(got.trace_episodes, c.trace_episodes);
  EXPECT_EQ(got.conflict_retries, c.conflict_retries);
  EXPECT_EQ(got.backoff_base_pauses, c.backoff_base_pauses);
  EXPECT_EQ(got.backoff_cap_pauses, c.backoff_cap_pauses);

  // An OptiLock keeps its config snapshot until the decision epoch moves:
  // a publish from another thread must reach its very next episode.
  OptiConfig untraced;
  untraced.trace_episodes = false;
  PublishOptiConfig(untraced);
  gosync::Mutex mu;
  OptiLock ol;
  ol.WithLock(&mu, [] {});  // snapshot taken, untraced
  obs::DiscardTrace();
  std::thread publisher([] {
    OptiConfig traced = GetOptiConfig();
    traced.trace_episodes = true;
    PublishOptiConfig(traced);
  });
  publisher.join();
  ol.WithLock(&mu, [] {});
  EXPECT_EQ(obs::DrainTrace().size(), 1u);
}

// Stress sweep across thread counts: exact counting under mixed conflicts.
class OptiLockStress : public OptiLockTest,
                       public ::testing::WithParamInterface<int> {};

TEST_P(OptiLockStress, ExactCountingUnderContention) {
  const int threads = GetParam();
  gosync::Mutex mu;
  htm::Shared<int64_t> counter(0);
  constexpr int kIters = 8000;
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&] {
      OptiLock ol;
      for (int i = 0; i < kIters; ++i) {
        ol.WithLock(&mu, [&] { counter.Add(1); });
      }
    });
  }
  for (auto& th : workers) {
    th.join();
  }
  EXPECT_EQ(counter.Load(), static_cast<int64_t>(threads) * kIters);
}

INSTANTIATE_TEST_SUITE_P(Threads, OptiLockStress,
                         ::testing::Values(1, 2, 4, 8));

}  // namespace
}  // namespace gocc::optilib
