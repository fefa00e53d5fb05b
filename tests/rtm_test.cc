// Real Intel RTM backend tests. Every test skips cleanly on hosts where
// the probe fails (no TSX, microcode-disabled, or always-aborting VMs);
// where it passes, the identical optiLib logic that the SimTM suite
// validates runs on hardware transactions.

#include <gtest/gtest.h>

#include <atomic>
#include <csetjmp>
#include <stdexcept>
#include <thread>
#include <vector>

#include "src/gosync/mutex.h"
#include "src/gosync/runtime.h"
#include "src/gosync/rwmutex.h"
#include "src/htm/config.h"
#include "src/htm/shared.h"
#include "src/htm/stats.h"
#include "src/htm/tx.h"
#include "src/optilib/optilock.h"

namespace gocc::htm {
namespace {

class RtmTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!EnableRtmIfSupported()) {
      GTEST_SKIP() << "RTM unavailable on this host";
    }
    GlobalTxStats().Reset();
    optilib::PublishOptiConfig(optilib::OptiConfig{});
    optilib::GlobalOptiStats().Reset();
    optilib::GlobalPerceptron().Reset();
    prev_procs_ = gosync::SetMaxProcs(4);
  }
  void TearDown() override {
    gosync::SetMaxProcs(prev_procs_);
    ForceSimBackend();
  }
  int prev_procs_ = 1;
};

TEST_F(RtmTest, HardwareTransactionCommits) {
  Shared<int64_t> cell(0);
  std::jmp_buf env;
  volatile int attempts = 0;  // lives across the setjmp checkpoint
  while (attempts < 1000000) {
    BeginStatus status = GOCC_TX_BEGIN(env);
    if (status.started) {
      cell.Store(7);
      TxCommit();
      break;
    }
    attempts = attempts + 1;
  }
  if (attempts >= 1000000) {
    // TSX is best-effort: on a loaded single-CPU host timer interrupts can
    // abort every attempt for a while. The probe in SetUp saw commits, so
    // the hardware works; just skip under this scheduling.
    GTEST_SKIP() << "no commit under current system load";
  }
  EXPECT_EQ(cell.Load(), 7);
}

TEST_F(RtmTest, ExplicitAbortRollsBackHardwareState) {
  Shared<int64_t> cell(1);
  std::jmp_buf env;
  // Explicit aborts are deterministic: the first started transaction
  // aborts with our code.
  volatile int tries = 0;  // lives across the setjmp checkpoint
  while (tries < 1000) {
    BeginStatus status = GOCC_TX_BEGIN(env);
    if (status.started) {
      cell.Store(99);
      TxAbort(AbortCode::kLockHeld);
    }
    if (status.abort_code == AbortCode::kLockHeld) {
      EXPECT_EQ(cell.Load(), 1) << "hardware must roll the store back";
      return;
    }
    // Spurious abort before our explicit one: retry.
    tries = tries + 1;
  }
  GTEST_SKIP() << "could not start a transaction (all spurious aborts)";
}

TEST_F(RtmTest, OptiLockElidesOnHardware) {
  gosync::Mutex mu;
  Shared<int64_t> counter(0);
  optilib::OptiLock opti_lock;
  constexpr int kIters = 10000;
  for (int i = 0; i < kIters; ++i) {
    opti_lock.WithLock(&mu, [&] { counter.Add(1); });
  }
  EXPECT_EQ(counter.Load(), kIters);  // correctness is unconditional
  // Elision quality: normally the overwhelming majority commits on the
  // fast path, but best-effort TSX degrades under system load; only assess
  // quality when the environment allowed a meaningful fraction through.
  uint64_t fast = optilib::GlobalOptiStats().fast_commits.load();
  if (fast < static_cast<uint64_t>(kIters) / 2) {
    GTEST_SKIP() << "host too loaded to assess elision rate (fast=" << fast
                 << "/" << kIters << ")";
  }
  EXPECT_GT(fast, static_cast<uint64_t>(kIters) / 2);
}

TEST_F(RtmTest, ConcurrentElisionCountsExactly) {
  gosync::Mutex mu;
  Shared<int64_t> counter(0);
  constexpr int kThreads = 4;
  constexpr int kIters = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      optilib::OptiLock opti_lock;
      for (int i = 0; i < kIters; ++i) {
        opti_lock.WithLock(&mu, [&] { counter.Add(1); });
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(counter.Load(), kThreads * kIters);
}

TEST_F(RtmTest, FastAndSlowPathsInteroperateOnHardware) {
  gosync::Mutex mu;
  Shared<int64_t> counter(0);
  constexpr int kIters = 20000;
  std::thread elided([&] {
    optilib::OptiLock opti_lock;
    for (int i = 0; i < kIters; ++i) {
      opti_lock.WithLock(&mu, [&] { counter.Add(1); });
    }
  });
  std::thread pessimistic([&] {
    for (int i = 0; i < kIters; ++i) {
      mu.Lock();
      counter.Add(1);
      mu.Unlock();
    }
  });
  elided.join();
  pessimistic.join();
  EXPECT_EQ(counter.Load(), 2 * kIters);
}

TEST_F(RtmTest, MismatchRecoveryOnHardware) {
  gosync::Mutex a;
  gosync::Mutex b;
  Shared<int64_t> value(0);
  a.Lock();
  optilib::OptiLock opti_lock;
  OPTI_FAST_LOCK(opti_lock, &b);
  value.Add(1);
  opti_lock.FastUnlock(&a);  // hand-over-hand mismatch
  b.Unlock();
  EXPECT_EQ(value.Load(), 1);
  EXPECT_FALSE(a.IsLocked());
  EXPECT_FALSE(b.IsLocked());
  if (optilib::GlobalOptiStats().mismatch_recoveries.load() == 0) {
    // A spurious abort before the subscription routes the episode to the
    // slow path, which is behaviourally identical to the untransformed
    // program (asserted above) but never *detects* the mismatch. Same
    // best-effort-TSX caveat as the commit tests.
    GTEST_SKIP() << "transaction never started under current system load";
  }
  EXPECT_GE(optilib::GlobalOptiStats().mismatch_recoveries.load(), 1u);
}

TEST_F(RtmTest, RWMutexReadElisionOnHardware) {
  gosync::RWMutex rw;
  Shared<int64_t> data(42);
  constexpr int kThreads = 4;
  constexpr int kIters = 10000;
  std::atomic<bool> wrong{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      optilib::OptiLock opti_lock;
      for (int i = 0; i < kIters; ++i) {
        int64_t seen = 0;
        opti_lock.WithRLock(&rw, [&] { seen = data.Load(); });
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
}

TEST_F(RtmTest, ThrowInsideWithLockUnwindsOnHardware) {
  // The unwind contract on hardware: a throw inside a hardware transaction
  // is itself an abort (the unwinder's first side effect rolls back to the
  // xbegin checkpoint), so the episode retries, exhausts its budget against
  // the deterministic re-throw, and lands on the slow path — the only place
  // the exception can actually escape. AbandonEpisode then releases the
  // real lock.
  gosync::Mutex mu;
  Shared<int64_t> value(0);
  optilib::OptiLock opti_lock;
  bool caught = false;
  try {
    opti_lock.WithLock(&mu, [&] {
      value.Add(1);
      throw std::runtime_error("boom");
    });
  } catch (const std::runtime_error&) {
    caught = true;
  }
  EXPECT_TRUE(caught);
  EXPECT_FALSE(mu.IsLocked());
  const auto& stats = optilib::GlobalOptiStats();
  // The escape point is the slow path, so the unwind is a slow unlock; the
  // hardware attempts before it aborted at the throw and were retried, not
  // cancelled.
  EXPECT_EQ(stats.unwind_slow_unlocks.load(), 1u);
  EXPECT_EQ(stats.unwind_cancels.load(), 0u);
  // Slow path writes directly; the aborted fast attempts left no trace.
  EXPECT_EQ(value.Load(), 1);

  // Lock and OptiLock both reusable afterwards.
  opti_lock.WithLock(&mu, [&] { value.Add(1); });
  EXPECT_EQ(value.Load(), 2);
}

}  // namespace
}  // namespace gocc::htm
