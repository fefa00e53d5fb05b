// Edge cases across the runtime: deep elision nesting, fault injection
// through OptiLock, writer pressure against elided readers, TryLock under
// contention, zero-iteration and degenerate shapes.

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
#include "src/optilib/optilock.h"

namespace gocc {
namespace {

class EdgeCaseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    htm::ForceSimBackend();
    htm::MutableConfig() = htm::TxConfig{};
    htm::GlobalTxStats().Reset();
    optilib::PublishOptiConfig(optilib::OptiConfig{});
    optilib::GlobalOptiStats().Reset();
    optilib::GlobalPerceptron().Reset();
    prev_procs_ = gosync::SetMaxProcs(4);
  }
  void TearDown() override { gosync::SetMaxProcs(prev_procs_); }
  int prev_procs_ = 1;
};

TEST_F(EdgeCaseTest, ThreeLevelNestedElisionCommitsOnce) {
  gosync::Mutex a;
  gosync::Mutex b;
  gosync::Mutex c;
  htm::Shared<int64_t> value(0);
  optilib::OptiLock ol1;
  optilib::OptiLock ol2;
  optilib::OptiLock ol3;
  ol1.WithLock(&a, [&] {
    value.Add(1);
    ol2.WithLock(&b, [&] {
      value.Add(10);
      ol3.WithLock(&c, [&] { value.Add(100); });
    });
  });
  EXPECT_EQ(value.Load(), 111);
  EXPECT_EQ(optilib::GlobalOptiStats().fast_commits.load(), 1u);
  EXPECT_EQ(optilib::GlobalOptiStats().nested_fast_commits.load(), 2u);
  EXPECT_FALSE(a.IsLocked());
  EXPECT_FALSE(b.IsLocked());
  EXPECT_FALSE(c.IsLocked());
}

TEST_F(EdgeCaseTest, SpuriousAbortsThroughOptiLockStayExact) {
  htm::MutableConfig().spurious_abort_probability = 0.2;
  gosync::Mutex mu;
  htm::Shared<int64_t> counter(0);
  constexpr int kThreads = 4;
  constexpr int kIters = 3000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      optilib::OptiLock ol;
      for (int i = 0; i < kIters; ++i) {
        ol.WithLock(&mu, [&] { counter.Add(1); });
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(counter.Load(), kThreads * kIters);
  EXPECT_GT(htm::GlobalTxStats().aborts_spurious.load(), 0u);
  EXPECT_GT(optilib::GlobalOptiStats().slow_acquires.load(), 0u)
      << "spurious aborts must fall back to the lock and still finish";
}

TEST_F(EdgeCaseTest, EmptyCriticalSectionElides) {
  gosync::Mutex mu;
  optilib::OptiLock ol;
  for (int i = 0; i < 100; ++i) {
    ol.WithLock(&mu, [] {});
  }
  EXPECT_EQ(optilib::GlobalOptiStats().fast_commits.load(), 100u);
  EXPECT_FALSE(mu.IsLocked());
}

TEST_F(EdgeCaseTest, ReuseOfOneOptiLockAcrossEpisodes) {
  gosync::Mutex a;
  gosync::Mutex b;
  htm::Shared<int64_t> value(0);
  optilib::OptiLock ol;
  // Sequential episodes on different mutexes through one OptiLock (the
  // transformed code reuses the function-local variable the same way).
  volatile int episodes = 0;  // lives across OPTI_FAST_LOCK's checkpoint
  while (episodes < 50) {
    ol.WithLock(&a, [&] { value.Add(1); });
    ol.WithLock(&b, [&] { value.Add(2); });
    OPTI_FAST_LOCK(ol, &a);
    value.Add(3);
    ol.FastUnlock(&a);
    episodes = episodes + 1;
  }
  EXPECT_EQ(value.Load(), 50 * 6);
}

TEST_F(EdgeCaseTest, WriterPressureAgainstElidedReadersMakesProgress) {
  gosync::RWMutex rw;
  htm::Shared<int64_t> data(0);
  std::atomic<bool> stop{false};
  std::atomic<int64_t> reads{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      optilib::OptiLock ol;
      while (!stop.load(std::memory_order_relaxed)) {
        ol.WithRLock(&rw, [&] { (void)data.Load(); });
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  // Wait until the readers are actually running (on a single-CPU host the
  // spawned threads may not be scheduled before this thread continues).
  while (reads.load(std::memory_order_relaxed) == 0) {
    std::this_thread::yield();
  }
  // A writer continuously takes the write lock; elided readers must keep
  // making progress (no livelock between subscription aborts and retries).
  for (int i = 1; i <= 2000; ++i) {
    rw.Lock();
    data.Store(i);
    rw.Unlock();
  }
  stop.store(true);
  for (auto& th : readers) {
    th.join();
  }
  EXPECT_EQ(data.Load(), 2000);
  EXPECT_GT(reads.load(), 0);
}

TEST_F(EdgeCaseTest, TryLockUnderContention) {
  gosync::Mutex mu;
  std::atomic<int> acquired{0};
  std::atomic<int> failed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 5000; ++i) {
        if (mu.TryLock()) {
          acquired.fetch_add(1);
          mu.Unlock();
        } else {
          failed.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(acquired.load() + failed.load(), 4 * 5000);
  EXPECT_GT(acquired.load(), 0);
  EXPECT_FALSE(mu.IsLocked());
}

TEST_F(EdgeCaseTest, PerceptronDecayRecoversAfterPhaseChange) {
  // Phase 1: capacity-hostile critical sections park the site on the lock.
  htm::MutableConfig().write_capacity_lines = 2;
  gosync::Mutex mu;
  struct alignas(64) Line {
    htm::Shared<int64_t> cell;
  };
  std::vector<std::unique_ptr<Line>> lines;
  for (int i = 0; i < 8; ++i) {
    lines.push_back(std::make_unique<Line>());
  }
  optilib::OptiLock ol;
  for (int e = 0; e < 50; ++e) {
    ol.WithLock(&mu, [&] {
      for (auto& line : lines) {
        line->cell.Add(1);
      }
    });
  }
  uint64_t attempts_after_phase1 =
      optilib::GlobalOptiStats().htm_attempts.load();

  // Phase 2: the workload becomes HTM-friendly; after ~kDecayThreshold
  // slow decisions the perceptron resets and re-probes HTM successfully.
  htm::MutableConfig().write_capacity_lines = 448;
  for (uint32_t e = 0; e < optilib::Perceptron::kDecayThreshold + 200; ++e) {
    ol.WithLock(&mu, [&] { lines[0]->cell.Add(1); });
  }
  EXPECT_GT(optilib::GlobalOptiStats().perceptron_resets.load(), 0u);
  EXPECT_GT(optilib::GlobalOptiStats().htm_attempts.load(),
            attempts_after_phase1)
      << "decay must re-probe HTM after the phase change";
  EXPECT_GT(optilib::GlobalOptiStats().fast_commits.load(), 0u);
}

TEST_F(EdgeCaseTest, ConflictRetryConfigRetriesBeforeFallback) {
  optilib::OptiConfig cfg = optilib::GetOptiConfig();
  cfg.conflict_retries = 5;
  cfg.use_perceptron = false;  // isolate the retry knob
  optilib::PublishOptiConfig(cfg);
  htm::MutableConfig().spurious_abort_probability = 0.9;
  gosync::Mutex mu;
  htm::Shared<int64_t> value(0);
  optilib::OptiLock ol;
  for (int i = 0; i < 200; ++i) {
    ol.WithLock(&mu, [&] { value.Add(1); });
  }
  EXPECT_EQ(value.Load(), 200);
  // With retries enabled, attempts exceed episodes noticeably.
  EXPECT_GT(htm::GlobalTxStats().begins.load(), 250u);
}

TEST_F(EdgeCaseTest, SharedCellStressAcrossManyStripes) {
  // Hammer many cells, each with its own version word, from elided
  // episodes on four threads.
  constexpr int kCells = 257;
  std::vector<std::unique_ptr<htm::Shared<int64_t>>> cells;
  for (int i = 0; i < kCells; ++i) {
    cells.push_back(std::make_unique<htm::Shared<int64_t>>(0));
  }
  gosync::Mutex mu;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      optilib::OptiLock ol;
      for (int i = 0; i < 4000; ++i) {
        size_t ix = static_cast<size_t>((i * 31 + t * 7) % kCells);
        ol.WithLock(&mu, [&] { cells[ix]->Add(1); });
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  int64_t total = 0;
  for (auto& cell : cells) {
    total += cell->Load();
  }
  EXPECT_EQ(total, 4 * 4000);
}

}  // namespace
}  // namespace gocc
