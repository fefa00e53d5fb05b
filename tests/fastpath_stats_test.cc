// Fast-path bookkeeping invariants for the sharded-stats runtime (see
// DESIGN.md "fast-path cost model"):
//
//   1. Episode conservation: every FastLock/FastUnlock episode ends exactly
//      one way, so fast_commits + nested_fast_commits + slow_acquires equals
//      the number of completed episodes — single-threaded, multi-threaded,
//      and under chaos-seeded fault injection (the seed battery re-runs this
//      binary, `ctest -L chaos`).
//   2. Reset hygiene: OptiStats::Reset() + ResetHardeningState() leave no
//      residue in any thread's stat shard; identical back-to-back runs
//      produce identical counters.
//   3. Decay isolation: a site sent to the lock re-probes only after its
//      own Perceptron::kDecayThreshold slow decisions, never earlier, while
//      another thread runs episodes at another call site.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
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

using htm::fault::FaultPlan;
using htm::fault::Site;

uint64_t ChaosSeed() {
  const char* env = std::getenv("GOCC_CHAOS_SEED");
  if (env != nullptr && *env != '\0') {
    return static_cast<uint64_t>(std::strtoull(env, nullptr, 0));
  }
  return 1;
}

uint64_t EpisodeSum() {
  OptiStats& s = GlobalOptiStats();
  return s.fast_commits.load(std::memory_order_relaxed) +
         s.nested_fast_commits.load(std::memory_order_relaxed) +
         s.slow_acquires.load(std::memory_order_relaxed);
}

class FastPathStatsTest : public ::testing::Test {
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

// --- 1. Episode conservation -----------------------------------------------

TEST_F(FastPathStatsTest, ConservationSingleThread) {
  gosync::Mutex mu;
  htm::Shared<uint64_t> value{0};
  constexpr int kEpisodes = 2000;
  OptiLock ol;
  for (int i = 0; i < kEpisodes; ++i) {
    ol.WithLock(&mu, [&] { value.Add(1); });
  }
  EXPECT_EQ(value.LoadRelaxed(), static_cast<uint64_t>(kEpisodes));
  EXPECT_EQ(EpisodeSum(), static_cast<uint64_t>(kEpisodes));
}

TEST_F(FastPathStatsTest, ConservationMultiThreadDisjointAndContended) {
  // Disjoint (mutex, counter) slots exercise the pure fast path; one shared
  // hot lock forces real contention, aborts, retries, and slow acquires.
  constexpr int kThreads = 8;
  constexpr int kPerThread = 3000;
  struct Slot {
    gosync::Mutex mu;
    htm::Shared<uint64_t> value{0};
  };
  std::vector<Slot> slots(kThreads);
  Slot hot;

  // Completed-episode count, kept by each thread in plain (non-rolled-back)
  // memory exactly like the stat shards, then summed after the join.
  std::vector<uint64_t> completed(kThreads, 0);

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Slot& mine = slots[static_cast<size_t>(t)];
      OptiLock ol;
      for (int i = 0; i < kPerThread; ++i) {
        if (i % 4 == 3) {
          ol.WithLock(&hot.mu, [&] { hot.value.Add(1); });
        } else {
          ol.WithLock(&mine.mu, [&] { mine.value.Add(1); });
        }
        ++completed[static_cast<size_t>(t)];
      }
    });
  }
  for (std::thread& th : threads) {
    th.join();
  }

  uint64_t total = 0;
  for (uint64_t c : completed) {
    total += c;
  }
  ASSERT_EQ(total, static_cast<uint64_t>(kThreads) * kPerThread);

  uint64_t expected_value = 0;
  for (Slot& s : slots) {
    expected_value += s.value.LoadRelaxed();
  }
  expected_value += hot.value.LoadRelaxed();
  EXPECT_EQ(expected_value, total);  // no lost updates
  EXPECT_EQ(EpisodeSum(), total);    // no lost or double-counted episodes
}

TEST_F(FastPathStatsTest, ConservationUnderChaosInjection) {
  // Spurious aborts at every site plus a schedule burst: episodes must still
  // balance exactly, whatever mix of retries and fallbacks the seed drives.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 1500;

  OptiConfig cfg = GetOptiConfig();
  cfg.conflict_retries = 2;
  cfg.backoff_base_pauses = 4;
  cfg.backoff_cap_pauses = 32;
  PublishOptiConfig(cfg);

  FaultPlan plan;
  plan.seed = seed_;
  plan.WithRule(Site::kLoad, 0.02, htm::AbortCode::kConflict);
  plan.WithRule(Site::kCommit, 0.05, htm::AbortCode::kConflict);
  plan.WithRule(Site::kBegin, 0.02, htm::AbortCode::kSpurious);
  plan.AbortNext(Site::kStore, 50, htm::AbortCode::kCapacity, 100);
  htm::fault::Arm(plan);

  struct Slot {
    gosync::Mutex mu;
    htm::Shared<uint64_t> value{0};
  };
  std::vector<Slot> slots(kThreads);
  std::atomic<uint64_t> completed{0};

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Slot& mine = slots[static_cast<size_t>(t)];
      OptiLock ol;
      uint64_t done = 0;
      for (int i = 0; i < kPerThread; ++i) {
        ol.WithLock(&mine.mu, [&] { mine.value.Add(1); });
        ++done;
      }
      completed.fetch_add(done, std::memory_order_relaxed);
    });
  }
  for (std::thread& th : threads) {
    th.join();
  }
  htm::fault::Disarm();

  const uint64_t total = completed.load(std::memory_order_relaxed);
  ASSERT_EQ(total, static_cast<uint64_t>(kThreads) * kPerThread);
  uint64_t sum = 0;
  for (Slot& s : slots) {
    sum += s.value.LoadRelaxed();
  }
  EXPECT_EQ(sum, total);
  EXPECT_EQ(EpisodeSum(), total);
}

TEST_F(FastPathStatsTest, ConservationWithNestedEpisodes) {
  // A nested elided section counts one nested_fast_commit per *completed*
  // inner FastUnlock — the same granularity the test's own counter sees —
  // so conservation holds even when an outer abort re-executes the body.
  gosync::Mutex outer_mu;
  gosync::Mutex inner_mu;
  htm::Shared<uint64_t> value{0};
  constexpr int kEpisodes = 1000;
  uint64_t completed = 0;  // plain memory: survives SimTM rollback
  OptiLock outer;
  for (int i = 0; i < kEpisodes; ++i) {
    outer.WithLock(&outer_mu, [&] {
      OptiLock inner;
      inner.WithLock(&inner_mu, [&] { value.Add(1); });
      ++completed;
    });
    ++completed;
  }
  EXPECT_EQ(EpisodeSum(), completed);
}

// --- 2. Reset hygiene -------------------------------------------------------

TEST_F(FastPathStatsTest, ResetClearsAllShardsAndClockResidue) {
  gosync::Mutex mu;
  htm::Shared<uint64_t> value{0};

  // Touch the runtime from several threads so multiple shards exist before
  // the reset. Exited threads retire their shards (counts fold into the
  // retired accumulator), so the live shard count tracks peak concurrency,
  // not total threads ever.
  const uint64_t retired_before = GlobalOptiStats().RetiredShardTotal();
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      OptiLock ol;
      for (int i = 0; i < 200; ++i) {
        ol.WithLock(&mu, [&] { value.Add(1); });
      }
    });
  }
  for (std::thread& th : threads) {
    th.join();
  }
  ASSERT_GT(EpisodeSum(), 0u);
  ASSERT_GE(GlobalOptiStats().ShardCount(), 1u);
  ASSERT_GE(GlobalOptiStats().RetiredShardTotal(), retired_before + 4);

  GlobalOptiStats().Reset();
  htm::GlobalTxStats().Reset();
  ResetHardeningState();

  EXPECT_EQ(EpisodeSum(), 0u);
  EXPECT_EQ(GlobalOptiStats().htm_attempts.load(std::memory_order_relaxed),
            0u);
  EXPECT_EQ(htm::GlobalTxStats().begins.load(std::memory_order_relaxed), 0u);
  EXPECT_EQ(htm::GlobalTxStats().TotalAborts(), 0u);
}

TEST_F(FastPathStatsTest, BackToBackRunsStartIdentical) {
  // The same single-threaded workload, run twice with a full reset between,
  // must produce byte-identical counters — any stale shard slot or cached
  // verdict from run 1 would skew run 2.
  gosync::Mutex mu;
  htm::Shared<uint64_t> value{0};
  auto run = [&] {
    OptiLock ol;
    for (int i = 0; i < 500; ++i) {
      ol.WithLock(&mu, [&] { value.Add(1); });
    }
  };

  auto reset_all = [&] {
    GlobalOptiStats().Reset();
    htm::GlobalTxStats().Reset();
    GlobalPerceptron().Reset();
    ResetHardeningState();
    value.StoreRelaxedInit(0);
  };

  run();
  const std::string first_opti = GlobalOptiStats().ToString();
  const std::string first_tx = htm::GlobalTxStats().ToString();

  reset_all();
  run();
  EXPECT_EQ(GlobalOptiStats().ToString(), first_opti);
  EXPECT_EQ(htm::GlobalTxStats().ToString(), first_tx);
}

// ToString prints the per-member multi-lock abort histogram that /metrics
// exports, one figure per sorted member position.
TEST_F(FastPathStatsTest, ToStringPrintsMultiLockMemberHistogram) {
  GlobalOptiStats().multilock_abort_member[3].fetch_add(
      2, std::memory_order_relaxed);
  const std::string text = GlobalOptiStats().ToString();
  EXPECT_NE(text.find("abort_member=[0 0 0 2 0 0 0 0]"), std::string::npos)
      << text;
}

// --- 3. Decay isolation across call sites -----------------------------------

// A second call site — its own OptiLock and mutex, heap-allocated so the
// helper thread can run it — sharing neither perceptron cell with (mu, ol):
// its training and slow streaks are independent of theirs.
struct OtherSite {
  std::unique_ptr<gosync::Mutex> mu;
  std::unique_ptr<OptiLock> ol;
};

OtherSite DisjointSite(gosync::Mutex& mu, OptiLock& ol,
                       std::vector<OtherSite>* rejected) {
  const Perceptron::Indices base = Perceptron::IndicesFor(&mu, &ol);
  while (true) {
    OtherSite site{std::make_unique<gosync::Mutex>(),
                   std::make_unique<OptiLock>()};
    const Perceptron::Indices idx =
        Perceptron::IndicesFor(site.mu.get(), site.ol.get());
    if (idx.mutex_cell != base.mutex_cell &&
        idx.context_cell != base.context_cell) {
      return site;
    }
    rejected->push_back(std::move(site));  // keep the address out of reuse
  }
}

// Runs episodes at (mu, ol) until one commits, and returns how many took the
// slow path first (bounded, so a site that never re-probes fails the test
// instead of hanging it).
int SlowEpisodesBeforeFirstCommit(OptiLock& ol, gosync::Mutex& mu) {
  constexpr int kBound = 2 * static_cast<int>(Perceptron::kDecayThreshold);
  for (int slow = 0; slow < kBound; ++slow) {
    bool slow_path = true;
    ol.WithLock(&mu, [&] { slow_path = ol.on_slow_path(); });
    if (!slow_path) {
      return slow;
    }
  }
  return kBound;
}

// Sends (mu, ol) to the lock: with no retry budget, one injected begin
// abort exhausts the episode and penalizes both of the site's cells.
void StormOneEpisode(OptiLock& ol, gosync::Mutex& mu, uint64_t seed) {
  FaultPlan plan;
  plan.seed = seed;
  plan.AbortNext(Site::kBegin, 1, htm::AbortCode::kConflict);
  htm::fault::Arm(plan);
  ol.WithLock(&mu, [] {});
  htm::fault::Disarm();
}

// The stormed site re-probes only after its own kDecayThreshold slow
// decisions, while a healthy site on another thread commits throughout
// (its commits reward only its own cells).
TEST_F(FastPathStatsTest, BreakerCooldownNeverEndsEarlyUnderBatchedClock) {
  OptiConfig cfg = GetOptiConfig();
  cfg.conflict_retries = 0;
  PublishOptiConfig(cfg);

  gosync::Mutex mu;
  OptiLock ol;
  std::vector<OtherSite> rejected;
  OtherSite other = DisjointSite(mu, ol, &rejected);
  StormOneEpisode(ol, mu, seed_);
  ASSERT_EQ(GlobalOptiStats().slow_acquires.load(std::memory_order_relaxed),
            1u);

  std::atomic<bool> done{false};
  std::atomic<uint64_t> helper_episodes{0};
  std::thread helper([&] {
    while (!done.load(std::memory_order_acquire)) {
      other.ol->WithLock(other.mu.get(), [] {});
      helper_episodes.fetch_add(1, std::memory_order_release);
    }
  });
  while (helper_episodes.load(std::memory_order_acquire) == 0) {
    std::this_thread::yield();  // the helper is running before main starts
  }
  const int slow = SlowEpisodesBeforeFirstCommit(ol, mu);
  done.store(true, std::memory_order_release);
  helper.join();

  EXPECT_EQ(slow, static_cast<int>(Perceptron::kDecayThreshold))
      << "the stormed site re-probed before its decay period ended";
  EXPECT_EQ(GlobalOptiStats().perceptron_resets.load(), 1u);
  EXPECT_EQ(GlobalOptiStats().fast_commits.load(),
            helper_episodes.load() + 1);
  EXPECT_EQ(GlobalOptiStats().perceptron_slow_decisions.load(),
            uint64_t{Perceptron::kDecayThreshold})
      << "the healthy site never decided slow";
}

// Two sites sent to the lock at once, one per thread: each re-probes after
// exactly its own kDecayThreshold slow decisions — the other thread's slow
// decisions at another call site neither shorten nor stretch its period.
TEST_F(FastPathStatsTest, WatchdogCooldownNeverEndsEarlyUnderBatchedClock) {
  OptiConfig cfg = GetOptiConfig();
  cfg.conflict_retries = 0;
  PublishOptiConfig(cfg);

  gosync::Mutex mu;
  OptiLock ol;
  std::vector<OtherSite> rejected;
  OtherSite other = DisjointSite(mu, ol, &rejected);
  StormOneEpisode(ol, mu, seed_);
  StormOneEpisode(*other.ol, *other.mu, seed_);
  ASSERT_EQ(GlobalOptiStats().slow_acquires.load(std::memory_order_relaxed),
            2u);
  ASSERT_EQ(GlobalOptiStats().fast_commits.load(std::memory_order_relaxed),
            0u);

  int helper_slow = -1;
  std::thread helper([&] {
    helper_slow = SlowEpisodesBeforeFirstCommit(*other.ol, *other.mu);
  });
  const int slow = SlowEpisodesBeforeFirstCommit(ol, mu);
  helper.join();

  EXPECT_EQ(slow, static_cast<int>(Perceptron::kDecayThreshold));
  EXPECT_EQ(helper_slow, static_cast<int>(Perceptron::kDecayThreshold));
  EXPECT_EQ(GlobalOptiStats().perceptron_resets.load(), 2u);
}

}  // namespace
}  // namespace gocc::optilib
