// Service-tier robustness suite (DESIGN.md §4.14): the sharded cache
// router's deadline shedding, admission control, hedged reads, and the
// per-shard health ladder — each mechanism pinned deterministically, plus
// the chaos "kill shard k" scenario the ISSUE's acceptance criterion names:
// storm one shard to death mid-run and assert the router keeps serving the
// survivors, conserves every request (sum of outcomes == requests issued),
// and recovers the quarantined shard through cooldown probes afterwards.
//
// Chaos reproduction: like the other fault-injection suites, randomized
// schedules derive from GOCC_CHAOS_SEED (default 1) and the fixture prints
// it; the chaos battery re-runs this binary under five seeds on both the
// SimTM and swocc backends (tests/CMakeLists.txt).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/gosync/runtime.h"
#include "src/htm/config.h"
#include "src/htm/fault.h"
#include "src/htm/stats.h"
#include "src/optilib/optilock.h"
#include "src/service/router.h"
#include "src/service/service.h"
#include "src/support/histogram.h"
#include "src/support/strings.h"
#include "src/workloads/policy.h"
#include "tests/chaos_seed.h"

namespace gocc::service {
namespace {

using htm::fault::FaultPlan;
using htm::fault::Site;

// Test config: every knob explicit, admission/hedging/deadlines
// individually disabled by the tests that isolate one mechanism. The
// enormous window tick keeps primed estimator samples from decaying
// mid-assertion; the decay test dials it down.
ServiceConfig TestConfig(int shards = 4) {
  ServiceConfig cfg;
  cfg.shards = shards;
  cfg.deadline_us = 0;
  cfg.queue_limit = 0;
  cfg.p99_shed_us = 0;
  cfg.retry_after_us = 200;
  cfg.hedge_us = 0;
  cfg.window_tick_us = 60'000'000;  // one tick for the whole test
  cfg.degrade_trips = 1;
  cfg.quarantine_trips = 3;
  cfg.probe_successes = 3;
  cfg.quarantine_cooldown_ms = 60'000;  // probes only via ForceProbe
  return cfg;
}

// Smallest key >= `from` that routes to `shard`.
template <typename Svc>
uint64_t KeyForShard(const Svc& svc, int shard, uint64_t from = 1) {
  uint64_t k = from;
  while (svc.ShardFor(k) != shard) {
    ++k;
  }
  return k;
}

class ServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    htm::ForceSoftwareBackend();
    htm::GlobalTxStats().Reset();
    optilib::PublishOptiConfig(optilib::OptiConfig{});
    optilib::GlobalOptiStats().Reset();
    optilib::GlobalPerceptron().Reset();
    optilib::ResetHardeningState();
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

using PessimisticService = CacheService<workloads::Pessimistic>;
using ElidedService = CacheService<workloads::Elided>;

TEST_F(ServiceTest, RoundTripConservesEveryRequest) {
  PessimisticService svc(TestConfig());
  constexpr int kKeys = 64;
  for (int k = 1; k <= kKeys; ++k) {
    RequestResult r = svc.Set(static_cast<uint64_t>(k), k * 10);
    EXPECT_EQ(r.outcome, Outcome::kOk);
  }
  for (int k = 1; k <= kKeys; ++k) {
    RequestResult r = svc.Get(static_cast<uint64_t>(k));
    EXPECT_EQ(r.outcome, Outcome::kOk);
    EXPECT_EQ(r.value, k * 10);
    EXPECT_FALSE(r.stale);
  }
  RequestResult miss = svc.Get(kKeys + 1000);
  EXPECT_EQ(miss.outcome, Outcome::kMiss);

  std::string why;
  EXPECT_TRUE(svc.stats().ConservationHolds(2 * kKeys + 1, &why)) << why;
  EXPECT_EQ(svc.stats().Count(Outcome::kOk), 2u * kKeys);
  EXPECT_EQ(svc.stats().Count(Outcome::kMiss), 1u);
}

TEST_F(ServiceTest, ConservationOracleDetectsImbalance) {
  ServiceStats stats;
  stats.Bump(Outcome::kOk);
  std::string why;
  EXPECT_FALSE(stats.ConservationHolds(0, &why));
  EXPECT_FALSE(why.empty());
  // stale reads can only be a subset of ok responses.
  stats.stale_reads.fetch_add(2);
  EXPECT_FALSE(stats.ConservationHolds(1, &why));
  EXPECT_NE(why.find("stale"), std::string::npos);
}

// More request threads than stats stripes, all running at once, so threads
// that share a stripe bump it concurrently; a third of them stop early and
// exit while the rest run.
TEST_F(ServiceTest, StripedStatsStayExactPastTheStripeCount) {
  constexpr int kThreads = 24;
  constexpr int kOpsPerThread = 10'000;
  constexpr uint64_t kKeySpace = 256;
  static_assert(kThreads > kStripes);

  PessimisticService svc(TestConfig());
  for (uint64_t k = 1; k <= kKeySpace; ++k) {
    ASSERT_EQ(svc.Set(k, static_cast<int64_t>(k)).outcome, Outcome::kOk);
  }
  svc.stats().Reset();

  std::atomic<uint64_t> ok{0};
  std::atomic<uint64_t> miss{0};
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      SplitMix64 rng(seed_ * 1000 + static_cast<uint64_t>(t));
      const int ops = t % 3 == 0 ? kOpsPerThread / 4 : kOpsPerThread;
      uint64_t my_ok = 0;
      uint64_t my_miss = 0;
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
        std::this_thread::yield();
      }
      for (int i = 0; i < ops; ++i) {
        // Keys past kKeySpace were never written: those Gets miss.
        const uint64_t key = 1 + rng.NextBelow(2 * kKeySpace);
        if (key <= kKeySpace && i % 10 == 0) {
          svc.Set(key, i);
        } else {
          svc.Get(key);
        }
        ++(key <= kKeySpace ? my_ok : my_miss);
      }
      ok.fetch_add(my_ok);
      miss.fetch_add(my_miss);
    });
  }
  for (auto& th : threads) {
    th.join();
  }

  const ServiceStats& st = svc.stats();
  const uint64_t issued = ok.load() + miss.load();
  EXPECT_EQ(issued, (kThreads - kThreads / 3) * uint64_t{kOpsPerThread} +
                        kThreads / 3 * uint64_t{kOpsPerThread / 4});
  std::string why;
  EXPECT_TRUE(st.ConservationHolds(issued, &why)) << why;
  EXPECT_EQ(st.TotalOutcomes(), issued);
  EXPECT_EQ(st.Count(Outcome::kOk), ok.load());
  EXPECT_EQ(st.Count(Outcome::kMiss), miss.load());
  // The exact format operators and logs parse.
  EXPECT_EQ(st.ToString(),
            StrFormat("svc{ok=%llu miss=%llu shed_deadline=0 shed_overload=0 "
                      "rejected_quarantine=0 failed=0 stale=0 "
                      "hedges{fired=0 won=0 dup=0} health{degrades=0 "
                      "quarantines=0 recoveries=0 probes=0 failures=0}}",
                      static_cast<unsigned long long>(ok.load()),
                      static_cast<unsigned long long>(miss.load())));

  // Reset at quiescence zeroes every stripe (the sums are of unsigned
  // stripes, so a zero sum means every stripe is zero), and counting
  // resumes from there.
  svc.stats().Reset();
  EXPECT_EQ(st.TotalOutcomes(), 0u);
  EXPECT_EQ(st.ToString(),
            "svc{ok=0 miss=0 shed_deadline=0 shed_overload=0 "
            "rejected_quarantine=0 failed=0 stale=0 hedges{fired=0 won=0 "
            "dup=0} health{degrades=0 quarantines=0 recoveries=0 probes=0 "
            "failures=0}}");

  // Two threads on one stripe, bumping it head to head: ordinals kStripes
  // apart share a stripe, so the first racer takes an ordinal, threads
  // that exit at once burn the next kStripes - 1, and the second racer
  // takes the one after. The racers spin rather than yield while they
  // wait, so the scheduler runs them on two CPUs.
  constexpr int kBumps = 4'000'000;
  std::atomic<int> claimed{0};
  std::atomic<bool> go{false};
  int stripe[2] = {-1, -1};
  auto racer = [&](int r) {
    stripe[r] = ThreadStripe();
    claimed.fetch_add(1);
    while (!go.load()) {
      gosync::CpuPause();
    }
    for (int i = 0; i < kBumps; ++i) {
      svc.stats().Bump(Outcome::kOk);
      svc.stats().stale_reads.fetch_add(1);
    }
  };
  std::thread first(racer, 0);
  while (claimed.load() < 1) {
    std::this_thread::yield();
  }
  for (int i = 1; i < kStripes; ++i) {
    std::thread([] { ThreadStripe(); }).join();
  }
  std::thread second(racer, 1);
  while (claimed.load() < 2) {
    std::this_thread::yield();
  }
  go.store(true);
  first.join();
  second.join();
  EXPECT_EQ(stripe[0], stripe[1]);
  EXPECT_TRUE(st.ConservationHolds(2 * uint64_t{kBumps}, &why)) << why;
  EXPECT_EQ(st.stale_reads.load(), 2 * uint64_t{kBumps});
}

TEST_F(ServiceTest, BlownBudgetShedsBeforeTheShardLock) {
  ServiceConfig cfg = TestConfig();
  cfg.deadline_us = 1000;  // 1 ms budget
  PessimisticService svc(cfg);
  svc.Set(1, 11);

  // Upstream already burned 5 ms of a 1 ms budget: shed pre-lock, no
  // critical-section work, counted at the dedicated shed counter.
  RequestResult r = svc.Get(1, /*elapsed_ns=*/5'000'000);
  EXPECT_EQ(r.outcome, Outcome::kShedDeadline);
  EXPECT_EQ(svc.stats().deadline_in_shard.load(), 1u);

  // A fresh request with the budget intact is served.
  r = svc.Get(1);
  EXPECT_EQ(r.outcome, Outcome::kOk);
  std::string why;
  EXPECT_TRUE(svc.stats().ConservationHolds(3, &why)) << why;
}

// The hints are jittered in [base, 2*base) and deterministic per thread:
// a fresh thread draws exactly the SplitMix64 stream keyed by the constant
// seed and its ordinal.
TEST_F(ServiceTest, RetryAfterJitterStaysInBounds) {
  ServiceConfig cfg = TestConfig();
  cfg.retry_after_us = 200;
  const uint64_t base = cfg.retry_after_us * 1000;
  constexpr int kDraws = 256;
  std::vector<uint64_t> got, want;
  std::thread([&] {
    SplitMix64 ref(kRetryAfterJitterSeed ^
                   SplitMix64(ThreadOrdinal() + 1).Next());
    for (int i = 0; i < kDraws; ++i) {
      got.push_back(RetryAfterJitterNs(cfg));
      want.push_back(base + ref.NextBelow(base));
    }
  }).join();
  EXPECT_EQ(got, want);
  std::set<uint64_t> distinct;
  for (uint64_t hint : got) {
    EXPECT_GE(hint, base);
    EXPECT_LT(hint, 2 * base);
    distinct.insert(hint);
  }
  // Jittered, not constant: a fixed hint would re-phase the herd.
  EXPECT_GT(distinct.size(), 8u);
}

// NowNs() runs on the obs tick counter: over a 25-ms sleep it stays within
// 1% of the steady clock, and on one thread it never steps back. Each end
// brackets the NowNs() read between two steady-clock reads, so a
// preemption between reads widens the allowed range instead of failing.
TEST_F(ServiceTest, NowNsTracksTheSteadyClockAndNeverStepsBack) {
  using Clock = std::chrono::steady_clock;
  PessimisticService svc(TestConfig());
  const auto s0 = Clock::now();
  const uint64_t n0 = svc.NowNs();
  const auto s0_end = Clock::now();
  std::this_thread::sleep_for(std::chrono::milliseconds(25));
  const auto s1 = Clock::now();
  const uint64_t n1 = svc.NowNs();
  const auto s1_end = Clock::now();
  const auto ns = [](Clock::duration d) {
    return static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(d).count());
  };
  const double elapsed = static_cast<double>(n1 - n0);
  EXPECT_GE(elapsed, 0.99 * ns(s1 - s0_end));
  EXPECT_LE(elapsed, 1.01 * ns(s1_end - s0));

  uint64_t prev = svc.NowNs();
  for (int i = 0; i < 1'000'000; ++i) {
    const uint64_t now = svc.NowNs();
    ASSERT_GE(now, prev) << "read " << i;
    prev = now;
  }
}

TEST_F(ServiceTest, WindowedP99BreachShedsWithJitteredRetryAfter) {
  ServiceConfig cfg = TestConfig();
  cfg.p99_shed_us = 1000;  // shed above 1 ms
  PessimisticService svc(cfg);
  svc.Set(1, 11);

  // The shard looks slow: 10 ms p99 in the live window.
  const int shard = svc.ShardFor(1);
  svc.PrimeShardLatency(shard, 10'000'000, 256);
  EXPECT_GT(svc.WindowP99(shard), cfg.p99_shed_us * 1000);

  RequestResult r = svc.Get(1);
  EXPECT_EQ(r.outcome, Outcome::kShedOverload);
  EXPECT_GE(r.retry_after_ns, cfg.retry_after_us * 1000);
  EXPECT_LT(r.retry_after_ns, 2 * cfg.retry_after_us * 1000);

  // Other shards are not implicated by this shard's tail.
  const uint64_t other_key = KeyForShard(svc, (shard + 1) % cfg.shards);
  EXPECT_NE(svc.Get(other_key).outcome, Outcome::kShedOverload);
}

TEST_F(ServiceTest, WindowedP99DecaysAcrossTicks) {
  ServiceConfig cfg = TestConfig();
  cfg.p99_shed_us = 1000;
  cfg.window_tick_us = 1000;  // 1 ms ticks so the estimator can age out
  PessimisticService svc(cfg);
  svc.Set(1, 11);
  const int shard = svc.ShardFor(1);
  svc.PrimeShardLatency(shard, 10'000'000, 256);
  EXPECT_GT(svc.WindowP99(shard), cfg.p99_shed_us * 1000);

  // Sleep past every live window (kWindows ticks); the next request's
  // window advance clears the stale tail and is admitted.
  std::this_thread::sleep_for(std::chrono::milliseconds(
      (support::WindowedPercentile::kWindows + 16)));
  RequestResult r = svc.Get(1);
  EXPECT_EQ(r.outcome, Outcome::kOk);
  EXPECT_EQ(svc.WindowP99(shard), 0u)
      << "aged-out samples must stop feeding the admission signal";
}

// One deterministic sample sequence, with tick advances, through the
// batched record path and through a reference estimator fed directly. A
// drain happens at every LatencyWindow::kBatch-th record on the recording
// thread and at every tick advance: there the cached p99 must equal the
// reference's, and in between it must hold the value of the last drain.
TEST_F(ServiceTest, BatchedEstimatorMatchesTheReferenceAtEveryDrain) {
  auto window = std::make_unique<LatencyWindow>();
  support::WindowedPercentile reference;
  SplitMix64 rng(seed_);
  uint64_t tick = 0;
  int since_drain = 0;
  uint64_t at_last_drain = 0;
  for (int i = 0; i < 6000; ++i) {
    if (rng.NextBelow(300) == 0) {
      // Forward by 1..kWindows+1 ticks, so some advances clear the ring.
      tick += 1 + rng.NextBelow(support::WindowedPercentile::kWindows + 1);
      window->Advance(tick);
      reference.Advance(tick);
      since_drain = 0;
      at_last_drain = reference.P99();
      ASSERT_EQ(window->P99(), at_last_drain) << "tick " << tick;
      window->Advance(tick);  // a stale tick neither drains nor rotates
    }
    // Fast samples, with every other thousand from a stalled shard.
    const uint64_t ns = (i / 1000) % 2 == 1
                            ? 1'000'000 + rng.NextBelow(9'000'000)
                            : 100 + rng.NextBelow(900);
    window->Record(ns);
    reference.Record(ns);
    if (++since_drain == LatencyWindow::kBatch) {
      since_drain = 0;
      at_last_drain = reference.P99();
    }
    ASSERT_EQ(window->P99(), at_last_drain) << "sample " << i;
  }
}

// The lag bound: a stalled shard's tail reaches the admission signal after
// at most kBatch records on the recording thread, or at the next tick,
// whichever comes first, including records other threads left behind.
TEST_F(ServiceTest, BatchedEstimatorLagIsOneBatchOrOneTick) {
  constexpr uint64_t kStall = 10'000'000;
  auto by_batch = std::make_unique<LatencyWindow>();
  for (int i = 1; i < LatencyWindow::kBatch; ++i) {
    by_batch->Record(kStall);
  }
  EXPECT_EQ(by_batch->P99(), 0u) << "drained before the batch filled";
  by_batch->Record(kStall);
  EXPECT_GT(by_batch->P99(), kStall / 2);

  auto by_tick = std::make_unique<LatencyWindow>();
  std::thread other([&] {
    for (int i = 0; i < 5; ++i) {
      by_tick->Record(kStall);
    }
  });
  other.join();
  EXPECT_EQ(by_tick->P99(), 0u);
  by_tick->Advance(1);
  EXPECT_GT(by_tick->P99(), kStall / 2)
      << "the tick drain must empty every stripe, not just the caller's";
}

TEST_F(ServiceTest, QueueDepthLimitShedsWhileShardIsStalled) {
  ServiceConfig cfg = TestConfig();
  cfg.queue_limit = 1;
  PessimisticService svc(cfg);
  const uint64_t key = KeyForShard(svc, 1);
  svc.Set(key, 7);

  // Stall shard 1's critical section: the writer below parks inside the
  // lock with queue_depth == 1 while the main thread's read arrives.
  FaultPlan plan;
  plan.seed = seed_;
  plan.only_shard = 1;
  plan.WithStallAt(Site::kShardStall, 1.0, /*pauses=*/5'000'000);
  htm::fault::Arm(plan);

  std::thread writer([&] { svc.Set(key, 8); });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (svc.QueueDepth(1) < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  ASSERT_GE(svc.QueueDepth(1), 1) << "writer never entered the shard";

  RequestResult r = svc.Get(key);
  EXPECT_EQ(r.outcome, Outcome::kShedOverload);
  EXPECT_GE(r.retry_after_ns, cfg.retry_after_us * 1000);

  writer.join();
  htm::fault::Disarm();
  EXPECT_GT(htm::fault::GlobalFaultStats().stalls.load(), 0u);
  std::string why;
  EXPECT_TRUE(svc.stats().ConservationHolds(3, &why)) << why;
}

// Below queue_limit live request threads no shard can hold queue_limit
// requests, so requests do not count themselves: a stalled writer leaves
// the depth at 0 and a read behind it is served, not shed. The limits
// derive from the live count, since the chaos battery runs every case in
// one process.
TEST_F(ServiceTest, QueueDepthStaysUncountedBelowTheLiveThreadLimit) {
  ThreadStripe();  // counts this thread, whatever ran before
  const int32_t live0 = LiveRequestThreads();
  ASSERT_GE(live0, 1);

  ServiceConfig cfg = TestConfig();
  cfg.queue_limit = static_cast<uint32_t>(live0) + 2;  // writer + 1 spare
  PessimisticService svc(cfg);
  const uint64_t key = KeyForShard(svc, 1);
  svc.Set(key, 7);

  FaultPlan plan;
  plan.seed = seed_;
  plan.only_shard = 1;
  plan.WithStallAt(Site::kShardStall, 1.0, /*pauses=*/5'000'000);
  htm::fault::Arm(plan);

  std::atomic<bool> writer_done{false};
  std::thread writer([&] {
    svc.Set(key, 8);
    writer_done.store(true);
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (htm::fault::GlobalFaultStats().stalls.load() < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  ASSERT_EQ(htm::fault::GlobalFaultStats().stalls.load(), 1u)
      << "writer never entered the shard";
  EXPECT_EQ(LiveRequestThreads(), live0 + 1);
  EXPECT_EQ(svc.QueueDepth(1), 0);
  EXPECT_FALSE(writer_done.load()) << "the stall ended before the check";

  // Only the writer stalls; the read waits for its lock and is served.
  htm::fault::Disarm();
  RequestResult r = svc.Get(key);
  EXPECT_EQ(r.outcome, Outcome::kOk);
  EXPECT_EQ(r.value, 8);

  writer.join();
  EXPECT_EQ(svc.QueueDepth(1), 0);
  EXPECT_EQ(LiveRequestThreads(), live0);
  std::string why;
  EXPECT_TRUE(svc.stats().ConservationHolds(3, &why)) << why;
}

// Once queue_limit request threads are alive every request counts itself:
// two stalled writers at limit 2 (this thread makes the count at least 3)
// put the depth at 2, and a read is shed.
TEST_F(ServiceTest, QueueDepthCountsOnceLiveThreadsReachTheLimit) {
  ServiceConfig cfg = TestConfig();
  cfg.queue_limit = 2;
  PessimisticService svc(cfg);
  const uint64_t key = KeyForShard(svc, 1);
  svc.Set(key, 7);
  const int32_t live0 = LiveRequestThreads();
  ASSERT_GE(live0, 1) << "this thread's request must count it";

  FaultPlan plan;
  plan.seed = seed_;
  plan.only_shard = 1;
  plan.WithStallAt(Site::kShardStall, 1.0, /*pauses=*/5'000'000);
  htm::fault::Arm(plan);

  std::thread writers[2];
  for (int w = 0; w < 2; ++w) {
    writers[w] = std::thread([&, w] { svc.Set(key, 8 + w); });
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (svc.QueueDepth(1) < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  ASSERT_EQ(svc.QueueDepth(1), 2) << "writers never both entered the shard";
  EXPECT_GE(LiveRequestThreads(), 2);

  RequestResult r = svc.Get(key);
  EXPECT_EQ(r.outcome, Outcome::kShedOverload);
  EXPECT_GE(r.retry_after_ns, cfg.retry_after_us * 1000);

  for (std::thread& w : writers) {
    w.join();
  }
  htm::fault::Disarm();
  EXPECT_EQ(svc.QueueDepth(1), 0) << "every increment has its decrement";
  EXPECT_EQ(LiveRequestThreads(), live0);
  std::string why;
  EXPECT_TRUE(svc.stats().ConservationHolds(4, &why)) << why;
  EXPECT_EQ(svc.stats().Count(Outcome::kShedOverload), 1u);
}

// A thread counts as live from its first request until it exits, and the
// count shrinks again as threads exit (thread ordinals never do).
TEST_F(ServiceTest, LiveRequestThreadsCountFromFirstRequestUntilExit) {
  PessimisticService svc(TestConfig());
  svc.Get(1);
  const int32_t live0 = LiveRequestThreads();
  const uint64_t ordinal0 = ThreadOrdinal();

  constexpr int kThreads = 6;
  std::atomic<int> requested{0};
  std::atomic<bool> release{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      svc.Get(2);
      requested.fetch_add(1);
      while (!release.load()) {
        std::this_thread::yield();
      }
    });
  }
  std::thread idle([&] {
    while (!release.load()) {
      std::this_thread::yield();
    }
  });
  while (requested.load() < kThreads) {
    std::this_thread::yield();
  }
  EXPECT_EQ(LiveRequestThreads(), live0 + kThreads)
      << "a thread that made no request is not a request thread";
  release.store(true);
  for (std::thread& t : threads) {
    t.join();
  }
  idle.join();
  EXPECT_EQ(LiveRequestThreads(), live0);

  std::thread([] { ThreadOrdinal(); }).join();
  EXPECT_EQ(LiveRequestThreads(), live0);
  EXPECT_EQ(ThreadOrdinal(), ordinal0);
}

TEST_F(ServiceTest, HedgeDuplicateIsSuppressedWhenPrimaryAnswers) {
  ServiceConfig cfg = TestConfig();
  cfg.hedge_us = 100;        // hedge when p99 > 100 us
  cfg.deadline_us = 100'000;  // ample budget: the primary should still win
  PessimisticService svc(cfg);
  svc.Set(1, 42);
  const int shard = svc.ShardFor(1);
  svc.PrimeShardLatency(shard, 200'000, 256);  // 200 us > hedge threshold

  RequestResult r = svc.Get(1);
  EXPECT_TRUE(r.hedged);
  EXPECT_EQ(r.outcome, Outcome::kOk);
  EXPECT_EQ(r.value, 42);
  EXPECT_FALSE(r.stale) << "primary answered in budget; hedge must lose";
  EXPECT_EQ(svc.stats().hedges_fired.load(), 1u);
  EXPECT_EQ(svc.stats().hedge_duplicates.load(), 1u);
  EXPECT_EQ(svc.stats().hedges_won.load(), 0u);
  std::string why;
  EXPECT_TRUE(svc.stats().ConservationHolds(2, &why)) << why;
}

TEST_F(ServiceTest, HedgeWinsWhenBudgetCannotAbsorbTheTail) {
  ServiceConfig cfg = TestConfig();
  cfg.hedge_us = 100;
  cfg.deadline_us = 1000;  // 1 ms budget vs a 50 ms estimated primary
  PessimisticService svc(cfg);
  svc.Set(1, 42);
  const int shard = svc.ShardFor(1);
  svc.PrimeShardLatency(shard, 50'000'000, 256);

  RequestResult r = svc.Get(1);
  EXPECT_TRUE(r.hedged);
  EXPECT_EQ(r.outcome, Outcome::kOk);
  EXPECT_EQ(r.value, 42) << "snapshot must remember the committed write";
  EXPECT_TRUE(r.stale);
  EXPECT_EQ(svc.stats().hedges_won.load(), 1u);
  EXPECT_EQ(svc.stats().hedge_duplicates.load(), 0u);
  EXPECT_EQ(svc.stats().stale_reads.load(), 1u);
  std::string why;
  EXPECT_TRUE(svc.stats().ConservationHolds(2, &why)) << why;
}

TEST_F(ServiceTest, HealthLadderEscalatesAndQuarantineServesStale) {
  PessimisticService svc(TestConfig());
  const uint64_t key = KeyForShard(svc, 2);
  svc.Set(key, 5);

  ShardHealth& health = svc.health(2);
  // degrade_trips = 1: first failure degrades...
  health.OnFailure();
  EXPECT_EQ(health.State(), ShardState::kDegraded);
  EXPECT_EQ(svc.stats().degrades.load(), 1u);
  // ...quarantine_trips = 3 more quarantine.
  health.OnFailure();
  health.OnFailure();
  EXPECT_EQ(health.State(), ShardState::kDegraded);
  health.OnFailure();
  EXPECT_EQ(health.State(), ShardState::kQuarantined);
  EXPECT_EQ(svc.stats().quarantines.load(), 1u);

  // Quarantined: reads come from the snapshot (stale), writes are rejected
  // with a retry hint, unknown keys miss.
  RequestResult r = svc.Get(key);
  EXPECT_EQ(r.outcome, Outcome::kOk);
  EXPECT_EQ(r.value, 5);
  EXPECT_TRUE(r.stale);
  r = svc.Set(key, 6);
  EXPECT_EQ(r.outcome, Outcome::kRejectedQuarantine);
  EXPECT_GE(r.retry_after_ns, 1u);
  r = svc.Get(KeyForShard(svc, 2, key + 1));
  EXPECT_EQ(r.outcome, Outcome::kMiss);
  EXPECT_EQ(svc.stats().stale_reads.load(), 1u);

  // The rejected write must not have leaked into the snapshot.
  r = svc.Get(key);
  EXPECT_EQ(r.value, 5);
  std::string why;
  EXPECT_TRUE(svc.stats().ConservationHolds(5, &why)) << why;
}

TEST_F(ServiceTest, QuarantineRecoversThroughCooldownProbes) {
  PessimisticService svc(TestConfig());
  const uint64_t key = KeyForShard(svc, 0);
  svc.Set(key, 9);
  ShardHealth& health = svc.health(0);
  for (int i = 0; i < 4; ++i) {
    health.OnFailure();
  }
  ASSERT_EQ(health.State(), ShardState::kQuarantined);

  // Without a due probe, traffic stays on the stale path (the cooldown in
  // TestConfig is effectively infinite).
  RequestResult r = svc.Get(key);
  EXPECT_TRUE(r.stale);
  EXPECT_EQ(svc.stats().probes_admitted.load(), 0u);

  // probe_successes = 3 successful probes step down to degraded...
  for (int i = 0; i < 3; ++i) {
    health.ForceProbe();
    r = svc.Get(key);
    EXPECT_EQ(r.outcome, Outcome::kOk);
    EXPECT_FALSE(r.stale) << "an admitted probe runs the fresh path";
  }
  EXPECT_EQ(health.State(), ShardState::kDegraded);
  EXPECT_EQ(svc.stats().recoveries.load(), 1u);
  EXPECT_EQ(svc.stats().probes_admitted.load(), 3u);

  // ...and a degraded shard admits normal traffic; 3 more successes heal.
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(svc.Get(key).outcome, Outcome::kOk);
  }
  EXPECT_EQ(health.State(), ShardState::kHealthy);
}

// The acceptance scenario: kill one shard mid-run with a scoped storm while
// threaded traffic hammers the router. The router must (a) conserve every
// request, (b) quarantine the dead shard and keep serving its reads stale,
// (c) keep the survivors healthy with a bounded windowed p99, and (d)
// recover the shard through probes once the storm lifts.
TEST_F(ServiceTest, ChaosShardKillKeepsRouterServingAndRecovers) {
  constexpr int kVictim = 1;
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 2000;
  constexpr uint64_t kKeySpace = 256;

  ServiceConfig cfg = TestConfig();
  cfg.deadline_us = 0;       // isolate storm handling from host jitter
  cfg.queue_limit = 64;
  cfg.p99_shed_us = 0;
  cfg.hedge_us = 0;
  ElidedService svc(cfg);
  for (uint64_t k = 1; k <= kKeySpace; ++k) {
    ASSERT_EQ(svc.Set(k, static_cast<int64_t>(k)).outcome, Outcome::kOk);
  }
  svc.stats().Reset();

  FaultPlan plan;
  plan.seed = seed_;
  plan.only_shard = kVictim;
  plan.WithRule(Site::kShardStorm, 1.0, htm::AbortCode::kConflict);
  htm::fault::Arm(plan);

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&svc, t] {
      SplitMix64 rng(0xc4a05'0000ULL + static_cast<uint64_t>(t));
      for (int i = 0; i < kOpsPerThread; ++i) {
        const uint64_t key = 1 + rng.NextBelow(kKeySpace);
        if (rng.NextBool(0.2)) {
          svc.Set(key, static_cast<int64_t>(i));
        } else {
          svc.Get(key);
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  htm::fault::Disarm();

  const ServiceStats& st = svc.stats();
  std::string why;
  EXPECT_TRUE(st.ConservationHolds(
      static_cast<uint64_t>(kThreads) * kOpsPerThread, &why))
      << why;
  EXPECT_GT(htm::fault::GlobalFaultStats()
                .injected_by_site[static_cast<int>(Site::kShardStorm)]
                .load(),
            0u);
  EXPECT_GE(st.shard_failures.load(), 4u);
  EXPECT_GE(st.quarantines.load(), 1u);
  EXPECT_EQ(svc.health(kVictim).State(), ShardState::kQuarantined);
  EXPECT_GT(st.stale_reads.load(), 0u)
      << "quarantined reads must fall back to the snapshot";
  EXPECT_GT(st.Count(Outcome::kRejectedQuarantine), 0u);

  // Survivors: untouched by the scoped storm, bounded tail.
  for (int s = 0; s < cfg.shards; ++s) {
    if (s == kVictim) {
      continue;
    }
    EXPECT_EQ(svc.health(s).State(), ShardState::kHealthy)
        << "survivor shard " << s;
    EXPECT_LT(svc.WindowP99(s), 100'000'000u)
        << "survivor shard " << s << " p99 unbounded";
  }

  // Storm over: probes earn the shard's way back (3 probes to degraded,
  // 3 normal successes to healthy).
  int recovery_requests = 0;
  for (int i = 0; i < 32 && svc.health(kVictim).State() != ShardState::kHealthy;
       ++i) {
    svc.health(kVictim).ForceProbe();
    svc.Get(KeyForShard(svc, kVictim));
    ++recovery_requests;
  }
  EXPECT_EQ(svc.health(kVictim).State(), ShardState::kHealthy);
  EXPECT_GE(svc.stats().recoveries.load(), 1u);
  EXPECT_LE(recovery_requests, cfg.probe_successes * 2 + 2);

  // Fully recovered: fresh reads and writes flow again.
  const uint64_t victim_key = KeyForShard(svc, kVictim);
  EXPECT_EQ(svc.Set(victim_key, 777).outcome, Outcome::kOk);
  RequestResult r = svc.Get(victim_key);
  EXPECT_EQ(r.outcome, Outcome::kOk);
  EXPECT_EQ(r.value, 777);
  EXPECT_FALSE(r.stale);
}

// Every request's window advance races the others' across 100-us ticks;
// under TSan this is the schedule that flagged the estimator's unlocked
// tick pre-check.
TEST_F(ServiceTest, ConcurrentRequestsAcrossTicksAreRaceFree) {
  constexpr int kThreads = 4;
  constexpr uint64_t kKeySpace = 256;
  ServiceConfig cfg = TestConfig();
  cfg.window_tick_us = 100;
  ElidedService svc(cfg);
  for (uint64_t k = 1; k <= kKeySpace; ++k) {
    ASSERT_EQ(svc.Set(k, static_cast<int64_t>(k)).outcome, Outcome::kOk);
  }

  std::atomic<uint64_t> issued{kKeySpace};
  const auto stop_at =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(50);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      SplitMix64 rng(seed_ + static_cast<uint64_t>(t));
      uint64_t n = 0;
      while (std::chrono::steady_clock::now() < stop_at) {
        const uint64_t key = 1 + rng.NextBelow(kKeySpace);
        if (rng.NextBool(0.2)) {
          svc.Set(key, static_cast<int64_t>(n));
        } else {
          svc.Get(key);
        }
        ++n;
      }
      issued.fetch_add(n);
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  std::string why;
  EXPECT_TRUE(svc.stats().ConservationHolds(issued.load(), &why)) << why;
  EXPECT_EQ(svc.stats().Count(Outcome::kOk), issued.load());

  // Past every live window, each shard's next request rotates out all it
  // has seen: the one request per shard below records into its batch and
  // drains nothing, so the signal reads empty.
  std::this_thread::sleep_for(std::chrono::microseconds(
      cfg.window_tick_us * (support::WindowedPercentile::kWindows + 16)));
  for (int s = 0; s < cfg.shards; ++s) {
    EXPECT_EQ(svc.Get(KeyForShard(svc, s)).outcome, Outcome::kOk);
    EXPECT_EQ(svc.WindowP99(s), 0u) << "shard " << s;
  }
}

TEST_F(ServiceTest, ShardStallRaisesTheWindowedTail) {
  // A stalled-but-alive shard (GC pause model) must show up in the windowed
  // estimator the admission path reads — the stall happens inside the
  // critical section, where RecordLatency sees it.
  PessimisticService svc(TestConfig());
  const uint64_t key = KeyForShard(svc, 3);
  svc.Set(key, 1);
  ASSERT_EQ(svc.WindowP99(3), 0u);

  FaultPlan plan;
  plan.seed = seed_;
  plan.only_shard = 3;
  plan.WithStallAt(Site::kShardStall, 1.0, /*pauses=*/200'000);
  htm::fault::Arm(plan);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(svc.Get(key).outcome, Outcome::kOk);
  }
  htm::fault::Disarm();
  EXPECT_GT(svc.WindowP99(3), 0u);
  // A shard the plan does not name stays quiet.
  EXPECT_GT(htm::fault::GlobalFaultStats().stalls.load(), 0u);
}

}  // namespace
}  // namespace gocc::service
