// Workload libraries under both lock policies: identical observable
// behaviour, exact invariants under concurrency.

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "src/gosync/runtime.h"
#include "src/htm/config.h"
#include "src/optilib/optilock.h"
#include "src/workloads/cset.h"
#include "src/workloads/fastcache.h"
#include "src/workloads/gocache.h"
#include "src/workloads/policy.h"
#include "src/workloads/tally.h"
#include "src/workloads/zaplog.h"

namespace gocc::workloads {
namespace {

template <typename Policy>
class WorkloadsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    htm::ForceSimBackend();
    optilib::PublishOptiConfig(optilib::OptiConfig{});
    optilib::GlobalPerceptron().Reset();
    prev_procs_ = gosync::SetMaxProcs(4);
  }
  void TearDown() override { gosync::SetMaxProcs(prev_procs_); }
  int prev_procs_ = 1;
};

using Policies = ::testing::Types<Pessimistic, Elided>;

TYPED_TEST_SUITE(WorkloadsTest, Policies);

TYPED_TEST(WorkloadsTest, TallyHistogramExists) {
  auto scope = std::make_unique<TallyScope<TypeParam>>();
  uint64_t id = MetricId("request_latency");
  EXPECT_FALSE(scope->HistogramExists(id));
  scope->RegisterHistogram(id);
  EXPECT_TRUE(scope->HistogramExists(id));
  EXPECT_FALSE(scope->HistogramExists(MetricId("missing")));
}

TYPED_TEST(WorkloadsTest, TallyReportSumsThreeRegistries) {
  auto scope = std::make_unique<TallyScope<TypeParam>>();
  uint64_t ids[10];
  for (int i = 0; i < 10; ++i) {
    ids[i] = MetricId("metric" + std::to_string(i));
    scope->RegisterCounter(ids[i], 1);
    scope->RegisterGauge(ids[i], 10);
    scope->RegisterReportingHistogram(ids[i], 100);
  }
  EXPECT_EQ(scope->Report(ids, 1), 111);
  EXPECT_EQ(scope->Report(ids, 10), 1110);
}

TYPED_TEST(WorkloadsTest, TallyCounterIncrementsExactlyUnderConcurrency) {
  auto scope = std::make_unique<TallyScope<TypeParam>>();
  uint64_t id = MetricId("ops");
  scope->RegisterCounter(id, 0);
  constexpr int kThreads = 4;
  constexpr int kIters = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        scope->IncCounter(id, 1);
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(scope->CounterValue(id), kThreads * kIters);
}

TYPED_TEST(WorkloadsTest, TallyAllocationConflictsStayCorrect) {
  auto scope = std::make_unique<TallyScope<TypeParam>>();
  constexpr int kThreads = 4;
  constexpr int kAllocs = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kAllocs; ++i) {
        scope->AllocateCounter(static_cast<uint64_t>(t) * kAllocs + i + 1);
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  // The allocation cursor must count every allocation exactly once.
  uint64_t probe = MetricId("probe");
  int64_t final_slot = scope->AllocateCounter(probe);
  EXPECT_EQ(final_slot, (kThreads * kAllocs) % 512);
}

TYPED_TEST(WorkloadsTest, GoCacheGetSetExpiry) {
  auto cache = std::make_unique<GoCache<TypeParam>>();
  int64_t v = 0;
  EXPECT_FALSE(cache->Get(42, 100, &v));
  cache->Set(42, 7, GoCache<TypeParam>::kNoExpiration);
  ASSERT_TRUE(cache->Get(42, 100, &v));
  EXPECT_EQ(v, 7);
  cache->Set(43, 8, /*expiry=*/50);
  EXPECT_TRUE(cache->Get(43, 49, &v));
  EXPECT_FALSE(cache->Get(43, 50, &v));
  EXPECT_EQ(cache->ItemCount(), 2);
}

TYPED_TEST(WorkloadsTest, GoCacheConcurrentReadersSeeConsistentValues) {
  auto cache = std::make_unique<GoCache<TypeParam>>();
  for (uint64_t k = 1; k <= 64; ++k) {
    cache->Set(k, static_cast<int64_t>(k * 10), 0);
  }
  std::atomic<bool> wrong{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 10000; ++i) {
        uint64_t k = static_cast<uint64_t>(i % 64) + 1;
        int64_t v = 0;
        if (!cache->MapGet(k, &v) || v != static_cast<int64_t>(k * 10)) {
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

TYPED_TEST(WorkloadsTest, SetLenExistsFlattenClear) {
  auto set = std::make_unique<ConcurrentSet<TypeParam>>();
  EXPECT_EQ(set->Len(), 0);
  for (uint64_t i = 1; i <= 60; ++i) {
    set->Add(i);
  }
  EXPECT_EQ(set->Len(), 60);
  EXPECT_TRUE(set->Exists(17));
  EXPECT_FALSE(set->Exists(1000));
  set->Add(17);  // duplicate: no growth
  EXPECT_EQ(set->Len(), 60);

  uint64_t out[ConcurrentSet<TypeParam>::kFlattenCount];
  int n = set->Flatten(out);
  EXPECT_EQ(n, 50);  // capped at kFlattenCount
  for (int i = 0; i < n; ++i) {
    EXPECT_TRUE(set->Exists(out[i]));
  }
  // Second flatten hits the cache and returns the same elements.
  uint64_t out2[ConcurrentSet<TypeParam>::kFlattenCount];
  EXPECT_EQ(set->Flatten(out2), n);
  set->Clear();
  EXPECT_EQ(set->Len(), 0);
  EXPECT_FALSE(set->Exists(17));
}

TYPED_TEST(WorkloadsTest, SetConcurrentMixedOps) {
  auto set = std::make_unique<ConcurrentSet<TypeParam>>();
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      uint64_t out[ConcurrentSet<TypeParam>::kFlattenCount];
      while (!stop.load(std::memory_order_relaxed)) {
        (void)set->Len();
        (void)set->Exists(5);
        (void)set->Flatten(out);
      }
    });
  }
  for (int round = 0; round < 50; ++round) {
    for (uint64_t i = 1; i <= 20; ++i) {
      set->Add(i);
    }
    EXPECT_EQ(set->Len(), 20);
    set->Clear();
    EXPECT_EQ(set->Len(), 0);
  }
  stop.store(true);
  for (auto& th : readers) {
    th.join();
  }
}

TYPED_TEST(WorkloadsTest, FastCacheGetHasSet) {
  auto cache = std::make_unique<FastCache<TypeParam>>();
  int64_t v = 0;
  EXPECT_FALSE(cache->Get(99, &v));
  cache->Set(99, 123);
  EXPECT_TRUE(cache->Has(99));
  ASSERT_TRUE(cache->Get(99, &v));
  EXPECT_EQ(v, 123);
  EXPECT_EQ(cache->SetCalls(), 1u);
  EXPECT_GE(cache->GetCalls(), 2u);
}

TYPED_TEST(WorkloadsTest, FastCacheSetPanicsOnOversizedValue) {
  auto cache = std::make_unique<FastCache<TypeParam>>();
  EXPECT_THROW(cache->Set(1, 0, /*value_bytes=*/1 << 20), std::length_error);
}

TYPED_TEST(WorkloadsTest, FastCacheStatsCountExactly) {
  auto cache = std::make_unique<FastCache<TypeParam>>();
  for (uint64_t k = 1; k <= 32; ++k) {
    cache->Set(k, static_cast<int64_t>(k));
  }
  constexpr int kThreads = 4;
  constexpr int kIters = 4000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      int64_t v = 0;
      for (int i = 0; i < kIters; ++i) {
        cache->Get(static_cast<uint64_t>(i % 32) + 1, &v);
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  // The shared stat updated inside the (possibly elided) critical section
  // must count every call exactly once.
  EXPECT_EQ(cache->GetCalls(), static_cast<uint64_t>(kThreads) * kIters);
  EXPECT_EQ(cache->Misses(), 0u);
}

TYPED_TEST(WorkloadsTest, ZapCheckAndWrite) {
  auto logger = std::make_unique<ZapLogger<TypeParam>>();
  EXPECT_TRUE(logger->Check(LogLevel::kError));
  EXPECT_FALSE(logger->Check(LogLevel::kDebug));
  logger->SetLevel(LogLevel::kDebug);
  EXPECT_TRUE(logger->Check(LogLevel::kDebug));
  for (int i = 0; i < 200; ++i) {
    logger->Write(LogLevel::kInfo, static_cast<uint64_t>(i));
  }
  EXPECT_EQ(logger->Written(), 200);
  EXPECT_EQ(logger->Flushed(), 192u);  // 3 full flush batches of 64
}

TYPED_TEST(WorkloadsTest, ZapConcurrentWritersCountExactly) {
  auto logger = std::make_unique<ZapLogger<TypeParam>>();
  constexpr int kThreads = 4;
  constexpr int kIters = 2500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        logger->Write(LogLevel::kWarn, static_cast<uint64_t>(i));
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(logger->Written(), kThreads * kIters);
}

}  // namespace
}  // namespace gocc::workloads
