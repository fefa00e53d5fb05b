// Multithreaded SimTM stress: atomicity and isolation under contention,
// checked against sequential oracles. On a single-CPU host the threads
// time-share, which still exercises preemption-driven interleavings.

#include <gtest/gtest.h>

#include <atomic>
#include <csetjmp>
#include <thread>
#include <vector>

#include "src/htm/config.h"
#include "src/htm/fault.h"
#include "src/htm/shared.h"
#include "src/htm/stats.h"
#include "src/htm/tx.h"
#include "tests/chaos_seed.h"

namespace gocc::htm {
namespace {

template <typename Fn>
void RunTxUntilCommit(Fn&& body) {
  std::jmp_buf env;
  while (true) {
    BeginStatus status = GOCC_TX_BEGIN(env);
    if (!status.started) {
      continue;
    }
    body();
    TxCommit();
    return;
  }
}

class HtmStressTest : public ::testing::Test {
 protected:
  void SetUp() override { ForceSimBackend(); }
  void TearDown() override { fault::Disarm(); }
};

TEST_F(HtmStressTest, ConcurrentCountersSumExactly) {
  constexpr int kThreads = 4;
  constexpr int kIncrementsPerThread = 20000;
  Shared<int64_t> counter(0);

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIncrementsPerThread; ++i) {
        RunTxUntilCommit([&] { counter.Add(1); });
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(counter.Load(), kThreads * kIncrementsPerThread);
}

// Bank-transfer invariant: the sum across accounts never changes, and no
// transaction may observe a partial transfer.
TEST_F(HtmStressTest, TransfersPreserveTotal) {
  constexpr int kAccounts = 8;
  constexpr int kThreads = 4;
  constexpr int kTransfersPerThread = 10000;
  constexpr int64_t kInitial = 1000;

  struct alignas(64) Account {
    Shared<int64_t> balance;
  };
  std::vector<std::unique_ptr<Account>> accounts;
  for (int i = 0; i < kAccounts; ++i) {
    accounts.push_back(std::make_unique<Account>());
    accounts.back()->balance.StoreRelaxedInit(kInitial);
  }

  std::atomic<bool> invariant_violated{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      uint64_t seed = static_cast<uint64_t>(t) * 7919 + 13;
      for (int i = 0; i < kTransfersPerThread; ++i) {
        seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
        size_t from = (seed >> 33) % kAccounts;
        size_t to = (seed >> 13) % kAccounts;
        if (from == to) {
          continue;
        }
        RunTxUntilCommit([&] {
          int64_t f = accounts[from]->balance.Load();
          int64_t g = accounts[to]->balance.Load();
          accounts[from]->balance.Store(f - 1);
          accounts[to]->balance.Store(g + 1);
        });
        // Concurrent observer: a consistent snapshot must always sum to the
        // initial total.
        if (i % 256 == 0) {
          int64_t total = 0;
          RunTxUntilCommit([&] {
            int64_t sum = 0;
            for (auto& acc : accounts) {
              sum += acc->balance.Load();
            }
            total = sum;
          });
          if (total != kAccounts * kInitial) {
            invariant_violated.store(true);
          }
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_FALSE(invariant_violated.load());
  int64_t final_total = 0;
  for (auto& acc : accounts) {
    final_total += acc->balance.Load();
  }
  EXPECT_EQ(final_total, kAccounts * kInitial);
}

// Mixed transactional and strongly-atomic non-transactional writers on the
// same cells must still never produce a torn or lost transactional update.
TEST_F(HtmStressTest, MixedTxAndNonTxWriters) {
  Shared<int64_t> tx_cell(0);
  Shared<int64_t> raw_cell(0);
  constexpr int kIters = 20000;

  std::thread tx_writer([&] {
    for (int i = 0; i < kIters; ++i) {
      RunTxUntilCommit([&] {
        tx_cell.Add(1);
        (void)raw_cell.Load();  // reads a cell non-tx writers race on
      });
    }
  });
  std::thread raw_writer([&] {
    for (int i = 0; i < kIters; ++i) {
      raw_cell.Store(i);  // strongly-atomic non-transactional store
    }
  });
  tx_writer.join();
  raw_writer.join();
  EXPECT_EQ(tx_cell.Load(), kIters);
  EXPECT_EQ(raw_cell.Load(), kIters - 1);
}

// With injected spurious aborts (a seeded kSpurious rule on every
// transactional read, TxFetchAdd included) the workload must still complete
// correctly — retry machinery may not lose or duplicate updates.
TEST_F(HtmStressTest, SpuriousAbortInjectionDoesNotBreakAtomicity) {
  fault::FaultPlan plan;
  plan.seed = ChaosSeed();
  plan.WithRule(fault::Site::kLoad, 0.05, AbortCode::kSpurious);
  fault::Arm(plan);
  Shared<int64_t> counter(0);
  constexpr int kThreads = 4;
  constexpr int kIncrements = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIncrements; ++i) {
        RunTxUntilCommit([&] { counter.Add(1); });
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(counter.Load(), kThreads * kIncrements);
  EXPECT_GT(GlobalTxStats().Aborts(AbortCode::kSpurious), 0u);
}

}  // namespace
}  // namespace gocc::htm
