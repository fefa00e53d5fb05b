// OLTP workload family (src/workloads/oltp): bank-transfer and YCSB-style
// keyed-table correctness under both lock policies, plus the Zipfian key
// generator they are driven by.
//
// The oracles here are the same ones bench_oltp checks after every cell:
// exact conservation for the bank (no interleaving of Transfer/Rebalance
// may create or destroy money) and the version-sum identity for YCSB
// (total record versions == record writes performed). Single-threaded
// variants pin the arithmetic; the concurrent variants run the Elided
// policy's multi-lock episodes under real contention.

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "src/gosync/runtime.h"
#include "src/htm/config.h"
#include "src/htm/fault.h"
#include "src/htm/stats.h"
#include "src/optilib/optilock.h"
#include "src/support/misuse.h"
#include "src/support/rng.h"
#include "src/support/zipf.h"
#include "src/workloads/oltp/bank.h"
#include "src/workloads/oltp/ycsb.h"
#include "src/workloads/policy.h"

namespace gocc::workloads::oltp {
namespace {

class OltpTest : public ::testing::Test {
 protected:
  void SetUp() override {
    htm::ForceSoftwareBackend();
    htm::MutableConfig() = htm::TxConfig{};
    htm::GlobalTxStats().Reset();
    optilib::PublishOptiConfig(optilib::OptiConfig{});
    optilib::GlobalOptiStats().Reset();
    optilib::GlobalPerceptron().Reset();
    optilib::ResetHardeningState();
    htm::fault::Disarm();
    support::ResetMisuseCounters();
    prev_policy_ = support::GetMisusePolicy();
    support::SetMisusePolicy(support::MisusePolicy::kRecoverAndCount);
    prev_procs_ = gosync::SetMaxProcs(4);
  }
  void TearDown() override {
    support::SetMisusePolicy(prev_policy_);
    gosync::SetMaxProcs(prev_procs_);
  }

  int prev_procs_ = 1;
  support::MisusePolicy prev_policy_ = support::MisusePolicy::kAbortProcess;
};

// --- bank ledger ------------------------------------------------------------

template <typename Policy>
void RunBankConservation() {
  BankLedger<Policy> bank(16, 1000);
  support::ZipfianGenerator zipf(16, 0.9, 42);
  SplitMix64 rng(7);
  for (int i = 0; i < 5000; ++i) {
    // from == to happens at this skew and must be a conserved no-op.
    bank.Transfer(zipf.Next(), zipf.Next(),
                  static_cast<int64_t>(rng.NextBelow(50)));
  }
  EXPECT_EQ(bank.TotalBalanceQuiescent(), bank.expected_total());
  for (int i = 0; i < bank.accounts(); ++i) {
    EXPECT_FALSE(bank.AccountMutexForTest(static_cast<uint64_t>(i))
                     ->IsLocked());
  }
}

TEST_F(OltpTest, BankTransfersConservePessimistic) {
  RunBankConservation<Pessimistic>();
}

TEST_F(OltpTest, BankTransfersConserveElided) {
  RunBankConservation<Elided>();
  EXPECT_EQ(support::TotalMisuse(), 0u);
}

TEST_F(OltpTest, BankRebalanceLevelsWithRemainderToFirstMember) {
  BankLedger<Elided> bank(4, 100);
  bank.Transfer(3, 0, 1);  // balances: 101, 100, 100, 99
  const uint64_t keys[] = {0, 1, 2};
  bank.Rebalance(keys, 3);  // sum 301 -> share 100, remainder 1 to keys[0]
  EXPECT_EQ(bank.Balance(0), 101);
  EXPECT_EQ(bank.Balance(1), 100);
  EXPECT_EQ(bank.Balance(2), 100);
  EXPECT_EQ(bank.Balance(3), 99);
  EXPECT_EQ(bank.TotalBalanceQuiescent(), bank.expected_total());
}

TEST_F(OltpTest, ConcurrentElidedBankConservation) {
  constexpr int kThreads = 4;
  constexpr int kOps = 3000;
  BankLedger<Elided> bank(32, 500);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&bank, t] {
      // Heavy skew so the multi-lock episodes genuinely collide.
      support::ZipfianGenerator zipf(32, 0.99, 100 + static_cast<uint64_t>(t));
      SplitMix64 rng(200 + static_cast<uint64_t>(t));
      for (int i = 0; i < kOps; ++i) {
        bank.Transfer(zipf.Next(), zipf.Next(),
                      static_cast<int64_t>(rng.NextBelow(25)));
      }
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  EXPECT_EQ(bank.TotalBalanceQuiescent(), bank.expected_total());
  for (int i = 0; i < bank.accounts(); ++i) {
    EXPECT_FALSE(bank.AccountMutexForTest(static_cast<uint64_t>(i))
                     ->IsLocked());
  }
  EXPECT_EQ(support::TotalMisuse(), 0u);
}

// --- YCSB table -------------------------------------------------------------

template <typename Policy>
void RunYcsbOracle() {
  YcsbTable<Policy> table(32);
  // Records are initialized to value == index, so the read-only txn sums
  // the keys themselves.
  const uint64_t read_keys[] = {3, 5, 9};
  EXPECT_EQ(table.ReadTxn(read_keys, 3), 3u + 5u + 9u);

  support::ZipfianGenerator zipf(32, 0.6, 99);
  uint64_t keys[4];
  constexpr int kTxns = 1000;
  for (int i = 0; i < kTxns; ++i) {
    zipf.NextDistinct(keys, 4);
    table.UpdateTxn(keys, 4);
  }
  // Each update txn bumps exactly 4 record versions by one.
  EXPECT_EQ(table.TotalVersionsQuiescent(), uint64_t{kTxns} * 4);
  for (int i = 0; i < table.records(); ++i) {
    EXPECT_FALSE(table.RecordMutexForTest(static_cast<uint64_t>(i))
                     ->IsLocked());
  }
}

TEST_F(OltpTest, YcsbVersionOraclePessimistic) { RunYcsbOracle<Pessimistic>(); }

TEST_F(OltpTest, YcsbVersionOracleElided) {
  RunYcsbOracle<Elided>();
  EXPECT_EQ(support::TotalMisuse(), 0u);
}

TEST_F(OltpTest, ConcurrentElidedYcsbVersionOracle) {
  constexpr int kThreads = 4;
  constexpr int kUpdates = 2000;
  constexpr int kSetSize = 3;
  YcsbTable<Elided> table(64);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&table, t] {
      support::ZipfianGenerator zipf(64, 0.99, 300 + static_cast<uint64_t>(t));
      uint64_t keys[kSetSize];
      for (int i = 0; i < kUpdates; ++i) {
        zipf.NextDistinct(keys, kSetSize);
        table.UpdateTxn(keys, kSetSize);
        if ((i & 7) == 0) {
          table.ReadTxn(keys, kSetSize);  // read txns must not bump versions
        }
      }
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  EXPECT_EQ(table.TotalVersionsQuiescent(),
            uint64_t{kThreads} * kUpdates * kSetSize);
  EXPECT_EQ(support::TotalMisuse(), 0u);
}

// --- Zipfian generator ------------------------------------------------------

TEST_F(OltpTest, ZipfIsDeterministicForASeed) {
  support::ZipfianGenerator a(1024, 0.99, 777);
  support::ZipfianGenerator b(1024, 0.99, 777);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
  support::ZipfianGenerator c(1024, 0.99, 778);  // different seed diverges
  support::ZipfianGenerator d(1024, 0.99, 777);
  bool diverged = false;
  for (int i = 0; i < 1000 && !diverged; ++i) {
    diverged = c.Next() != d.Next();
  }
  EXPECT_TRUE(diverged);
}

TEST_F(OltpTest, ZipfThetaZeroIsUniform) {
  constexpr uint64_t kItems = 16;
  constexpr int kDraws = 32000;
  support::ZipfianGenerator zipf(kItems, 0.0, 5);
  uint64_t counts[kItems] = {};
  for (int i = 0; i < kDraws; ++i) {
    const uint64_t r = zipf.Next();
    ASSERT_LT(r, kItems);
    ++counts[r];
  }
  const uint64_t expected = kDraws / kItems;
  for (uint64_t c : counts) {
    EXPECT_GT(c, expected / 2);
    EXPECT_LT(c, expected * 2);
  }
}

TEST_F(OltpTest, ZipfHighThetaConcentratesOnHotRanks) {
  constexpr uint64_t kItems = 1024;
  constexpr int kDraws = 50000;
  support::ZipfianGenerator zipf(kItems, 0.99, 11);
  uint64_t count0 = 0, count_mid = 0;
  for (int i = 0; i < kDraws; ++i) {
    const uint64_t r = zipf.Next();
    ASSERT_LT(r, kItems);
    if (r == 0) {
      ++count0;
    } else if (r == kItems / 2) {
      ++count_mid;
    }
  }
  // Rank 0 absorbs a double-digit percentage at YCSB's default skew —
  // orders of magnitude over the uniform share (~49 draws here).
  EXPECT_GT(count0, 2000u);
  EXPECT_GT(count0, count_mid * 10);
}

TEST_F(OltpTest, ZipfNextDistinctDrawsDistinctRanksEvenAtHeavySkew) {
  // items == count is the worst case: resampling must still terminate and
  // return a permutation.
  support::ZipfianGenerator zipf(8, 0.99, 21);
  uint64_t keys[8];
  zipf.NextDistinct(keys, 8);
  bool seen[8] = {};
  for (uint64_t k : keys) {
    ASSERT_LT(k, 8u);
    EXPECT_FALSE(seen[k]);
    seen[k] = true;
  }
}

}  // namespace
}  // namespace gocc::workloads::oltp
