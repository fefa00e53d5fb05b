// Bank-transfer OLTP microbenchmark (per-account locks).
//
// The canonical multi-lock workload: every transfer touches exactly two
// accounts and must hold both account locks for the duration — the classic
// motivation for ordered 2PL and, here, for multi-lock elision. Accounts
// are cache-line sized cells each owning a tracked gosync::Mutex and an
// htm::Shared balance, so an elided transfer's read/write set is two lines
// and conflicts happen only when transfers actually share an account.
//
// The invariant the tests and chaos batteries check is exact conservation:
// no interleaving of Transfer/Rebalance may create or destroy money, so
// after quiescence TotalBalanceQuiescent() must equal the initial total to
// the last unit. Rebalance generalizes to k-account transactions (k up to
// OptiLock::kMaxLockSet) for the lock-set-size sweeps.

#ifndef GOCC_SRC_WORKLOADS_OLTP_BANK_H_
#define GOCC_SRC_WORKLOADS_OLTP_BANK_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>

#include "src/gosync/mutex.h"
#include "src/htm/shared.h"
#include "src/optilib/optilock.h"
#include "src/workloads/policy.h"

namespace gocc::workloads::oltp {

template <typename Policy>
class BankLedger {
 public:
  explicit BankLedger(int accounts, int64_t initial_balance = 1000)
      : count_(accounts < 1 ? 1 : accounts),
        initial_balance_(initial_balance),
        storage_(new char[StorageBytes(count_)]) {
    void* base = storage_.get();
    size_t space = StorageBytes(count_);
    accounts_ = static_cast<Account*>(
        std::align(alignof(Account), space - alignof(Account), base, space));
    for (int i = 0; i < count_; ++i) {
      new (&accounts_[i]) Account();
      accounts_[i].balance.Store(initial_balance_);
    }
  }

  ~BankLedger() {
    for (int i = 0; i < count_; ++i) {
      accounts_[i].~Account();
    }
  }

  BankLedger(const BankLedger&) = delete;
  BankLedger& operator=(const BankLedger&) = delete;

  int accounts() const { return count_; }
  int64_t expected_total() const {
    return initial_balance_ * static_cast<int64_t>(count_);
  }

  // Moves `amount` from one account to the other under both account locks.
  // from == to is legal (the policy's set dedupe collapses it) and is a
  // no-op on the total either way.
  void Transfer(uint64_t from, uint64_t to, int64_t amount) {
    Account& a = accounts_[from % static_cast<uint64_t>(count_)];
    Account& b = accounts_[to % static_cast<uint64_t>(count_)];
    gosync::Mutex* locks[2] = {&a.mu, &b.mu};
    Policy::LockSet(locks, 2, [&] {
      if (&a == &b) {
        return;  // self-transfer: debit and credit cancel exactly
      }
      a.balance.Store(a.balance.Load() - amount);
      b.balance.Store(b.balance.Load() + amount);
    });
  }

  // k-account transaction: levels the balances of `count` distinct
  // accounts (count <= OptiLock::kMaxLockSet). The division remainder goes
  // to the first account so the sum is conserved exactly.
  void Rebalance(const uint64_t* keys, int count) {
    gosync::Mutex* locks[optilib::OptiLock::kMaxLockSet];
    Account* members[optilib::OptiLock::kMaxLockSet];
    for (int i = 0; i < count; ++i) {
      members[i] = &accounts_[keys[i] % static_cast<uint64_t>(count_)];
      locks[i] = &members[i]->mu;
    }
    Policy::LockSet(locks, count, [&] {
      int64_t sum = 0;
      for (int i = 0; i < count; ++i) {
        sum += members[i]->balance.Load();
      }
      const int64_t share = sum / count;
      int64_t remainder = sum - share * count;
      for (int i = 0; i < count; ++i) {
        members[i]->balance.Store(share + (i == 0 ? remainder : 0));
      }
    });
  }

  // Single-lock audit read (used by mixed workloads).
  int64_t Balance(uint64_t key) {
    Account& a = accounts_[key % static_cast<uint64_t>(count_)];
    int64_t out = 0;
    Policy::Lock(a.mu, [&] { out = a.balance.Load(); });
    return out;
  }

  // Conservation oracle. Only valid at quiescence (all workers joined):
  // reads balances without locks, so the caller vouches nothing is
  // mid-transaction.
  int64_t TotalBalanceQuiescent() const {
    int64_t sum = 0;
    for (int i = 0; i < count_; ++i) {
      sum += accounts_[i].balance.Load();
    }
    return sum;
  }

  gosync::Mutex* AccountMutexForTest(uint64_t key) {
    return &accounts_[key % static_cast<uint64_t>(count_)].mu;
  }

 private:
  struct alignas(64) Account {
    Account() : mu(Policy::kTracking) {}
    gosync::Mutex mu;
    htm::Shared<int64_t> balance;
  };

  // The accounts sit 64-aligned inside a plain byte allocation, not an
  // over-aligned new[]: glibc serves an over-aligned request through
  // memalign, which asks for size + alignment + slack, so a freed ledger
  // never fits the next one, and back-to-back ledgers (perfbench builds
  // 101) grew the heap by one ledger per set-up for 16-18 set-ups.
  static size_t StorageBytes(int count) {
    return static_cast<size_t>(count) * sizeof(Account) + alignof(Account);
  }

  int count_;
  int64_t initial_balance_;
  std::unique_ptr<char[]> storage_;
  Account* accounts_ = nullptr;
};

}  // namespace gocc::workloads::oltp

#endif  // GOCC_SRC_WORKLOADS_OLTP_BANK_H_
