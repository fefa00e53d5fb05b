// Go-semantics sync.Mutex.
//
// Faithful port of Go's sync/mutex.go state machine: a state word with
// locked/woken/starving bits and a waiter count, spin-then-park acquisition,
// and starvation mode — after a waiter has waited for 1 ms the mutex switches
// to direct FIFO handoff (this behaviour drives the paper's fastcache
// CacheSetGet anomaly, §6.1).
//
// The state word is the *first* member: the paper's FastLock "simply
// de-references the first word of the Mutex pointer" to observe the lock
// status, and optiLib subscribes a hardware transaction to it. To make that
// subscription work under SimTM, lock-acquiring transitions are
// stripe-guarded (htm::StripeGuardedUpdateAt on the mutex's inline stripe,
// bumping that stripe's own version) when elision tracking is on, so a
// slow-path acquisition aborts any in-flight transaction that read the
// word. Under real RTM, cache coherence provides this for free and the
// guard collapses to a plain CAS.

#ifndef GOCC_SRC_GOSYNC_MUTEX_H_
#define GOCC_SRC_GOSYNC_MUTEX_H_

#include <atomic>
#include <cstdint>

namespace gocc::gosync {

// Whether slow-path state transitions notify the transactional-memory
// substrate (required for any mutex that may be elided anywhere in the
// program; pure-lock baselines may disable it to avoid the SimTM interop
// cost that real RTM would not pay).
enum class ElisionTracking : bool { kDisabled = false, kEnabled = true };

class Mutex {
 public:
  static constexpr uint64_t kLockedBit = 1;
  static constexpr uint64_t kWokenBit = 2;
  static constexpr uint64_t kStarvingBit = 4;
  static constexpr int kWaiterShift = 3;
  static constexpr int64_t kStarvationThresholdNs = 1'000'000;

  Mutex() = default;
  explicit Mutex(ElisionTracking tracking) : tracking_(tracking) {}

  // Destroying a Mutex that is locked or has parked waiters is misuse
  // (kMutexDestroyedInUse, DESIGN.md §4.9): reported, and under the recover
  // policy the destructor proceeds — parked waiters are abandoned, exactly
  // as with any destroyed-while-held lock. Independently of misuse, a
  // tracked destructor always poisons the state word's stripe so any
  // in-flight transaction still subscribed to this (dying) word aborts to
  // its checkpoint instead of validating a freed address at commit.
  ~Mutex();

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock();
  bool TryLock();
  void Unlock();

  // True when the locked bit is set (racy snapshot; used by elision).
  bool IsLocked() const {
    return (state_.load(std::memory_order_acquire) & kLockedBit) != 0;
  }

  // The state word a fast-path transaction subscribes to.
  const std::atomic<uint64_t>* StateWord() const { return &state_; }

  // The private SimTM version stripe covering the state word. Lives in the
  // same cache line as the lock word, so the subscription that opens every
  // elided critical section reads one line and skips the global stripe-table
  // hash + probe entirely. Transitions bump it via StripeGuardedUpdateAt;
  // fast-path transactions validate it via TxSubscribeAt.
  std::atomic<uint64_t>* SubscriptionStripe() { return &stripe_; }

  // The versioned OCC word the sw-OCC backend subscribes to and validates
  // (swocc.h encoding). Maintained only when elision tracking is on:
  // pessimistic acquisition takes it exclusive, Unlock releases it with a
  // bumped version, the destructor poisons it.
  std::atomic<uint64_t>* OccWord() { return &occ_word_; }
  const std::atomic<uint64_t>* OccWord() const { return &occ_word_; }

  bool elision_tracked() const {
    return tracking_ == ElisionTracking::kEnabled;
  }

 private:
  void LockSlow();
  void UnlockSlow(uint64_t new_state);

  // CAS on the state word that acquires the locked bit; stripe-guarded when
  // tracking is enabled.
  bool AcquiringCas(uint64_t& expected, uint64_t desired);

  // Unconditional state adjustment that acquires the lock (starvation-mode
  // handoff); stripe-guarded when tracking is enabled.
  void AcquiringAdd(int64_t delta);

  std::atomic<uint64_t> state_{0};  // must stay the first member
  // sw-OCC version word; shares the state word's cache line on purpose (one
  // line of lock metadata, as in the paper's single-word subscription).
  std::atomic<uint64_t> occ_word_{0};
  // Inline SimTM version stripe for the state word (stripe_table.h word
  // encoding: version << 1, low bit = commit lock). Each tracked transition
  // releases it at its own version + 1, so an acquire writes only this
  // line. Third word of the same metadata line as state_/occ_word_.
  std::atomic<uint64_t> stripe_{0};
  ElisionTracking tracking_ = ElisionTracking::kEnabled;
};

// RAII guard (paper workloads mostly call Lock/Unlock explicitly, but tests
// and examples prefer scoping).
class MutexGuard {
 public:
  explicit MutexGuard(Mutex& mu) : mu_(mu) { mu_.Lock(); }
  ~MutexGuard() { mu_.Unlock(); }
  MutexGuard(const MutexGuard&) = delete;
  MutexGuard& operator=(const MutexGuard&) = delete;

 private:
  Mutex& mu_;
};

}  // namespace gocc::gosync

#endif  // GOCC_SRC_GOSYNC_MUTEX_H_
