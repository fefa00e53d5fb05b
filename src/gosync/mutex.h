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
// status, and optiLib subscribes a hardware transaction to it. The software
// backends subscribe the versioned lock word behind OccWord() instead
// (htm/swocc.h). With elision tracking on, every acquisition bumps that
// word's version after the state CAS, so a slow-path acquisition aborts
// any in-flight transaction that subscribed it.

#ifndef GOCC_SRC_GOSYNC_MUTEX_H_
#define GOCC_SRC_GOSYNC_MUTEX_H_

#include <atomic>
#include <cstdint>

namespace gocc::gosync {

// Whether slow-path state transitions maintain the versioned lock word the
// software backends subscribe (required for any mutex that may be elided
// anywhere in the program; pure-lock baselines may disable it to avoid the
// interop cost that real RTM would not pay).
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
  // tracked destructor always poisons both subscribable words (the state
  // word and the version word) so any in-flight transaction still
  // subscribed to this (dying) mutex aborts to its checkpoint.
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

  // The Go lock word: what an RTM episode subscribes to.
  const std::atomic<uint64_t>* StateWord() const { return &state_; }

  // The versioned lock word SimTM and sw-OCC episodes subscribe to and
  // validate by value (swocc.h encoding). Maintained only when elision
  // tracking is on: pessimistic acquisition takes it exclusive with a
  // bumped version, Unlock releases it, the destructor poisons it.
  std::atomic<uint64_t>* OccWord() { return &occ_word_; }
  const std::atomic<uint64_t>* OccWord() const { return &occ_word_; }

  bool elision_tracked() const {
    return tracking_ == ElisionTracking::kEnabled;
  }

 private:
  void LockSlow();
  void UnlockSlow(uint64_t new_state);

  // CAS on the state word that acquires the locked bit; when tracking is
  // enabled, a won CAS also takes the version word exclusive.
  bool AcquiringCas(uint64_t& expected, uint64_t desired);

  // Unconditional state adjustment that acquires the lock (starvation-mode
  // handoff); takes the version word like AcquiringCas.
  void AcquiringAdd(int64_t delta);

  std::atomic<uint64_t> state_{0};  // must stay the first member
  // Version word (see OccWord()); shares the state word's cache line on
  // purpose (one line of lock metadata, as in the paper's single-word
  // subscription).
  std::atomic<uint64_t> occ_word_{0};
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
