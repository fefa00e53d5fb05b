// Lock policies for the workload libraries.
//
// Every workload (tally, go-cache, set, fastcache, zap analogues) is
// templated on a policy that decides how critical sections run:
//
//  * Pessimistic — the original program: plain gosync locks, no TM
//    instrumentation cost (ElisionTracking disabled).
//  * Elided — the GOCC-transformed program: each call site holds a
//    goroutine-local OptiLock and elides the lock through optiLib. The
//    mutexes participate in elision tracking, paying the interop cost the
//    SimTM substitution requires (see DESIGN.md §4.2).
//
// The set of call sites that use Elide*/Write vs. plain locking in each
// workload mirrors what the GOCC analyzer decides on the corresponding
// mini-Go corpus replica (corpus/): e.g. fastcache's Set keeps its
// pessimistic lock because its panic path makes it HTM-unfit.

#ifndef GOCC_SRC_WORKLOADS_POLICY_H_
#define GOCC_SRC_WORKLOADS_POLICY_H_

#include <utility>

#include "src/gosync/mutex.h"
#include "src/gosync/rwmutex.h"
#include "src/optilib/optilock.h"

namespace gocc::workloads {

struct Pessimistic {
  static constexpr bool kElided = false;
  static constexpr gosync::ElisionTracking kTracking =
      gosync::ElisionTracking::kDisabled;

  template <typename Fn>
  static void Lock(gosync::Mutex& mu, Fn&& fn) {
    mu.Lock();
    fn();
    mu.Unlock();
  }
  template <typename Fn>
  static void RLock(gosync::RWMutex& mu, Fn&& fn) {
    mu.RLock();
    fn();
    mu.RUnlock();
  }
  template <typename Fn>
  static void WLock(gosync::RWMutex& mu, Fn&& fn) {
    mu.Lock();
    fn();
    mu.Unlock();
  }
  // Plain sorted two-phase locking: acquire every member in ascending
  // address order, run the section, release in reverse. The single global
  // acquisition order makes it deadlock-free, and it is exactly the
  // baseline the OLTP benchmarks compare elision against ("sorted 2PL").
  template <typename Fn>
  static void LockSet(gosync::Mutex* const* mutexes, int count, Fn&& fn) {
    gosync::Mutex* sorted[optilib::OptiLock::kMaxLockSet];
    const int n =
        optilib::OptiLock::SortedUniqueLockSet(mutexes, count, sorted);
    for (int i = 0; i < n; ++i) {
      sorted[i]->Lock();
    }
    fn();
    for (int i = n - 1; i >= 0; --i) {
      sorted[i]->Unlock();
    }
  }
};

struct Elided {
  static constexpr bool kElided = true;
  static constexpr gosync::ElisionTracking kTracking =
      gosync::ElisionTracking::kEnabled;

  // One OptiLock per call site per thread: the lambda's unique type makes
  // each textual call site a distinct template instantiation, so its
  // thread_local OptiLock address is a stable calling-context feature for
  // the perceptron — the same role the stack-allocated OptiLock plays in
  // transformed Go code.
  template <typename Fn>
  static void Lock(gosync::Mutex& mu, Fn&& fn) {
    thread_local optilib::OptiLock opti_lock;
    opti_lock.WithLock(&mu, std::forward<Fn>(fn));
  }
  template <typename Fn>
  static void RLock(gosync::RWMutex& mu, Fn&& fn) {
    thread_local optilib::OptiLock opti_lock;
    opti_lock.WithRLock(&mu, std::forward<Fn>(fn));
  }
  template <typename Fn>
  static void WLock(gosync::RWMutex& mu, Fn&& fn) {
    thread_local optilib::OptiLock opti_lock;
    opti_lock.WithWLock(&mu, std::forward<Fn>(fn));
  }
  // Multi-lock episode: one transaction subscribes the whole set; on
  // exhausted retries OptiLock falls back to the same address-sorted 2PL
  // order the pessimistic policy uses.
  template <typename Fn>
  static void LockSet(gosync::Mutex* const* mutexes, int count, Fn&& fn) {
    thread_local optilib::OptiLock opti_lock;
    opti_lock.WithLocks(mutexes, count, std::forward<Fn>(fn));
  }
};

}  // namespace gocc::workloads

#endif  // GOCC_SRC_WORKLOADS_POLICY_H_
