#include "src/gosync/mutex.h"

#include <cassert>
#include <chrono>

#include "src/gosync/parking_lot.h"
#include "src/gosync/runtime.h"
#include "src/htm/fault.h"
#include "src/htm/swocc.h"
#include "src/support/misuse.h"

namespace gocc::gosync {
namespace {

constexpr int kActiveSpinCount = 4;
constexpr int kActiveSpinPauses = 30;

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool CanSpin(int iter) {
  // Go additionally requires runnable goroutines on other Ps; the MaxProcs
  // check is the portable core of that heuristic.
  return iter < kActiveSpinCount && MaxProcs() > 1;
}

void DoSpin() {
  for (int i = 0; i < kActiveSpinPauses; ++i) {
    CpuPause();
  }
}

}  // namespace

Mutex::~Mutex() {
  const uint64_t state = state_.load(std::memory_order_acquire);
  if (state != 0) {
    const char* detail = "stale-bits";
    if ((state & kLockedBit) != 0 && (state >> kWaiterShift) != 0) {
      detail = "locked+waiters-parked";
    } else if ((state & kLockedBit) != 0) {
      detail = "locked";
    } else if ((state >> kWaiterShift) != 0) {
      detail = "waiters-parked";
    }
    support::ReportMisuse(support::MisuseKind::kMutexDestroyedInUse, this,
                          detail);
  }
  if (tracking_ == ElisionTracking::kEnabled) {
    // Poison both subscribable words: the locked bit aborts RTM episodes
    // reading the state word, and the poison pattern, which no live
    // transition produces, fails every SimTM/sw-OCC subscription to the
    // version word (sw-OCC also reports the read-after-destroy through the
    // misuse taxonomy).
    state_.store(kLockedBit, std::memory_order_release);
    occ_word_.store(htm::kOccPoison, std::memory_order_release);
  }
}

bool Mutex::AcquiringCas(uint64_t& expected, uint64_t desired) {
  if (tracking_ == ElisionTracking::kEnabled) {
    // Chaos hook: widen the window between a transaction's subscription read
    // and this slow-path acquisition (no-op unless the injector is armed).
    htm::fault::MaybeStallAt(htm::fault::Site::kLockTransition);
    if (!state_.compare_exchange_strong(expected, desired,
                                        std::memory_order_acquire,
                                        std::memory_order_relaxed)) {
      return false;
    }
    // Having won the state word, take the version word exclusive, so every
    // episode subscribed to it fails validation instead of committing
    // across the critical section we are about to run. state_ serializes
    // pessimistic acquirers, so at most one thread is ever in this wait per
    // mutex.
    htm::OccWordAcquireExclusive(&occ_word_);
    return true;
  }
  return state_.compare_exchange_strong(expected, desired,
                                        std::memory_order_acquire,
                                        std::memory_order_relaxed);
}

void Mutex::AcquiringAdd(int64_t delta) {
  if (tracking_ == ElisionTracking::kEnabled) {
    htm::fault::MaybeStallAt(htm::fault::Site::kLockTransition);
  }
  state_.fetch_add(static_cast<uint64_t>(delta), std::memory_order_acq_rel);
  if (tracking_ == ElisionTracking::kEnabled) {
    // Starvation handoff acquires the mutex; mirror AcquiringCas.
    htm::OccWordAcquireExclusive(&occ_word_);
  }
}

void Mutex::Lock() {
  uint64_t expected = 0;
  if (AcquiringCas(expected, kLockedBit)) {
    return;
  }
  LockSlow();
}

bool Mutex::TryLock() {
  uint64_t old = state_.load(std::memory_order_relaxed);
  if ((old & (kLockedBit | kStarvingBit | kWokenBit)) != 0) {
    return false;
  }
  return AcquiringCas(old, old | kLockedBit);
}

void Mutex::LockSlow() {
  int64_t wait_start = 0;
  bool starving = false;
  bool awoke = false;
  int iter = 0;
  uint64_t old = state_.load(std::memory_order_relaxed);
  while (true) {
    // Active spinning: the lock is held (not starving) and spinning makes
    // sense; try to set the woken bit so Unlock does not wake other waiters.
    if ((old & (kLockedBit | kStarvingBit)) == kLockedBit && CanSpin(iter)) {
      if (!awoke && (old & kWokenBit) == 0 && (old >> kWaiterShift) != 0 &&
          state_.compare_exchange_weak(old, old | kWokenBit,
                                       std::memory_order_relaxed)) {
        awoke = true;
      }
      DoSpin();
      ++iter;
      old = state_.load(std::memory_order_relaxed);
      continue;
    }

    uint64_t next = old;
    // Don't try to acquire a starving mutex: new arrivals must queue.
    if ((old & kStarvingBit) == 0) {
      next |= kLockedBit;
    }
    if ((old & (kLockedBit | kStarvingBit)) != 0) {
      next += uint64_t{1} << kWaiterShift;
    }
    // Switch to starvation mode if we already waited past the threshold and
    // the mutex is still locked.
    if (starving && (old & kLockedBit) != 0) {
      next |= kStarvingBit;
    }
    if (awoke) {
      assert((next & kWokenBit) != 0 && "inconsistent mutex state");
      next &= ~kWokenBit;
    }

    const bool acquiring = (old & (kLockedBit | kStarvingBit)) == 0;
    bool cas_ok;
    if (acquiring) {
      cas_ok = AcquiringCas(old, next);
    } else {
      cas_ok = state_.compare_exchange_weak(old, next,
                                            std::memory_order_acquire,
                                            std::memory_order_relaxed);
    }
    if (cas_ok) {
      if (acquiring) {
        return;  // locked the (previously unlocked, non-starving) mutex
      }
      const bool queue_lifo = wait_start != 0;
      if (wait_start == 0) {
        wait_start = NowNanos();
      }
      ParkingLot::Acquire(&state_, queue_lifo);
      starving =
          starving || NowNanos() - wait_start > kStarvationThresholdNs;
      old = state_.load(std::memory_order_relaxed);
      if ((old & kStarvingBit) != 0) {
        // Starvation-mode handoff: the unlocker granted us the mutex
        // directly; fix up the state (we consume one waiter slot, take the
        // locked bit, and possibly exit starvation mode).
        assert((old & (kLockedBit | kWokenBit)) == 0 &&
               (old >> kWaiterShift) != 0 && "inconsistent starving mutex");
        int64_t delta =
            static_cast<int64_t>(kLockedBit) - (int64_t{1} << kWaiterShift);
        if (!starving || (old >> kWaiterShift) == 1) {
          delta -= static_cast<int64_t>(kStarvingBit);
        }
        AcquiringAdd(delta);
        return;
      }
      awoke = true;
      iter = 0;
    } else {
      old = state_.load(std::memory_order_relaxed);
    }
  }
}

void Mutex::Unlock() {
  if (tracking_ == ElisionTracking::kEnabled) {
    // Release the version word (bumped at acquire) *before* the state word
    // drops: the critical section's writes sit between the acquire (in
    // Acquiring*) and this release in program order, so a subscribed
    // episode either sees the pre-bump version on every read (serialized
    // before us) or fails validation.
    htm::OccWordReleaseExclusive(&occ_word_);
  }
  uint64_t new_state =
      state_.fetch_sub(kLockedBit, std::memory_order_release) - kLockedBit;
  if (new_state != 0) {
    UnlockSlow(new_state);
  }
}

void Mutex::UnlockSlow(uint64_t new_state) {
  assert(((new_state + kLockedBit) & kLockedBit) != 0 &&
         "unlock of unlocked mutex");
  if ((new_state & kStarvingBit) == 0) {
    uint64_t old = new_state;
    while (true) {
      // No waiters, or someone else is already locked/woken/starving: done.
      if ((old >> kWaiterShift) == 0 ||
          (old & (kLockedBit | kWokenBit | kStarvingBit)) != 0) {
        return;
      }
      uint64_t next = (old - (uint64_t{1} << kWaiterShift)) | kWokenBit;
      if (state_.compare_exchange_weak(old, next, std::memory_order_acq_rel,
                                       std::memory_order_relaxed)) {
        ParkingLot::Release(&state_, /*handoff=*/false);
        return;
      }
    }
  } else {
    // Starving mode: hand the mutex directly to the next waiter. The locked
    // bit stays clear; the waiter sets it via AcquiringAdd. New arrivals see
    // the starving bit and queue behind.
    ParkingLot::Release(&state_, /*handoff=*/true);
  }
}

}  // namespace gocc::gosync
