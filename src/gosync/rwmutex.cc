#include "src/gosync/rwmutex.h"

#include <cassert>

#include "src/gosync/parking_lot.h"
#include "src/htm/fault.h"
#include "src/htm/swocc.h"
#include "src/support/misuse.h"

namespace gocc::gosync {

RWMutex::~RWMutex() {
  const int64_t rc =
      static_cast<int64_t>(reader_count_.load(std::memory_order_acquire));
  if (rc != 0) {
    support::ReportMisuse(support::MisuseKind::kRWMutexDestroyedInUse, this,
                          rc > 0 ? "readers-active"
                                 : "writer-active-or-pending");
  }
  if (tracking_ == ElisionTracking::kEnabled) {
    // Poison readerCount: park it at the writer-pending sentinel so any
    // transaction subscribed to it aborts (and a use-after-destroy RLock
    // takes the slow path rather than eliding). And poison the version word
    // so subscribed SimTM/sw-OCC read episodes abort too (sw-OCC classifies
    // the use-after-destroy instead of validating freed storage).
    reader_count_.store(static_cast<uint64_t>(-kMaxReaders),
                        std::memory_order_release);
    occ_word_.store(htm::kOccPoison, std::memory_order_release);
  }
  // w_ is destroyed after this body runs and reports separately if held.
}

int64_t RWMutex::ReaderCountAdd(int64_t delta) {
  if (tracking_ == ElisionTracking::kEnabled) {
    // Chaos hook: stretch the reader-count transition so injected schedules
    // can interleave with subscribed transactions.
    htm::fault::MaybeStallAt(htm::fault::Site::kLockTransition);
  }
  // seq_cst: for a SimTM write episode that validates reader_count_, this
  // RMW is the holder's side of the committer/holder Dekker pair (DESIGN.md
  // §4.2). On x86-64 it is the same lock xadd as acq_rel.
  return static_cast<int64_t>(reader_count_.fetch_add(
             static_cast<uint64_t>(delta), std::memory_order_seq_cst)) +
         delta;
}

void RWMutex::RLock() {
  if (ReaderCountAdd(1) < 0) {
    // A writer is pending; wait for it to finish.
    ParkingLot::Acquire(&reader_sem_, /*lifo=*/false);
  }
}

void RWMutex::RUnlock() {
  int64_t r = ReaderCountAdd(-1);
  if (r < 0) {
    assert(r + 1 != 0 && r + 1 != -kMaxReaders &&
           "RUnlock of unlocked RWMutex");
    // A writer is pending; if we are the last outstanding reader, let it in.
    if (reader_wait_.fetch_sub(1, std::memory_order_acq_rel) - 1 == 0) {
      ParkingLot::Release(&writer_sem_, /*handoff=*/true);
    }
  }
}

void RWMutex::Lock() {
  // Resolve competition with other writers first.
  w_.Lock();
  // Announce the writer by flipping readerCount negative; r is the number of
  // readers that still hold the lock.
  int64_t r = ReaderCountAdd(-kMaxReaders) + kMaxReaders;
  if (r != 0 &&
      reader_wait_.fetch_add(r, std::memory_order_acq_rel) + r != 0) {
    ParkingLot::Acquire(&writer_sem_, /*lifo=*/false);
  }
  if (tracking_ == ElisionTracking::kEnabled) {
    // Readers have drained: take the version word exclusive so read
    // episodes subscribed to it abort rather than validate across the write
    // section. Acquiring at the *end* keeps OCC readers live while the
    // writer merely waits. w_ serializes writers, so at most one thread is
    // in this wait per RWMutex.
    htm::OccWordAcquireExclusive(&occ_word_);
  }
}

void RWMutex::Unlock() {
  if (tracking_ == ElisionTracking::kEnabled) {
    // Release the version word (bumped at acquire) before readers are
    // re-admitted: a subscribed read episode then either validates entirely
    // before the write section or entirely after it.
    htm::OccWordReleaseExclusive(&occ_word_);
  }
  // Re-admit readers.
  int64_t r = ReaderCountAdd(kMaxReaders);
  assert(r < kMaxReaders && "Unlock of unlocked RWMutex");
  for (int64_t i = 0; i < r; ++i) {
    ParkingLot::Release(&reader_sem_, /*handoff=*/false);
  }
  w_.Unlock();
}

}  // namespace gocc::gosync
