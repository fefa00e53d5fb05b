// Go-semantics sync.RWMutex.
//
// Port of Go's sync/rwmutex.go: a writer Mutex, a reader count that goes
// negative while a writer is pending (readers then queue on readerSem), and
// a readerWait count the writer blocks on. The paper's key observation for
// Tally/go-cache/set is that even read-only RLock/RUnlock perform contended
// atomic RMWs on `readerCount`, which collapses under parallelism — HTM
// elision removes exactly those writes.
//
// `readerCount` is the first member so optiLib can subscribe a hardware
// transaction to it, and SimTM write elision validates it by value. Read
// elision on the software backends subscribes the writer-maintained version
// word behind OccWord() instead, so slow-path readers, which touch only
// readerCount, never abort elided readers.

#ifndef GOCC_SRC_GOSYNC_RWMUTEX_H_
#define GOCC_SRC_GOSYNC_RWMUTEX_H_

#include <atomic>
#include <cstdint>

#include "src/gosync/mutex.h"

namespace gocc::gosync {

class RWMutex {
 public:
  static constexpr int64_t kMaxReaders = int64_t{1} << 30;

  RWMutex() = default;
  explicit RWMutex(ElisionTracking tracking) : tracking_(tracking) {}

  // Destroying an RWMutex with readers active, a writer active, or a writer
  // pending is misuse (kRWMutexDestroyedInUse, DESIGN.md §4.9). A tracked
  // destructor always poisons readerCount and the version word so
  // subscribed transactions abort instead of validating freed storage.
  // Note: a write-locked RWMutex additionally reports kMutexDestroyedInUse
  // when the inner writer Mutex is destroyed right after.
  ~RWMutex();

  RWMutex(const RWMutex&) = delete;
  RWMutex& operator=(const RWMutex&) = delete;

  void RLock();
  void RUnlock();
  void Lock();
  void Unlock();

  // The word RTM episodes and SimTM write episodes subscribe to. A
  // non-negative value means no writer holds or awaits the lock; zero means
  // no reader holds it either.
  const std::atomic<uint64_t>* ReaderCountWord() const {
    return &reader_count_;
  }

  // The versioned lock word SimTM and sw-OCC read episodes subscribe to
  // (swocc.h). Only *writer* transitions maintain it: Lock() takes it
  // exclusive once the readers have drained, Unlock() releases it before
  // re-admitting them. Slow-path readers never touch it (reader/reader
  // pairs do not conflict, and churning the word on every RLock would
  // re-create the contended RMW elision exists to remove).
  std::atomic<uint64_t>* OccWord() { return &occ_word_; }
  const std::atomic<uint64_t>* OccWord() const { return &occ_word_; }

  // Racy signed snapshot of the reader count.
  int64_t ReaderCountValue() const {
    return static_cast<int64_t>(reader_count_.load(std::memory_order_acquire));
  }

  bool elision_tracked() const {
    return tracking_ == ElisionTracking::kEnabled;
  }

 private:
  // Adds `delta` to reader_count_; returns the new signed value.
  int64_t ReaderCountAdd(int64_t delta);

  std::atomic<uint64_t> reader_count_{0};  // must stay the first member
  // Version word (writer-maintained; see OccWord()).
  std::atomic<uint64_t> occ_word_{0};
  std::atomic<int64_t> reader_wait_{0};
  ElisionTracking tracking_ = ElisionTracking::kEnabled;
  // Held by writers. Untracked: no backend subscribes it (elided sections
  // read reader_count_ or occ_word_), so tracking it would only add work to
  // every pessimistic Lock/Unlock.
  Mutex w_{ElisionTracking::kDisabled};
  // Distinct park addresses for the two semaphores.
  char writer_sem_ = 0;
  char reader_sem_ = 0;
};

}  // namespace gocc::gosync

#endif  // GOCC_SRC_GOSYNC_RWMUTEX_H_
