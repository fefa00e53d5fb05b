// Software-OCC backend for the Tx* API (DESIGN.md §4.10).
//
// A TSX-independent optimistic backend in the classical versioned-lock-word
// OCC style: transactional reads are *invisible* (no shared store, no
// striped metadata — nothing for other threads to conflict on), writes are
// buffered thread-locally, and correctness comes entirely from validating
// the subscribed occ words (swocc.h) — at every transactional read (opacity:
// a torn read aborts before the critical section can act on it) and again at
// commit. A read-only commit validates and touches no shared memory at all,
// which is what makes RWMutex read sections effectively wait-free. A
// read-write commit CASes every subscribed occ word to its bumped+exclusive
// successor (address-sorted, failure aborts — no hold-and-wait), publishes
// the buffered writes, and release-stores the words back with the new
// version.
//
// Relationship to the other backends: SimTM validates the same occ words
// plus a striped version table covering *all* of memory; sw-OCC validates
// only the elided locks' occ words, so it needs the gosync acquire/release
// transitions to maintain those words (they do, for every tracked mutex).
// Raw GOCC_TX_BEGIN transactions with no subscription get no isolation
// under this backend (there is no word to validate); OptiLock episodes
// always subscribe, and only they select sw-OCC.

#ifndef GOCC_SRC_HTM_SWOCC_BACKEND_H_
#define GOCC_SRC_HTM_SWOCC_BACKEND_H_

#include <atomic>
#include <csetjmp>
#include <cstdint>

#include "src/htm/abort.h"

namespace gocc::htm {

bool SwOccInTx();
int SwOccDepth();

// The sw-OCC halves of the Tx* entry points; tx.cc dispatches here when the
// calling thread's current backend is Backend::kSwOcc. Contracts match tx.h.
BeginStatus SwOccBeginImpl(int setjmp_result, std::jmp_buf* env);
void SwOccCommit();
[[noreturn]] void SwOccAbort(AbortCode code);
void SwOccCancel(AbortCode code);
uint64_t SwOccLoad(const std::atomic<uint64_t>* addr);
void SwOccStore(std::atomic<uint64_t>* addr, uint64_t value);
uint64_t SwOccSubscribe(const std::atomic<uint64_t>* addr);
uint64_t SwOccFetchAdd(std::atomic<uint64_t>* addr, uint64_t delta);

}  // namespace gocc::htm

#endif  // GOCC_SRC_HTM_SWOCC_BACKEND_H_
