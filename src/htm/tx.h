// Transaction API with RTM semantics.
//
// Two backends implement this API (selected at runtime, see config.h):
//
//  * SimTM — a software transactional backend: lazy versioning (writes
//    buffered until commit), a version lock in every cell (TxCell) that
//    counts the cell's own versions, incremental validation (each read
//    re-checks every version word read before it), commit-time locking of
//    the written cells + read-set validation, capacity aborts modelled on
//    cache geometry, flat nesting (like RTM, an abort anywhere rolls back
//    to the outermost begin).
//  * RTM — real xbegin/xend/xabort (rtm_backend.cc) when the hardware probe
//    succeeds; transactional loads/stores degrade to plain atomics because
//    the hardware versions memory itself.
//
// Control-flow contract (mirrors xbegin): TxBegin records a checkpoint
// (a setjmp env for SimTM, the hardware checkpoint for RTM). Any abort
// transfers control back so that TxBegin appears to return again, this time
// with `started == false` and the abort code. Use the GOCC_TX_BEGIN macro,
// which plants the checkpoint in the caller's frame.
//
// CAUTION (SimTM only): locals modified between the checkpoint and an abort
// have indeterminate values after the longjmp unless declared volatile, and
// destructors of locals constructed after the checkpoint do not run on abort.
// Critical sections must route shared data through htm::Shared<T> and avoid
// owning heap allocations across abort points. Real RTM has the same
// discipline for different reasons (no faulting/IO inside transactions).

#ifndef GOCC_SRC_HTM_TX_H_
#define GOCC_SRC_HTM_TX_H_

#include <atomic>
#include <csetjmp>
#include <cstdint>

#include "src/htm/abort.h"
#include "src/htm/config.h"

namespace gocc::htm {

// A transactional memory cell: a 64-bit value and the SimTM version lock
// that guards it. The version word encodes `version << 1 | locked`; whoever
// locks it and writes the value releases it at its version + 1. 16-B
// alignment keeps both words on one cache line, so a SimTM access touches
// the line the data lives on and nothing else. sw-OCC and RTM use only the
// value word.
struct alignas(16) TxCell {
  std::atomic<uint64_t> version{0};
  std::atomic<uint64_t> value{0};
};

inline constexpr uint64_t kCellLockedBit = 1;

inline bool CellIsLocked(uint64_t version_word) {
  return (version_word & kCellLockedBit) != 0;
}
inline uint64_t CellVersion(uint64_t version_word) {
  return version_word >> 1;
}

// True while the calling thread has an open transaction.
bool InTx();

// Nesting depth of the calling thread's transaction (0 = none).
int TxDepth();

// Implementation detail of GOCC_TX_BEGIN: begins (or re-enters after abort)
// a transaction. `setjmp_result` is the value setjmp returned: 0 on the
// initial pass, an AbortCode on re-entry after a SimTM abort. `env` is the
// caller-frame checkpoint to long-jump to on abort.
BeginStatus TxBeginImpl(int setjmp_result, std::jmp_buf* env);

// Commits the innermost transaction. For the outermost level this performs
// written-cell locking, read-set validation and write-back; on validation
// failure it aborts (control returns to the checkpoint).
void TxCommit();

// Explicitly aborts the current transaction with `code`, rolling back all
// buffered writes. Does not return to the call site.
[[noreturn]] void TxAbort(AbortCode code);

// Cancels the current transaction — identical rollback and abort accounting
// to TxAbort, but control RETURNS to the caller instead of long-jumping to
// the checkpoint. This is the C++-exception escape hatch (DESIGN.md §4.9):
// a longjmp would skip destructors of in-flight unwind machinery, so the
// episode guard cancels the transaction in-place and lets the exception
// propagate normally. No-op when no transaction is open. Under real RTM an
// unwind never reaches software with a hardware transaction still open (the
// first unwind step aborts it back to xbegin), so this only has to handle
// SimTM state.
void TxCancel(AbortCode code);

// Transactional load of a cell's value. Outside a transaction SimTM waits
// for the cell to be unlocked; the other backends load plainly.
uint64_t TxLoad(const TxCell* cell);

// Transactional store of a cell's value. Outside a transaction the store
// is made under the cell's version lock so concurrent transactions observe
// it (strong atomicity).
void TxStore(TxCell* cell, uint64_t value);

// Subscribes the open transaction to a lock word and returns the word's
// value; the caller decides from it whether the lock is available. SimTM
// records the word itself as a read-set entry checked by value equality:
// every later read and a writing commit re-check it, so any RMW a lock
// holder makes on the word aborts the transaction (DESIGN.md §4.2). There
// is no lock-bit test. sw-OCC records it as a subscription, and under RTM
// it is a plain load into the hardware read set. Outside a transaction
// this is a plain acquire load.
uint64_t TxSubscribe(const std::atomic<uint64_t>* word);

// Fused transactional read-modify-write: semantically TxStore(cell,
// TxLoad(cell) + delta) (2^64 wrapping add in the bit domain), but performs
// the write-set lookup, validation, and capacity accounting once. Outside a
// transaction the whole RMW happens under the cell's version lock, so —
// unlike a separate Load/Store pair — it is atomic against concurrent
// non-transactional updaters too. Returns the new value.
uint64_t TxFetchAdd(TxCell* cell, uint64_t delta);

// Runs `fn` as a guarded non-transactional update of `cell`: lock its
// version word -> fn() -> release it at its version + 1. An in-flight
// transaction that read `cell` aborts at its next read or, if it writes,
// at commit; a read-only one that reads nothing more serializes before the
// update. This is the strong-atomicity hook for non-transactional writes to
// memory transactions watch.
void CellGuardedUpdate(TxCell* cell, void (*fn)(void*), void* arg);

// Convenience overload for capturing lambdas.
template <typename Fn>
void CellGuardedUpdate(TxCell* cell, Fn&& fn) {
  CellGuardedUpdate(
      cell, [](void* raw) { (*static_cast<Fn*>(raw))(); }, &fn);
}

}  // namespace gocc::htm

// Begins a transaction with the checkpoint in the *calling* frame.
// Evaluates to a gocc::htm::BeginStatus. `env` must be a std::jmp_buf lvalue
// in the caller's scope that outlives the transaction.
#define GOCC_TX_BEGIN(env) \
  (::gocc::htm::TxBeginImpl(setjmp(env), &(env)))

#endif  // GOCC_SRC_HTM_TX_H_
