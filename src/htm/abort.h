// Transaction abort classification.
//
// Mirrors the information Intel RTM reports in EAX after an abort, expressed
// as a small enum GOCC's runtime policy can branch on (paper Listing 19
// distinguishes LockHeldError and MutexMismatchError from other causes).

#ifndef GOCC_SRC_HTM_ABORT_H_
#define GOCC_SRC_HTM_ABORT_H_

namespace gocc::htm {

enum class AbortCode : int {
  kNone = 0,
  // Read/write-set conflict with another transaction or a non-transactional
  // (strong-atomicity) write — RTM's "conflict" abort.
  kConflict = 1,
  // Read- or write-set exceeded the modelled cache capacity — RTM "capacity".
  kCapacity = 2,
  // Explicit xabort issued by the program for a generic reason.
  kExplicit = 3,
  // Explicit abort because the elided lock was observed held (paper:
  // LockHeldError). Retryable: the lock holder will release.
  kLockHeld = 4,
  // Explicit abort because FastUnlock received a different mutex than
  // FastLock recorded (paper: MutexMismatchError, hand-over-hand locking).
  // Not retryable on the fast path.
  kMutexMismatch = 5,
  // Best-effort HTM can abort for no architectural reason (interrupts, etc.).
  kSpurious = 6,
  // sw-OCC backend only: commit-time (or per-read) validation observed a
  // version change on a subscribed lock word — an invisible read raced a
  // pessimistic holder or another OCC committer. Retryable with backoff up
  // to the episode's constant budget (optilib::OptiLock::kOccMaxRetries).
  kOccValidateFail = 7,
};

// Number of distinct AbortCode values (for histogram arrays indexed by code).
// Must stay <= 16: obs packs the code into a 4-bit event field.
inline constexpr int kNumAbortCodes = 8;

// Human-readable abort-code name.
inline const char* AbortCodeName(AbortCode code) {
  switch (code) {
    case AbortCode::kNone:
      return "None";
    case AbortCode::kConflict:
      return "Conflict";
    case AbortCode::kCapacity:
      return "Capacity";
    case AbortCode::kExplicit:
      return "Explicit";
    case AbortCode::kLockHeld:
      return "LockHeld";
    case AbortCode::kMutexMismatch:
      return "MutexMismatch";
    case AbortCode::kSpurious:
      return "Spurious";
    case AbortCode::kOccValidateFail:
      return "OccValidateFail";
  }
  return "Unknown";
}

// RTM-style begin status: either "transaction started" or the abort code of
// the attempt that just rolled back to the checkpoint.
struct BeginStatus {
  bool started = false;
  AbortCode abort_code = AbortCode::kNone;
};

}  // namespace gocc::htm

#endif  // GOCC_SRC_HTM_ABORT_H_
