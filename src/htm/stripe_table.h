// Versioned-lock stripe table.
//
// Every 8-byte memory word is hashed to one of kNumStripes versioned locks.
// A stripe word encodes `version << 1 | locked`, and each stripe counts its
// own versions: whoever holds a stripe's lock and writes under it releases
// the stripe at its version + 1. A transaction records the stripe word at
// its first read of the stripe and re-checks every recorded stripe on each
// later read, and a writing commit re-checks them once more after locking
// its write stripes (DESIGN.md §4.2).
//
// Non-transactional writes to transactional data (TxStore/TxFetchAdd outside
// a transaction, and StripeGuardedUpdate) do the same lock-write-bump, so
// in-flight readers of that stripe abort — the strong-atomicity edge real
// RTM gets for free from cache coherence. Lock words are not striped: a
// transaction subscribes the lock's version word itself (TxSubscribe).

#ifndef GOCC_SRC_HTM_STRIPE_TABLE_H_
#define GOCC_SRC_HTM_STRIPE_TABLE_H_

#include <atomic>
#include <cstdint>

namespace gocc::htm {

inline constexpr size_t kNumStripes = 1u << 16;
inline constexpr uint64_t kStripeLockedBit = 1;

namespace internal {
// Storage for the inline accessors below. Stripes are individually padded:
// 64 Ki stripes * 64 B = 4 MiB — acceptable for a process-wide table and
// removes false sharing between stripes entirely.
struct alignas(64) PaddedStripe {
  std::atomic<uint64_t> word{0};
};
extern PaddedStripe g_stripes[kNumStripes];

inline size_t HashAddr(const void* addr) {
  auto p = reinterpret_cast<uintptr_t>(addr);
  // Mix to spread adjacent words (shift past the word-offset bits, then a
  // Fibonacci multiply).
  p >>= 3;
  p *= 0x9e3779b97f4a7c15ULL;
  return static_cast<size_t>(p >> 40) & (kNumStripes - 1);
}
}  // namespace internal

// The stripe guarding `addr`. (Inline — stripe lookups sit on the
// per-access SimTM fast path.)
inline std::atomic<uint64_t>* StripeFor(const void* addr) {
  return &internal::g_stripes[internal::HashAddr(addr)].word;
}

// Stripe index (exposed for tests).
inline size_t StripeIndexFor(const void* addr) {
  return internal::HashAddr(addr);
}

inline bool StripeIsLocked(uint64_t stripe_word) {
  return (stripe_word & kStripeLockedBit) != 0;
}
inline uint64_t StripeVersion(uint64_t stripe_word) { return stripe_word >> 1; }

// The unlocked word that releases a stripe locked from `unlocked_word` after
// a write under its lock: the stripe's own next version.
inline uint64_t StripeBumped(uint64_t unlocked_word) {
  return (StripeVersion(unlocked_word) + 1) << 1;
}

}  // namespace gocc::htm

#endif  // GOCC_SRC_HTM_STRIPE_TABLE_H_
