// The versioned lock word every tracked gosync mutex carries, and the word
// both software backends subscribe (DESIGN.md §4.2).
//
// Each tracked Mutex/RWMutex keeps one 64-bit version word on its lock
// cache line (Mutex::OccWord / RWMutex::OccWord), in the style of classical
// OCC lock words: a 31-bit version counter plus a lock flag. SimTM records
// it as a read-set entry and sw-OCC as a subscription; both validate it by
// value equality, so any exclusive acquisition between subscription and
// commit fails validation. (Under RTM the transaction reads the Go lock
// word instead, as the paper does.)
//
//   bit 0      — exclusive flag: a pessimistic holder or an OCC committer
//                owns the protected data right now.
//   bit 1      — writer-pending flag: a pessimistic acquirer has been
//                starved by back-to-back OCC commits; OCC episodes treat the
//                word as held until the writer gets through (writers win).
//   bits [2,33) — 31-bit version, bumped on every exclusive acquisition and
//                wrapping mod 2^31 (matching the classical 31-bit layout).
//                A subscriber detects any intervening exclusive owner by
//                value inequality; the ABA bound is 2^31 acquisitions
//                within one episode (see the wraparound regression test).
//   bits [33,64) — zero in live words; all-ones only in the destructor's
//                poison pattern, which no acquire/release transition can
//                produce, so a subscribed episode can classify a destroyed
//                mutex distinctly from an ordinary conflict.
//
// Maintenance: pessimistic acquire/release transitions keep the word
// coherent for tracked mutexes whatever the backend (one uncontended CAS +
// one fetch_sub per critical section, both on the already-dirty lock line),
// so a mid-run backend switch can never observe a stale version. Untracked
// mutexes never touch the word and are never elided by a software backend.

#ifndef GOCC_SRC_HTM_SWOCC_H_
#define GOCC_SRC_HTM_SWOCC_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "src/support/counter_table.h"

namespace gocc::htm {

inline constexpr uint64_t kOccExclusiveBit = 1;
inline constexpr uint64_t kOccWriterPendingBit = 2;
inline constexpr int kOccVersionShift = 2;
inline constexpr uint64_t kOccVersionBits = 31;
inline constexpr uint64_t kOccVersionMask = (uint64_t{1} << kOccVersionBits) - 1;

// Destructor poison: version field saturated plus both flags plus the high
// bits no transition ever sets. Subscribed episodes that observe this value
// report use-after-destroy through the misuse taxonomy instead of retrying
// against freed storage.
inline constexpr uint64_t kOccPoison = ~uint64_t{0};

inline constexpr uint64_t OccVersion(uint64_t word) {
  return (word >> kOccVersionShift) & kOccVersionMask;
}
inline constexpr bool OccIsExclusive(uint64_t word) {
  return (word & kOccExclusiveBit) != 0;
}
inline constexpr bool OccWriterPending(uint64_t word) {
  return (word & kOccWriterPendingBit) != 0;
}
// Held from an OCC episode's point of view: any exclusive owner, a starving
// pessimistic writer, or poison (whose low bits contain both flags).
inline constexpr bool OccUnavailable(uint64_t word) {
  return (word & (kOccExclusiveBit | kOccWriterPendingBit)) != 0;
}
inline constexpr bool OccIsPoisoned(uint64_t word) {
  return word == kOccPoison;
}

// The word an exclusive acquisition installs over `word`: version bumped
// (mod 2^31), exclusive flag set, pending flag cleared (the acquirer *is*
// the writer the flag was raised for).
inline constexpr uint64_t OccAcquired(uint64_t word) {
  return ((OccVersion(word) + 1) & kOccVersionMask) << kOccVersionShift |
         kOccExclusiveBit;
}

// Cold-path counters for the occ-word protocol itself (gosync sits below
// optilib, so these cannot live in OptiStats). Plain shared atomics: every
// path that bumps them already paid a contended CAS.
struct SwOccWordStats {
  enum Slot : int {
    kWriterWaits = 0,
    kWriterPendingSets,
    kNumSlots,
  };

  std::atomic<uint64_t> slots[kNumSlots] = {};
  // Pessimistic acquirers that found the word held by an OCC committer and
  // had to spin for it.
  std::atomic<uint64_t>& writer_waits = slots[kWriterWaits];
  // Spins that crossed the starvation threshold and raised the pending flag.
  std::atomic<uint64_t>& writer_pending_sets = slots[kWriterPendingSets];

  // Every slot's count, indexed by Slot (the values kSwOccWordRows reads).
  std::vector<uint64_t> Counts() const {
    std::vector<uint64_t> counts(kNumSlots);
    for (int i = 0; i < kNumSlots; ++i) {
      counts[i] = slots[i].load(std::memory_order_relaxed);
    }
    return counts;
  }

  void Reset() {
    for (std::atomic<uint64_t>& slot : slots) {
      slot.store(0, std::memory_order_relaxed);
    }
  }
};

inline constexpr support::CounterRow kSwOccWordRows[] = {
    {SwOccWordStats::kWriterWaits, 1, "writer_waits",
     "Pessimistic acquirers that spun on a word held by an OCC committer."},
    {SwOccWordStats::kWriterPendingSets, 1, "writer_pending_sets",
     "Starved acquirers that raised the writer-pending flag."},
};

SwOccWordStats& GlobalSwOccWordStats();

// Failed acquisition rounds before a pessimistic acquirer raises the
// writer-pending flag (starvation detection: OCC episodes then treat the
// word as held until this writer gets through).
inline constexpr int kOccWriterStarvationSpins = 64;

// Exclusive acquisition of an occ word by a pessimistic lock holder (called
// *after* winning the mutex's own state-word race, so the only competition
// is a briefly-publishing OCC committer). Spins with pause; raises the
// pending flag past kOccWriterStarvationSpins failed rounds. The CASes are
// seq_cst: each is the holder's side of the Dekker pair with a SimTM
// committer that locks its written cells and then validates this word
// (DESIGN.md §4.2).
void OccWordAcquireExclusive(std::atomic<uint64_t>* word);

// Release half: clears the exclusive flag (keeping the bumped version) with
// release ordering. fetch_sub preserves a concurrently-raised pending flag.
// Tolerates a word that is not exclusive (misuse recovery paths unlock
// defensively); poison is left untouched.
inline void OccWordReleaseExclusive(std::atomic<uint64_t>* word) {
  const uint64_t w = word->load(std::memory_order_relaxed);
  if (OccIsExclusive(w) && !OccIsPoisoned(w)) {
    word->fetch_sub(kOccExclusiveBit, std::memory_order_release);
  }
}

}  // namespace gocc::htm

#endif  // GOCC_SRC_HTM_SWOCC_H_
