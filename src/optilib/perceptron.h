// Hashed-perceptron HTM/lock predictor (§5.4.1).
//
// Two 4096-entry global weight tables (GWT). Features, exactly as in the
// paper: (a) the Mutex address XOR'd with the OptiLock address (the XOR
// de-conflicts updates to the same Mutex from different goroutines), and
// (b) the OptiLock address alone, standing in for the calling context.
// Prediction sums the two indexed weights; >= 0 means "use HTM". Weights
// saturate in [-16, 15]. Reads and updates are deliberately racy relaxed
// atomics — "perfection is not required here, but high-performance is".
//
// Weight decay: each cell counts consecutive perceptron-directed slow-path
// decisions; at the threshold (1000) the cell resets so HTM is re-probed
// after a phase change.
//
// Layout: cells are cache-line padded and trained cells elide redundant
// stores, so in steady state a committing episode reads its two cells but
// writes nothing shared (see DESIGN.md "fast-path cost model").
//
// Per-site decision cache (DESIGN.md §4.11): each mutex-table cell also
// holds a memoized elide verdict, the decision epoch it was minted under
// (0 = none). A matching verdict stands in for the dot-product, and it sits
// on the line the commit's reward reads anyway, so the cache costs no table
// and no extra line. Only elide verdicts are cached: a lock verdict keyed
// on this cell alone would outlive the prediction, because Predict() also
// reads the site's context cell, which commits of every other mutex locked
// at that site raise. A cached elide verdict does not follow the weights
// either: it stands until an episode at the cell falls back to the lock
// (which evicts it) or the epoch moves, so it ignores later drops of the
// context cell that the uncached decision would have obeyed. The verdict is
// a performance hint only: the episode still subscribes, validates and
// commits a real transaction, so a stale one costs one abort. Reset()
// zeroes weights and streaks but leaves verdicts to the epoch.

#ifndef GOCC_SRC_OPTILIB_PERCEPTRON_H_
#define GOCC_SRC_OPTILIB_PERCEPTRON_H_

#include <atomic>
#include <cstdint>

namespace gocc::optilib {

class Perceptron {
 public:
  static constexpr uint32_t kTableSize = 4096;
  static constexpr int32_t kWeightMin = -16;
  static constexpr int32_t kWeightMax = 15;
  static constexpr uint32_t kDecayThreshold = 1000;

  struct Indices {
    uint32_t mutex_cell;    // index into the mutex-feature table
    uint32_t context_cell;  // index into the calling-context table
  };

  // Computes the two table indices for a (mutex, call site) pair.
  static Indices IndicesFor(const void* mutex, const void* opti_lock) {
    auto m = reinterpret_cast<uintptr_t>(mutex);
    auto c = reinterpret_cast<uintptr_t>(opti_lock);
    Indices idx;
    idx.mutex_cell = Hash(m ^ c);
    idx.context_cell = Hash(c);
    return idx;
  }

  // Computes the table indices for a (lock set, call site) pair. The mutex
  // feature becomes the combined footprint of the whole set — a commutative
  // mix of every member address (the set arrives address-sorted, but the
  // mix is order-independent anyway) — XOR'd with the site, and both cells
  // fold in the set size so a 2-lock and a 4-lock episode through the same
  // site train separate weights: their conflict footprints, and therefore
  // their abort economics, differ. Single-element sets deliberately do NOT
  // reduce to IndicesFor: a multi-lock call site is a different context
  // than a single-lock one even over the same mutex.
  static Indices IndicesForSet(const void* const* mutexes, int count,
                               const void* opti_lock) {
    auto c = reinterpret_cast<uintptr_t>(opti_lock);
    uintptr_t footprint = 0;
    for (int i = 0; i < count; ++i) {
      // Golden-ratio spread before summing so member addresses that differ
      // only in low bits still land the set in distinct cells.
      footprint += reinterpret_cast<uintptr_t>(mutexes[i]) *
                   uintptr_t{0x9e3779b97f4a7c15ULL};
    }
    // Salts sit inside Hash's live bit window [4, 16).
    const auto size_salt = static_cast<uintptr_t>(count);
    Indices idx;
    idx.mutex_cell = Hash(footprint ^ c ^ (size_salt << 10));
    idx.context_cell = Hash(c ^ (size_salt << 7));
    return idx;
  }

  // True when the summed weights recommend attempting HTM.
  bool Predict(Indices idx) const {
    int32_t sum =
        mutex_table_[idx.mutex_cell].weight.load(std::memory_order_relaxed) +
        context_table_[idx.context_cell].weight.load(
            std::memory_order_relaxed);
    return sum >= 0;
  }

  // Rewards a correct HTM prediction (fast-path success): +1, saturating.
  // Also clears the decay counters (paper: lockCounter = 0). Streak stores
  // are skipped when already zero: in steady state every fast commit would
  // otherwise dirty the cell's line even though nothing changed.
  void RewardHtm(Indices idx) {
    BumpWeight(mutex_table_[idx.mutex_cell], +1);
    BumpWeight(context_table_[idx.context_cell], +1);
    ClearStreak(mutex_table_[idx.mutex_cell]);
    ClearStreak(context_table_[idx.context_cell]);
  }

  // Penalizes an incorrect HTM prediction (HTM attempted, fell back): -1.
  void PenalizeHtm(Indices idx) {
    BumpWeight(mutex_table_[idx.mutex_cell], -1);
    BumpWeight(context_table_[idx.context_cell], -1);
  }

  // Penalizes a sw-OCC validation failure: -2. A failed validation already
  // paid for the whole critical section (the hardware cuts an HTM abort
  // short; software validation only runs at commit), so the wasted work is
  // roughly twice what a clean elided commit wins back. Weighting the
  // penalty accordingly lets sites whose episodes commit only after
  // burning retries drift negative — an outcome-only ±1 signal would keep
  // rewarding them forever (one +1 commit outweighs an 0.6-retries/op
  // average).
  void PenalizeOccValidation(Indices idx) {
    BumpWeight(mutex_table_[idx.mutex_cell], -2);
    BumpWeight(context_table_[idx.context_cell], -2);
  }

  // Records a perceptron-directed slow-path decision; when a cell's streak
  // reaches the threshold, the cell resets so HTM gets re-probed. Returns
  // true if any cell was reset by this call.
  bool NoteSlowDecision(Indices idx) {
    bool reset = NoteSlowOnCell(mutex_table_[idx.mutex_cell]);
    reset |= NoteSlowOnCell(context_table_[idx.context_cell]);
    return reset;
  }

  // Summed weight for inspection by tests.
  int32_t WeightSum(Indices idx) const {
    return mutex_table_[idx.mutex_cell].weight.load(
               std::memory_order_relaxed) +
           context_table_[idx.context_cell].weight.load(
               std::memory_order_relaxed);
  }

  // True when the mutex cell holds an elide verdict minted under `epoch`.
  bool HoldsElide(Indices idx, uint64_t epoch) const {
    return mutex_table_[idx.mutex_cell].elide_epoch.load(
               std::memory_order_relaxed) == epoch;
  }

  // Memoizes an elide verdict under `epoch`. Redundant-store elision: the
  // steady state re-installs the same verdict, and a silent load keeps the
  // line shared instead of dirtying it.
  void InstallElide(Indices idx, uint64_t epoch) {
    std::atomic<uint64_t>& v = mutex_table_[idx.mutex_cell].elide_epoch;
    if (v.load(std::memory_order_relaxed) != epoch) {
      v.store(epoch, std::memory_order_relaxed);
    }
  }

  // Evicts the mutex cell's verdict, whatever its epoch; returns true only
  // when the verdict was minted under `epoch` (what the invalidation counter
  // counts: a verdict of an older epoch could never be served again).
  bool InvalidateElide(Indices idx, uint64_t epoch) {
    std::atomic<uint64_t>& v = mutex_table_[idx.mutex_cell].elide_epoch;
    const uint64_t held = v.load(std::memory_order_relaxed);
    if (held == 0) {
      return false;
    }
    v.store(0, std::memory_order_relaxed);
    return held == epoch;
  }

  // Zeroes every cell's weight and streak (benchmark isolation); verdicts
  // are retired by the decision epoch, not here. Cells already zero are
  // only read, so a reset neither dirties their lines nor faults in table
  // pages no episode has touched.
  void Reset() {
    for (uint32_t i = 0; i < kTableSize; ++i) {
      ClearCell(mutex_table_[i]);
      ClearCell(context_table_[i]);
    }
  }

 private:
  // One cell per cache line: unpadded, eight 8-byte cells share a line, so
  // two unrelated hot (mutex, call-site) pairs hashing to adjacent cells
  // ping-pong that line between their threads even though their locks are
  // disjoint. 64-byte alignment trades table footprint (2 x 256 KiB,
  // cold cells are never faulted in) for zero cross-cell false sharing.
  // The padding also houses the cached elide verdict (used in mutex cells
  // only), so the decision's cache load and the commit's reward share one
  // line.
  struct alignas(64) Cell {
    std::atomic<int32_t> weight{0};
    std::atomic<uint32_t> slow_streak{0};
    std::atomic<uint64_t> elide_epoch{0};
  };
  static_assert(sizeof(Cell) == 64,
                "the verdict word and the weight share one 64-B cell");

  static uint32_t Hash(uintptr_t key) {
    // OptiLocks are word-aligned; drop the dead low bits, then take the
    // lower 12 bits as the paper does.
    return static_cast<uint32_t>(key >> 4) & (kTableSize - 1);
  }

  static void BumpWeight(Cell& cell, int32_t delta) {
    int32_t w = cell.weight.load(std::memory_order_relaxed);
    int32_t next = w + delta;
    if (next < kWeightMin) {
      next = kWeightMin;
    } else if (next > kWeightMax) {
      next = kWeightMax;
    }
    // Racy store, as in the paper: lost updates are tolerated. Saturated
    // cells skip the store — a trained, always-committing site would
    // otherwise redraw its cell's line into M state on every episode.
    if (next != w) {
      cell.weight.store(next, std::memory_order_relaxed);
    }
  }

  static void ClearStreak(Cell& cell) {
    if (cell.slow_streak.load(std::memory_order_relaxed) != 0) {
      cell.slow_streak.store(0, std::memory_order_relaxed);
    }
  }

  static void ClearCell(Cell& cell) {
    if (cell.weight.load(std::memory_order_relaxed) != 0) {
      cell.weight.store(0, std::memory_order_relaxed);
    }
    ClearStreak(cell);
  }

  static bool NoteSlowOnCell(Cell& cell) {
    uint32_t streak =
        cell.slow_streak.fetch_add(1, std::memory_order_relaxed) + 1;
    if (streak >= kDecayThreshold) {
      cell.weight.store(0, std::memory_order_relaxed);
      cell.slow_streak.store(0, std::memory_order_relaxed);
      return true;
    }
    return false;
  }

  Cell mutex_table_[kTableSize];
  Cell context_table_[kTableSize];
};

// The process-wide predictor used by OptiLock.
Perceptron& GlobalPerceptron();

}  // namespace gocc::optilib

#endif  // GOCC_SRC_OPTILIB_PERCEPTRON_H_
