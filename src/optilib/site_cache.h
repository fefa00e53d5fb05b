// Per-site inline decision cache (DESIGN.md §4.11).
//
// The steady state of an uncontended instrumented site is that every episode
// re-derives the same verdict: consult the perceptron, pick the backend,
// speculate, commit. This table memoizes that elide verdict per call-site
// cell so the next episode's decision is one relaxed load + compare instead
// of the perceptron dot-product.
//
// Only elide verdicts are cached. A lock verdict keyed on the (mutex ^ site)
// cell alone would outlive the prediction: Predict() also reads the call
// site's context cell, which commits of every other mutex locked at that
// site raise. So every slow decision runs the dot-product.
//
// Coherence is by global epoch, not per-cell invalidation protocols: every
// cell word carries the decision epoch it was minted under, and any event
// that could change a verdict — PublishOptiConfig, ResetHardeningState —
// bumps the epoch, invalidating all 4096 cells in O(1). Stale cells can
// never match again (the epoch is monotone and never reused; epoch 0 is a
// permanent never-valid sentinel). The same epoch keys each OptiLock's
// config snapshot, so a bump also makes every episode re-read the live
// config.
//
// The cache is strictly a performance hint, never a soundness carrier:
//  * An elide verdict only short-circuits the *decision*; the episode still
//    begins a real transaction, subscribes the lock word, and validates at
//    commit, so a wrong verdict costs one abort, not correctness.
//  * Cells carry no backend tag. The backend changes only while no episode
//    is in flight, and the software-eligibility check that follows a hit
//    refuses a verdict the new backend cannot honour (an untracked mutex,
//    or an RWMutex write section under sw-OCC).
//  * A cached elide verdict does not follow the weights: it stands until an
//    episode at the cell falls back to the lock (which evicts it) or the
//    epoch moves. So it also ignores later drops of the context cell, which
//    failures of other mutexes at the same site can push negative; the
//    uncached decision would have said lock after those drops.

#ifndef GOCC_SRC_OPTILIB_SITE_CACHE_H_
#define GOCC_SRC_OPTILIB_SITE_CACHE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace gocc::optilib {

class SiteCache {
 public:
  // Shares the perceptron's 4096-cell index space (Perceptron::Indices
  // mutex_cell), so a site's predictor state and cached verdict alias the
  // same way and invalidation reasoning carries over.
  static constexpr size_t kTableSize = 4096;

  // Current decision epoch. Acquire: a reader that observes a new epoch
  // must also observe the (config) writes published before the bump.
  uint64_t Epoch() const { return epoch_.load(std::memory_order_acquire); }

  // Invalidates every cached verdict in O(1). Release pairs with Epoch()'s
  // acquire so the bump is ordered after the state change it reports.
  void BumpEpoch() { epoch_.fetch_add(1, std::memory_order_release); }

  // True when `cell` holds an elide verdict minted under `epoch`.
  bool HoldsElide(uint32_t cell, uint64_t epoch) const {
    return cells_[cell & (kTableSize - 1)].word.load(
               std::memory_order_relaxed) == epoch;
  }

  void InstallElide(uint32_t cell, uint64_t epoch) {
    std::atomic<uint64_t>& w = cells_[cell & (kTableSize - 1)].word;
    // Redundant-store elision: steady state re-installs the same verdict,
    // and a silent load keeps the line shared instead of dirtying it.
    if (w.load(std::memory_order_relaxed) != epoch) {
      w.store(epoch, std::memory_order_relaxed);
    }
  }

  // Clears one cell; returns true when it actually held a verdict (the
  // invalidation counters only count real evictions). Epochs start at 1,
  // so a verdict is never the empty word 0.
  bool Invalidate(uint32_t cell) {
    std::atomic<uint64_t>& w = cells_[cell & (kTableSize - 1)].word;
    if (w.load(std::memory_order_relaxed) == 0) {
      return false;
    }
    w.store(0, std::memory_order_relaxed);
    return true;
  }

 private:
  // One cell per cache line: a site's verdict load never false-shares with
  // a neighbouring site's install (same padding rationale as perceptron.h).
  struct alignas(64) Cell {
    std::atomic<uint64_t> word{0};
  };

  std::atomic<uint64_t> epoch_{1};  // 0 is the never-valid sentinel
  Cell cells_[kTableSize];
};

}  // namespace gocc::optilib

#endif  // GOCC_SRC_OPTILIB_SITE_CACHE_H_
