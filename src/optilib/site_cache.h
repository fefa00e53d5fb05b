// Per-site inline decision cache (DESIGN.md §4.11).
//
// The steady state of an uncontended instrumented site is that every episode
// re-derives the same verdict: consult the perceptron, pick the backend,
// speculate, commit. This table memoizes that verdict per call-site cell so
// the next episode's decision is one epoch-tagged relaxed load + compare
// instead of the perceptron dot-product and the breaker/watchdog checks.
//
// Coherence is by global epoch, not per-cell invalidation protocols: every
// cell word carries the decision epoch it was minted under, and any event
// that could change a verdict — PublishOptiConfig, a watchdog trip, an RTM
// demotion, ResetHardeningState, InvalidateSiteDecisionCaches — bumps the
// epoch, invalidating all 4096 cells in O(1). Stale cells can never match
// again (the epoch is monotone and never reused; epoch 0 is a permanent
// never-valid sentinel). The same epoch keys each OptiLock's config
// snapshot, so a bump also makes every episode re-read the live config.
//
// The cache is strictly a performance hint, never a soundness carrier:
//  * An elide verdict only short-circuits the *decision*; the episode still
//    begins a real transaction, subscribes the lock word, and validates at
//    commit, so a wrong verdict costs one abort, not correctness.
//  * Elide verdicts are tagged with the backend they were minted under and
//    are ignored when the active backend has changed.
//  * Cells are neither consulted nor installed while the circuit breaker or
//    watchdog is enabled — hardening admission must run every episode.
//  * A lock verdict that has gone stale (weights drifted positive under an
//    aliasing site) is bounded by the perceptron's slow-streak decay, which
//    the cached-lock path keeps feeding; the decay reset invalidates the
//    cell and the next episode re-probes.

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

  enum Verdict : uint32_t {
    kMiss = 0,   // empty cell / wrong epoch
    kElide = 1,  // speculate on the tagged backend
    kLock = 2,   // perceptron said lock; skip the dot-product, keep decay
  };

  struct Decision {
    Verdict verdict;
    uint32_t backend;  // htm::Backend an elide verdict was minted under
  };

  // Current decision epoch. Acquire: a reader that observes a new epoch
  // must also observe the (config) writes published before the bump.
  uint64_t Epoch() const { return epoch_.load(std::memory_order_acquire); }

  // Invalidates every cached verdict in O(1). Release pairs with Epoch()'s
  // acquire so the bump is ordered after the state change it reports.
  void BumpEpoch() { epoch_.fetch_add(1, std::memory_order_release); }

  Decision Lookup(uint32_t cell, uint64_t epoch) const {
    const uint64_t word =
        cells_[cell & (kTableSize - 1)].word.load(std::memory_order_relaxed);
    if ((word >> kEpochShift) != epoch) {
      return {kMiss, 0};
    }
    return {static_cast<Verdict>(word & kVerdictMask),
            static_cast<uint32_t>((word >> kBackendShift) & kBackendMask)};
  }

  void Install(uint32_t cell, uint64_t epoch, Verdict v, uint32_t backend) {
    std::atomic<uint64_t>& w = cells_[cell & (kTableSize - 1)].word;
    const uint64_t packed = (epoch << kEpochShift) |
                            (static_cast<uint64_t>(backend) << kBackendShift) |
                            static_cast<uint64_t>(v);
    // Redundant-store elision: steady state re-installs the same verdict,
    // and a silent load keeps the line shared instead of dirtying it.
    if (w.load(std::memory_order_relaxed) != packed) {
      w.store(packed, std::memory_order_relaxed);
    }
  }

  // Clears one cell; returns true when it actually held a verdict (the
  // invalidation counters only count real evictions).
  bool Invalidate(uint32_t cell) {
    std::atomic<uint64_t>& w = cells_[cell & (kTableSize - 1)].word;
    if (w.load(std::memory_order_relaxed) == 0) {
      return false;
    }
    w.store(0, std::memory_order_relaxed);
    return true;
  }

 private:
  static constexpr uint64_t kVerdictMask = 3;
  static constexpr int kBackendShift = 2;
  static constexpr uint64_t kBackendMask = 3;
  static constexpr int kEpochShift = 4;

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
