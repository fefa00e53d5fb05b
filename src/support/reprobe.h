// Rate-limited re-probe gate: the service tier's quarantined shards use it
// to re-admit one probe request per cooldown (service.h, ShardHealth).
//
// A probe is cheap but not free (a real request routed at a quarantined
// shard), and probing on every trigger turns a persistent fault into a
// probe storm. Due() returns true at most once per interval across any
// number of concurrent callers (CAS-claimed, so exactly one thread wins
// each slot), and everything else keeps using the fallback path.
//
// Wall-clock-free callers: Due(now_ms) accepts an externally supplied
// monotone millisecond clock so tests and the DES can drive the gate
// deterministically; Due() uses steady_clock.

#ifndef GOCC_SRC_SUPPORT_REPROBE_H_
#define GOCC_SRC_SUPPORT_REPROBE_H_

#include <atomic>
#include <chrono>
#include <cstdint>

namespace gocc::support {

class Reprobe {
 public:
  explicit Reprobe(uint64_t interval_ms) : interval_ms_(interval_ms) {}

  uint64_t interval_ms() const { return interval_ms_; }

  // True at most once per interval: the winning caller owns the probe and
  // everyone else (including other threads racing the same instant) gets
  // false until the interval elapses again. An interval of 0 ms degenerates
  // to "every caller probes".
  bool Due() { return Due(NowMs()); }

  bool Due(uint64_t now_ms) {
    uint64_t due = next_due_ms_.load(std::memory_order_relaxed);
    while (now_ms >= due) {
      if (next_due_ms_.compare_exchange_weak(due, now_ms + interval_ms_,
                                             std::memory_order_relaxed)) {
        return true;
      }
    }
    return false;
  }

  // Pushes the next probe a full interval out from `now`. Quarantine entry
  // calls this so the first re-probe happens only after the cooldown, not
  // on the very next request.
  void Defer() { Defer(NowMs()); }
  void Defer(uint64_t now_ms) {
    next_due_ms_.store(now_ms + interval_ms_, std::memory_order_relaxed);
  }

  // Makes the next Due() fire regardless of elapsed time (tests, operator
  // "probe now" escape hatch).
  void ForceNext() { next_due_ms_.store(0, std::memory_order_relaxed); }

  // Re-initializes interval and clock (owner reconfiguration; instances
  // hold an atomic so they are deliberately not copyable).
  void Reinit(uint64_t interval_ms) {
    interval_ms_ = interval_ms;
    next_due_ms_.store(0, std::memory_order_relaxed);
  }

  static uint64_t NowMs() {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

 private:
  std::atomic<uint64_t> next_due_ms_{0};
  uint64_t interval_ms_;
};

}  // namespace gocc::support

#endif  // GOCC_SRC_SUPPORT_REPROBE_H_
