// Mergeable log-linear latency histogram for per-op percentile estimates.
//
// Layout: 64 power-of-two major buckets (one per bit position of the
// nanosecond value) × 4 linear sub-buckets each, i.e. HdrHistogram with
// 2 significant bits. Relative quantile error is bounded by 1/4 of the
// bucket width (≤ ~12.5%), which is plenty for p50/p99 reporting while
// keeping the footprint at 2 KiB per instance.
//
// Instances are NOT thread-safe: each worker thread records into its own
// histogram and the harness Merge()s them after the threads join. This
// keeps Record() to an increment of a plain uint64_t — no atomics on the
// measured path.

#ifndef GOCC_SRC_SUPPORT_HISTOGRAM_H_
#define GOCC_SRC_SUPPORT_HISTOGRAM_H_

#include <cstdint>
#include <cstring>

namespace gocc::support {

class LatencyHistogram {
 public:
  static constexpr int kMajorBuckets = 64;
  static constexpr int kSubBuckets = 4;
  static constexpr int kNumBuckets = kMajorBuckets * kSubBuckets;

  LatencyHistogram() { Reset(); }

  void Reset() {
    std::memset(counts_, 0, sizeof(counts_));
    total_ = 0;
  }

  void Record(uint64_t ns) { RecordBucket(BucketFor(ns)); }

  // Bucket-id record path: a caller that batches samples keeps only the
  // bucket id (it fits in a byte) and records it later; the counts are
  // exactly those Record(ns) would have produced.
  void RecordBucket(int bucket) { ++counts_[bucket]; ++total_; }

  void Merge(const LatencyHistogram& other) {
    for (int i = 0; i < kNumBuckets; ++i) {
      counts_[i] += other.counts_[i];
    }
    total_ += other.total_;
  }

  uint64_t TotalCount() const { return total_; }

  // Value at quantile q in [0, 1]: the representative (midpoint) value of
  // the first bucket whose cumulative count reaches q * total. Returns 0
  // for an empty histogram.
  uint64_t ValueAtQuantile(double q) const {
    if (total_ == 0) {
      return 0;
    }
    if (q < 0.0) {
      q = 0.0;
    } else if (q > 1.0) {
      q = 1.0;
    }
    uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(total_));
    if (rank >= total_) {
      rank = total_ - 1;
    }
    uint64_t seen = 0;
    for (int i = 0; i < kNumBuckets; ++i) {
      seen += counts_[i];
      if (seen > rank) {
        return BucketMidpoint(i);
      }
    }
    return BucketMidpoint(kNumBuckets - 1);
  }

  uint64_t P50() const { return ValueAtQuantile(0.50); }
  uint64_t P99() const { return ValueAtQuantile(0.99); }
  uint64_t P999() const { return ValueAtQuantile(0.999); }

  // Values 0..7 map linearly onto the first two major buckets so tiny
  // samples stay exact; beyond that, the top bit selects the major bucket
  // and the next two bits the sub-bucket.
  static int BucketFor(uint64_t ns) {
    if (ns < 8) {
      return static_cast<int>(ns);
    }
    const int msb = 63 - __builtin_clzll(ns);
    const int sub = static_cast<int>((ns >> (msb - 2)) & 3);
    return (msb - 1) * kSubBuckets + sub;
  }

 private:
  static uint64_t BucketMidpoint(int bucket) {
    if (bucket < 8) {
      return static_cast<uint64_t>(bucket);
    }
    const int msb = bucket / kSubBuckets + 1;
    const int sub = bucket % kSubBuckets;
    const uint64_t lo =
        (uint64_t{1} << msb) | (static_cast<uint64_t>(sub) << (msb - 2));
    const uint64_t width = uint64_t{1} << (msb - 2);
    return lo + width / 2;
  }

  uint64_t counts_[kNumBuckets];
  uint64_t total_;
};

// Sliding-window percentile estimator: a ring of LatencyHistogram windows.
// Record() lands in the current window; Advance(tick) rotates to a new
// window whenever the (caller-defined, monotone) tick moves forward,
// clearing the windows that fell off the back. Quantile queries merge the
// surviving windows, so the estimate reflects only the last kWindows ticks
// — a shard that was slow five seconds ago but has recovered stops looking
// slow once its fat samples age out.
//
// Like LatencyHistogram, instances are NOT thread-safe; the service layer
// (service::LatencyWindow) batches each thread's bucket ids and drains
// them into the shard's one estimator under a short spinlock.
class WindowedPercentile {
 public:
  static constexpr int kWindows = 4;

  WindowedPercentile() { Reset(); }

  void Reset() {
    for (auto& w : windows_) {
      w.Reset();
    }
    current_ = 0;
    last_tick_ = 0;
  }

  // Rotates the ring forward to `tick`. Ticks are monotone: a tick at or
  // before the last observed one is ignored (returns false) so callers can
  // feed racy clock reads without tearing the window. Advancing by k ticks
  // clears k windows (all of them once k >= kWindows).
  bool Advance(uint64_t tick) {
    if (tick <= last_tick_) {
      return false;
    }
    uint64_t steps = tick - last_tick_;
    if (steps > static_cast<uint64_t>(kWindows)) {
      steps = kWindows;
    }
    for (uint64_t i = 0; i < steps; ++i) {
      current_ = (current_ + 1) % kWindows;
      windows_[current_].Reset();
    }
    last_tick_ = tick;
    return true;
  }

  void Record(uint64_t ns) { windows_[current_].Record(ns); }
  void RecordBucket(int bucket) { windows_[current_].RecordBucket(bucket); }

  uint64_t LastTick() const { return last_tick_; }

  uint64_t TotalCount() const {
    uint64_t total = 0;
    for (const auto& w : windows_) {
      total += w.TotalCount();
    }
    return total;
  }

  // Quantile over the merged live windows. Returns 0 when every window is
  // empty — callers treat "no data" as "no shedding signal".
  uint64_t ValueAtQuantile(double q) const {
    LatencyHistogram merged;
    for (const auto& w : windows_) {
      merged.Merge(w);
    }
    return merged.ValueAtQuantile(q);
  }

  uint64_t P50() const { return ValueAtQuantile(0.50); }
  uint64_t P99() const { return ValueAtQuantile(0.99); }

 private:
  LatencyHistogram windows_[kWindows];
  int current_ = 0;
  uint64_t last_tick_ = 0;
};

}  // namespace gocc::support

#endif  // GOCC_SRC_SUPPORT_HISTOGRAM_H_
