// Fine-grained latency histogram for the benchmark's percentiles.
//
// support::LatencyHistogram keeps 4 sub-buckets per power of two, so its
// buckets are up to 25% wide and a percentile can only take a handful of
// values (288, 352, 416 ns around a 300-ns op): a median over runs then
// jumps by a whole bucket when the true value crosses an edge. This one
// counts values below 256 exactly and splits every power of two above into
// 128 linear sub-buckets, so no bucket is wider than 1/128 (0.78%) of the
// values it holds, and Quantile() interpolates inside the bucket.
//
// Not thread-safe: each client records into its own instance and the
// harness merges them after the clients join.

#ifndef GOCC_PERFBENCH_HIST_H_
#define GOCC_PERFBENCH_HIST_H_

#include <cstdint>
#include <vector>

namespace gocc::perfbench {

class FineHistogram {
 public:
  static constexpr int kLinear = 256;  // values below are their own bucket
  static constexpr int kSubBits = 7;   // 128 sub-buckets per power of two
  static constexpr int kSub = 1 << kSubBits;
  static constexpr int kFirstMsb = 8;  // 2^8 == kLinear
  static constexpr int kMaxMsb = 44;   // larger values land in the top bucket
  static constexpr int kBuckets = kLinear + (kMaxMsb - kFirstMsb + 1) * kSub;

  void Record(uint64_t v) {
    ++counts_[static_cast<size_t>(BucketFor(v))];
    ++total_;
  }

  void Merge(const FineHistogram& other) {
    for (int i = 0; i < kBuckets; ++i) {
      counts_[static_cast<size_t>(i)] += other.counts_[static_cast<size_t>(i)];
    }
    total_ += other.total_;
  }

  uint64_t Total() const { return total_; }

  // Value at quantile q in [0, 1], interpolated linearly inside the bucket
  // that holds rank q * Total(). 0 for an empty histogram.
  double Quantile(double q) const {
    if (total_ == 0) {
      return 0.0;
    }
    const double rank = q * static_cast<double>(total_);
    uint64_t seen = 0;
    for (int i = 0; i < kBuckets; ++i) {
      const uint64_t c = counts_[static_cast<size_t>(i)];
      if (c != 0 && static_cast<double>(seen + c) > rank) {
        double lo = 0.0;
        double width = 0.0;
        Bounds(i, &lo, &width);
        const double frac = (rank - static_cast<double>(seen)) /
                            static_cast<double>(c);
        return lo + frac * width;
      }
      seen += c;
    }
    double lo = 0.0;
    double width = 0.0;
    Bounds(kBuckets - 1, &lo, &width);
    return lo + width;
  }

  // [lo, lo + width) of bucket b.
  static void Bounds(int b, double* lo, double* width) {
    if (b < kLinear) {
      *lo = b;
      *width = 1.0;
      return;
    }
    const int octave = (b - kLinear) / kSub;
    const int sub = (b - kLinear) % kSub;
    const int msb = kFirstMsb + octave;
    const uint64_t w = uint64_t{1} << (msb - kSubBits);
    *lo = static_cast<double>((uint64_t{1} << msb) +
                              static_cast<uint64_t>(sub) * w);
    *width = static_cast<double>(w);
  }

  static int BucketFor(uint64_t v) {
    if (v < static_cast<uint64_t>(kLinear)) {
      return static_cast<int>(v);
    }
    const int msb = 63 - __builtin_clzll(v);
    if (msb > kMaxMsb) {
      return kBuckets - 1;
    }
    return kLinear + (msb - kFirstMsb) * kSub +
           static_cast<int>((v >> (msb - kSubBits)) & (kSub - 1));
  }

 private:
  std::vector<uint64_t> counts_ = std::vector<uint64_t>(kBuckets);
  uint64_t total_ = 0;
};

}  // namespace gocc::perfbench

#endif  // GOCC_PERFBENCH_HIST_H_
