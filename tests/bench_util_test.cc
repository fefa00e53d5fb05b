// Latency-percentile plumbing shared by the benches: the log-linear
// histogram (src/support/histogram.h) and the per-thread recorder /
// batch-timed loop in bench/bench_util.h. The histogram trades memory for
// a bounded ~12.5% relative bucket error; the tests below pin both the
// exact small-value region and that bound, plus the deterministic
// pace-bound interaction of BatchTimedLoop and the workload-shape
// environment readers.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <thread>

#include "bench/bench_util.h"
#include "src/gopool/gopool.h"
#include "src/support/histogram.h"

namespace gocc::bench {
namespace {

TEST(LatencyHistogramTest, EmptyHistogramReportsZero) {
  support::LatencyHistogram h;
  EXPECT_EQ(h.TotalCount(), 0u);
  EXPECT_EQ(h.P50(), 0u);
  EXPECT_EQ(h.P999(), 0u);
}

TEST(LatencyHistogramTest, SmallValuesAreExact) {
  // 0..7 occupy dedicated unit-width buckets, so tiny fast-path latencies
  // round-trip exactly.
  support::LatencyHistogram h;
  for (uint64_t v = 0; v < 8; ++v) {
    h.Record(v);
  }
  EXPECT_EQ(h.TotalCount(), 8u);
  EXPECT_EQ(h.P50(), 4u);
  EXPECT_EQ(h.P999(), 7u);
}

TEST(LatencyHistogramTest, QuantilesOfKnownDistributionWithinBucketError) {
  support::LatencyHistogram h;
  for (uint64_t v = 1; v <= 1000; ++v) {
    h.Record(v);
  }
  // Log-linear with 4 sub-buckets bounds relative error at ~12.5%; allow a
  // little slack for the midpoint representative.
  EXPECT_NEAR(static_cast<double>(h.P50()), 500.0, 500.0 * 0.15);
  EXPECT_NEAR(static_cast<double>(h.P99()), 990.0, 990.0 * 0.15);
  EXPECT_GE(h.P999(), h.P99());
  EXPECT_GE(h.P99(), h.P50());
}

TEST(LatencyHistogramTest, MergeAndResetCombineCounts) {
  support::LatencyHistogram a, b;
  for (int i = 0; i < 150; ++i) {
    a.Record(10);
  }
  for (int i = 0; i < 50; ++i) {
    b.Record(1000);
  }
  a.Merge(b);
  EXPECT_EQ(a.TotalCount(), 200u);
  // Three quarters of the mass at ~10, a quarter at ~1000: the median sits
  // in the low mode, the tail in the high one.
  EXPECT_LT(a.P50(), 20u);
  EXPECT_GT(a.P999(), 800u);
  a.Reset();
  EXPECT_EQ(a.TotalCount(), 0u);
  EXPECT_EQ(a.P999(), 0u);
}

TEST(PercentileRecorderTest, ClaimsMergeIntoOneSummary) {
  PercentileRecorder rec(2);
  support::LatencyHistogram& h0 = rec.Claim();
  support::LatencyHistogram& h1 = rec.Claim();
  EXPECT_NE(&h0, &h1);
  // A third claim wraps back to the first slot.
  EXPECT_EQ(&rec.Claim(), &h0);
  for (int i = 0; i < 150; ++i) {
    h0.Record(8);
  }
  for (int i = 0; i < 50; ++i) {
    h1.Record(800);
  }
  const LatencySummary s = rec.Summarize();
  EXPECT_EQ(s.samples, 200u);
  EXPECT_LT(s.p50_ns, 20.0);
  EXPECT_GT(s.p999_ns, 600.0);

  rec.Reset();
  EXPECT_EQ(rec.Summarize().samples, 0u);
}

TEST(PercentileRecorderTest, FillStampsRecordOnlyWhenSamplesExist) {
  JsonRecord cell;
  LatencySummary empty;
  PercentileRecorder::Fill(empty, &cell);
  EXPECT_EQ(cell.p50_ns, 0.0);
  EXPECT_EQ(cell.p999_ns, 0.0);

  LatencySummary s;
  s.p50_ns = 12.0;
  s.p99_ns = 40.0;
  s.p999_ns = 90.0;
  s.samples = 64;
  PercentileRecorder::Fill(s, &cell);
  EXPECT_EQ(cell.p50_ns, 12.0);
  EXPECT_EQ(cell.p99_ns, 40.0);
  EXPECT_EQ(cell.p999_ns, 90.0);
}

TEST(BatchTimedLoopTest, DrainsPaceBoundAndRecordsOneSamplePerFullBatch) {
  // PB checks its stop flag every 64 grants, so flipping stop after the
  // 100th op ends the window at exactly 128 grants: four full batches of
  // kLatencyBatch (32), then a fifth batch that grants nothing.
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> ops{0};
  support::LatencyHistogram hist;
  uint64_t executed = 0;
  {
    gopool::PB pb(&stop, &ops);
    BatchTimedLoop(pb, &hist, [&] {
      if (++executed == 100) {
        stop.store(true, std::memory_order_relaxed);
      }
    });
  }
  EXPECT_EQ(executed, 128u);
  EXPECT_EQ(ops.load(), 128u);
  EXPECT_EQ(hist.TotalCount(), 4u);
}

TEST(BatchTimedLoopTest, PartialFinalBatchIsStillRecorded) {
  // Stop flag already set: the first Next() check (granted_ == 0) fails
  // immediately, so nothing runs and nothing is recorded.
  std::atomic<bool> stop{true};
  std::atomic<uint64_t> ops{0};
  support::LatencyHistogram hist;
  uint64_t executed = 0;
  {
    gopool::PB pb(&stop, &ops);
    BatchTimedLoop(pb, &hist, [&] { ++executed; });
  }
  EXPECT_EQ(executed, 0u);
  EXPECT_EQ(hist.TotalCount(), 0u);

  // A custom batch of 64 aligned with the stop-check period records the
  // full window: stop at op 64 -> one complete batch, second batch empty.
  stop.store(false);
  executed = 0;
  {
    gopool::PB pb(&stop, &ops);
    BatchTimedLoop(
        pb, &hist,
        [&] {
          if (++executed == 64) {
            stop.store(true, std::memory_order_relaxed);
          }
        },
        /*batch=*/64);
  }
  EXPECT_EQ(executed, 64u);
  EXPECT_EQ(hist.TotalCount(), 1u);
}

// The workload-shape readers keep the default for text that does not parse
// whole or a value outside [lo, hi], instead of atoi/atof's silent 0.
TEST(BenchEnvTest, MalformedOrOutOfRangeShapesKeepTheDefault) {
  constexpr const char* kVar = "GOCC_TEST_BENCH_SHAPE";
  const struct {
    const char* value;
    int want_int;
    double want_double;
  } cases[] = {{"", 7, 0.5},      {"abc", 7, 0.5},  {"12abc", 7, 0.5},
               {"99", 7, 0.5},    {"-1", 7, 0.5},   {"nan", 7, 0.5},
               {"3", 3, 0.5},     {"0x4", 4, 0.5},  {"0.25", 7, 0.25},
               {"1", 1, 1.0}};
  for (const auto& c : cases) {
    setenv(kVar, c.value, /*overwrite=*/1);
    EXPECT_EQ(EnvInt(kVar, 7, 1, 10), c.want_int) << '"' << c.value << '"';
    EXPECT_EQ(EnvDouble(kVar, 0.5, 0.0, 1.0), c.want_double)
        << '"' << c.value << '"';
  }
  unsetenv(kVar);
  EXPECT_EQ(EnvInt(kVar, 7, 1, 10), 7);
  EXPECT_EQ(EnvDouble(kVar, 0.5, 0.0, 1.0), 0.5);
}

}  // namespace
}  // namespace gocc::bench
