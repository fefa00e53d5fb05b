#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/support/diff.h"
#include "src/support/histogram.h"
#include "src/support/env.h"
#include "src/support/reprobe.h"
#include "src/support/rng.h"
#include "src/support/sharded.h"
#include "src/support/stats.h"
#include "src/support/status.h"
#include "src/support/strings.h"
#include "src/support/zipf.h"
#include "tests/chaos_seed.h"

namespace gocc {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "Ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = InvalidArgumentError("bad input");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad input");
}

TEST(StatusTest, StatusOrHoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
}

TEST(StatusTest, StatusOrHoldsError) {
  StatusOr<int> v = NotFoundError("missing");
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
}

TEST(StringsTest, StrSplitKeepsEmptyPieces) {
  auto pieces = StrSplit("a,,b,", ',');
  ASSERT_EQ(pieces.size(), 4u);
  EXPECT_EQ(pieces[0], "a");
  EXPECT_EQ(pieces[1], "");
  EXPECT_EQ(pieces[2], "b");
  EXPECT_EQ(pieces[3], "");
}

TEST(StringsTest, SplitLinesIgnoresTrailingNewline) {
  auto lines = SplitLines("x\ny\n");
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "x");
  EXPECT_EQ(lines[1], "y");
}

TEST(StringsTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  a b \t\n"), "a b");
  EXPECT_EQ(StripWhitespace(""), "");
  EXPECT_EQ(StripWhitespace(" \t "), "");
}

TEST(StringsTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("m.Lock()", "m."));
  EXPECT_FALSE(StartsWith("m", "m."));
  EXPECT_TRUE(EndsWith("defer m.Unlock()", "Unlock()"));
  EXPECT_FALSE(EndsWith("Unlock", "Unlock()"));
}

TEST(StringsTest, StrFormatAndJoin) {
  EXPECT_EQ(StrFormat("%d/%s", 3, "x"), "3/x");
  EXPECT_EQ(StrJoin({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(StrJoin({}, ","), "");
}

TEST(StringsTest, ParseNumbers) {
  double d = 0;
  EXPECT_TRUE(ParseDouble(" 1.5 ", &d));
  EXPECT_DOUBLE_EQ(d, 1.5);
  EXPECT_FALSE(ParseDouble("1.5x", &d));
  int64_t i = 0;
  EXPECT_TRUE(ParseInt64("-42", &i));
  EXPECT_EQ(i, -42);
  EXPECT_FALSE(ParseInt64("4 2", &i));
}

TEST(RngTest, Deterministic) {
  SplitMix64 a(7);
  SplitMix64 b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, RangesRespected) {
  SplitMix64 rng(123);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.NextInRange(-3, 5);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 5);
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(StatsTest, GeoMeanAndMedian) {
  EXPECT_DOUBLE_EQ(GeoMean({4.0, 1.0}), 2.0);
  EXPECT_DOUBLE_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_DOUBLE_EQ(GeoMean({}), 0.0);
}

TEST(StatsTest, SpeedupPercent) {
  EXPECT_DOUBLE_EQ(SpeedupPercent(20.0, 10.0), 100.0);
  EXPECT_NEAR(SpeedupPercent(10.0, 20.0), -50.0, 1e-9);
}

TEST(StatsTest, RunningStat) {
  RunningStat rs;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    rs.Add(v);
  }
  EXPECT_EQ(rs.count(), 8u);
  EXPECT_DOUBLE_EQ(rs.mean(), 5.0);
  EXPECT_NEAR(rs.stddev(), 2.138, 1e-3);
}

TEST(DiffTest, IdenticalInputsYieldEmptyDiff) {
  EXPECT_EQ(UnifiedDiff("a", "b", "x\ny\n", "x\ny\n"), "");
}

TEST(DiffTest, SingleLineChange) {
  std::string diff =
      UnifiedDiff("old.go", "new.go", "a\nm.Lock()\nc\n",
                  "a\noptiLock1.FastLock(&m)\nc\n");
  EXPECT_NE(diff.find("--- old.go"), std::string::npos);
  EXPECT_NE(diff.find("+++ new.go"), std::string::npos);
  EXPECT_NE(diff.find("-m.Lock()"), std::string::npos);
  EXPECT_NE(diff.find("+optiLock1.FastLock(&m)"), std::string::npos);
  EXPECT_NE(diff.find(" a"), std::string::npos);
}

TEST(DiffTest, ScriptRoundTrip) {
  std::string before = "1\n2\n3\n4\n";
  std::string after = "1\nX\n3\n5\n6\n";
  auto script = DiffLines(before, after);
  // Applying the script reproduces `after`.
  std::string rebuilt;
  for (const auto& line : script) {
    if (line.op != DiffOp::kDelete) {
      rebuilt += line.text;
      rebuilt += "\n";
    }
  }
  EXPECT_EQ(rebuilt, after);
  // And removing inserts reproduces `before`.
  std::string original;
  for (const auto& line : script) {
    if (line.op != DiffOp::kInsert) {
      original += line.text;
      original += "\n";
    }
  }
  EXPECT_EQ(original, before);
}

TEST(DiffTest, HunkHeadersCountLines) {
  std::string before = "a\nb\nc\nd\ne\nf\ng\nh\ni\nj\nk\n";
  std::string after = "a\nb\nc\nd\nE\nf\ng\nh\ni\nj\nk\n";
  std::string diff = UnifiedDiff("x", "y", before, after, 2);
  EXPECT_NE(diff.find("@@ -3,5 +3,5 @@"), std::string::npos) << diff;
}

// --- env.h: centralized GOCC_* parsing --------------------------------------

class EnvTest : public ::testing::Test {
 protected:
  void TearDown() override { unsetenv(kVar); }
  void Set(const char* value) { setenv(kVar, value, /*overwrite=*/1); }
  static constexpr const char* kVar = "GOCC_TEST_ENV_VARIABLE";
};

TEST_F(EnvTest, BoolAcceptsTheDocumentedTokens) {
  const char* truthy[] = {"1", "true", "TRUE", "Yes", "on", "ON"};
  for (const char* v : truthy) {
    Set(v);
    EXPECT_TRUE(support::EnvBool(kVar, false)) << v;
  }
  const char* falsy[] = {"0", "false", "No", "OFF", "off"};
  for (const char* v : falsy) {
    Set(v);
    EXPECT_FALSE(support::EnvBool(kVar, true)) << v;
  }
}

TEST_F(EnvTest, BoolMalformedAndUnsetFallBack) {
  unsetenv(kVar);
  EXPECT_TRUE(support::EnvBool(kVar, true));
  EXPECT_FALSE(support::EnvBool(kVar, false));
  Set("");  // empty = unset (the `GOCC_FOO= ./binary` idiom)
  EXPECT_TRUE(support::EnvBool(kVar, true));
  Set("maybe");
  EXPECT_TRUE(support::EnvBool(kVar, true));   // warns, keeps the default
  EXPECT_FALSE(support::EnvBool(kVar, false));
  Set("2");
  EXPECT_FALSE(support::EnvBool(kVar, false));
}

TEST_F(EnvTest, IntParsesDecimalHexAndRange) {
  Set("42");
  EXPECT_EQ(support::EnvInt(kVar, 7, 0, 100), 42);
  Set("0x10");
  EXPECT_EQ(support::EnvInt(kVar, 7, 0, 100), 16);
  Set("-5");
  EXPECT_EQ(support::EnvInt(kVar, 7, -10, 100), -5);
}

TEST_F(EnvTest, IntRejectsMalformedAndOutOfRange) {
  Set("12abc");  // trailing garbage: the whole string must parse
  EXPECT_EQ(support::EnvInt(kVar, 7, 0, 100), 7);
  Set("abc");
  EXPECT_EQ(support::EnvInt(kVar, 7, 0, 100), 7);
  Set("101");  // above max
  EXPECT_EQ(support::EnvInt(kVar, 7, 0, 100), 7);
  Set("-1");  // below min
  EXPECT_EQ(support::EnvInt(kVar, 7, 0, 100), 7);
  Set("99999999999999999999999999");  // overflows int64 (ERANGE)
  EXPECT_EQ(support::EnvInt(kVar, 7, 0, 100), 7);
}

TEST_F(EnvTest, Uint64RejectsNegativesInsteadOfWrapping) {
  // strtoull would happily wrap "-3" to a huge value; EnvUint64 must not.
  Set("-3");
  EXPECT_EQ(support::EnvUint64(kVar, 9, 0, UINT64_MAX), 9u);
  Set("18446744073709551615");
  EXPECT_EQ(support::EnvUint64(kVar, 9, 0, UINT64_MAX), UINT64_MAX);
  Set("16");
  EXPECT_EQ(support::EnvUint64(kVar, 9, 16, 1u << 24), 16u);
  Set("15");  // below min
  EXPECT_EQ(support::EnvUint64(kVar, 9, 16, 1u << 24), 9u);
}

// The chaos suites' replay seed goes through EnvUint64 too: a negative or
// malformed value replays seed 1 instead of wrapping ("-1" to 2^64-1) or
// parsing as 0.
TEST(ChaosSeedTest, MalformedSeedsReplaySeedOne) {
  constexpr const char* kSeedVar = "GOCC_CHAOS_SEED";
  const char* prev = std::getenv(kSeedVar);
  const std::string saved = prev != nullptr ? prev : "";
  const struct {
    const char* value;
    uint64_t seed;
  } cases[] = {{"-1", 1}, {"junk", 1}, {"0x2a", 42}, {"", 1}};
  for (const auto& c : cases) {
    setenv(kSeedVar, c.value, /*overwrite=*/1);
    EXPECT_EQ(ChaosSeed(), c.seed) << '"' << c.value << '"';
  }
  if (prev != nullptr) {
    setenv(kSeedVar, saved.c_str(), /*overwrite=*/1);
  } else {
    unsetenv(kSeedVar);
  }
}

TEST_F(EnvTest, RawReturnsNullWhenUnset) {
  unsetenv(kVar);
  EXPECT_EQ(support::EnvRaw(kVar), nullptr);
  Set("token");
  ASSERT_NE(support::EnvRaw(kVar), nullptr);
  EXPECT_STREQ(support::EnvRaw(kVar), "token");
}

// --- sharded.h: thread-churn recycling and domain overflow ------------------

TEST(ShardedTest, SingleThreadSumAndReset) {
  support::ShardedCounters counters(4);
  ASSERT_FALSE(counters.overflowed());
  counters.Incr(0, 5);
  counters.Incr(3, 2);
  EXPECT_EQ(counters.Sum(0), 5u);
  EXPECT_EQ(counters.Sum(3), 2u);
  EXPECT_EQ(counters.Sum(1), 0u);
  counters.ResetAll();
  EXPECT_EQ(counters.Sum(0), 0u);
  EXPECT_EQ(counters.Sum(3), 0u);
}

TEST(ShardedTest, ThreadChurnRecyclesShardsAndKeepsTotalsMonotone) {
  support::ShardedCounters counters(2);
  ASSERT_FALSE(counters.overflowed());
  constexpr int kChurn = 16;
  uint64_t last_sum = 0;
  for (int i = 0; i < kChurn; ++i) {
    std::thread worker([&] { counters.Incr(0, 1); });
    worker.join();
    const uint64_t sum = counters.Sum(0);
    // Retirement folds the exiting thread's counts into the accumulator:
    // totals never go backwards across churn.
    EXPECT_GE(sum, last_sum);
    last_sum = sum;
  }
  EXPECT_EQ(counters.Sum(0), static_cast<uint64_t>(kChurn));
  EXPECT_EQ(counters.RetiredShardTotal(), static_cast<uint64_t>(kChurn));
  // Sequential churn reuses one shard over and over instead of allocating
  // kChurn of them.
  EXPECT_LE(counters.ShardCount(), 2u);
  EXPECT_GE(counters.FreeShardCount(), 1u);
}

TEST(ShardedTest, ConcurrentChurnConservesCounts) {
  support::ShardedCounters counters(1);
  constexpr int kWaves = 4;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 1000;
  for (int w = 0; w < kWaves; ++w) {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&] {
        for (int i = 0; i < kPerThread; ++i) {
          counters.Incr(0);
        }
      });
    }
    for (auto& th : threads) {
      th.join();
    }
  }
  EXPECT_EQ(counters.Sum(0),
            static_cast<uint64_t>(kWaves) * kThreads * kPerThread);
  // Shards allocated track peak concurrency, not total threads ever.
  EXPECT_LE(counters.ShardCount(), static_cast<size_t>(kThreads) + 1);
  EXPECT_EQ(counters.RetiredShardTotal(),
            static_cast<uint64_t>(kWaves) * kThreads);
}

TEST(ShardedTest, OverflowDomainDegradesToExactSharedShard) {
  // Exhaust the flat TLS table, then verify the 9th+ domain degrades to the
  // shared fallback instead of indexing out of bounds (the release-build
  // OOB this guard replaced), with counts still exact under concurrency.
  std::vector<std::unique_ptr<support::ShardedCounters>> burn;
  auto overflow = std::make_unique<support::ShardedCounters>(2);
  while (!overflow->overflowed()) {
    burn.push_back(std::move(overflow));
    overflow = std::make_unique<support::ShardedCounters>(2);
    ASSERT_LE(burn.size(),
              static_cast<size_t>(support::ShardedCounters::kMaxDomains));
  }

  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        overflow->Incr(0);  // fetch_add on the shared shard
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(overflow->Sum(0),
            static_cast<uint64_t>(kThreads) * kPerThread);
  overflow->ResetAll();
  EXPECT_EQ(overflow->Sum(0), 0u);
  // The non-overflow domains created above still work normally.
  if (!burn.empty()) {
    burn[0]->Incr(1, 3);
    EXPECT_EQ(burn[0]->Sum(1), 3u);
  }
}


// --- latency histogram / windowed percentile (src/support/histogram.h) ---

TEST(HistogramTest, MergeAcrossThreadLocalInstances) {
  // The documented usage: one histogram per worker thread, merged after
  // join. The merged distribution must see every thread's samples.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 1000;
  std::vector<support::LatencyHistogram> hists(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hists, t] {
      // Thread t records samples around (t+1)*1000 ns.
      for (int i = 0; i < kPerThread; ++i) {
        hists[static_cast<size_t>(t)].Record(
            static_cast<uint64_t>((t + 1) * 1000 + (i % 7)));
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  support::LatencyHistogram merged;
  for (const auto& h : hists) {
    merged.Merge(h);
  }
  EXPECT_EQ(merged.TotalCount(),
            static_cast<uint64_t>(kThreads) * kPerThread);
  // The quantiles straddle the per-thread clusters: p50 lands between the
  // 2nd and 3rd cluster, the extremes near the outer clusters (within the
  // documented <=12.5% bucket error).
  EXPECT_GE(merged.P50(), 1750u);
  EXPECT_LE(merged.P50(), 3500u);
  EXPECT_GE(merged.P99(), 3500u);
  EXPECT_LE(merged.ValueAtQuantile(0.01), 1200u);
  // Order statistics are monotone in q.
  EXPECT_LE(merged.P50(), merged.P99());
  EXPECT_LE(merged.P99(), merged.P999());
}

TEST(HistogramTest, EmptyAndSingleSampleEdges) {
  support::LatencyHistogram h;
  EXPECT_EQ(h.TotalCount(), 0u);
  EXPECT_EQ(h.ValueAtQuantile(0.5), 0u);
  h.Record(5);  // values < 8 are exact
  EXPECT_EQ(h.P50(), 5u);
  EXPECT_EQ(h.P999(), 5u);
}

TEST(WindowedPercentileTest, AdvanceIsMonotone) {
  support::WindowedPercentile w;
  EXPECT_EQ(w.LastTick(), 0u);
  EXPECT_TRUE(w.Advance(5));
  EXPECT_EQ(w.LastTick(), 5u);
  // A tick at or before the frontier is ignored: racy clock reads must not
  // tear the ring backwards.
  EXPECT_FALSE(w.Advance(5));
  EXPECT_FALSE(w.Advance(4));
  EXPECT_EQ(w.LastTick(), 5u);
  EXPECT_TRUE(w.Advance(6));
}

TEST(WindowedPercentileTest, EmptyWindowsReportZero) {
  support::WindowedPercentile w;
  EXPECT_EQ(w.P99(), 0u) << "no data must read as no shedding signal";
  w.Record(1'000'000);
  EXPECT_GT(w.P99(), 0u);
  // Advancing past every live window ages the sample out entirely.
  w.Advance(support::WindowedPercentile::kWindows + 1);
  EXPECT_EQ(w.TotalCount(), 0u);
  EXPECT_EQ(w.P99(), 0u);
}

TEST(WindowedPercentileTest, OldTailAgesOutWindowByWindow) {
  support::WindowedPercentile w;
  // Window 0: a fat tail. Later windows: fast samples.
  for (int i = 0; i < 100; ++i) {
    w.Record(50'000'000);
  }
  for (uint64_t tick = 1;
       tick <= static_cast<uint64_t>(support::WindowedPercentile::kWindows);
       ++tick) {
    EXPECT_TRUE(w.Advance(tick));
    for (int i = 0; i < 100; ++i) {
      w.Record(1000);
    }
    if (tick < static_cast<uint64_t>(support::WindowedPercentile::kWindows)) {
      EXPECT_GT(w.P99(), 10'000'000u)
          << "the fat window is still live at tick " << tick;
    }
  }
  // After kWindows advances the fat window fell off the back.
  EXPECT_LT(w.P99(), 10'000u);
  EXPECT_EQ(w.TotalCount(),
            100u * static_cast<uint64_t>(support::WindowedPercentile::kWindows));
}

TEST(WindowedPercentileTest, TopBucketSaturates) {
  support::WindowedPercentile w;
  w.Record(~uint64_t{0});  // a sample beyond any bucket boundary
  w.Record(~uint64_t{0} - 1);
  EXPECT_EQ(w.TotalCount(), 2u);
  // The estimate lands in the top bucket, not zero and not a crash.
  EXPECT_GT(w.P99(), uint64_t{1} << 62);
}

// --- Zipfian generator phase shifts / shared zeta (src/support/zipf.h) ---

TEST(ZipfTest, SharedZetanIsStableAcrossInstances) {
  const double a = support::ZipfianGenerator::SharedZetan(10'000, 0.99);
  const double b = support::ZipfianGenerator::SharedZetan(10'000, 0.99);
  EXPECT_GT(a, 0.0);
  EXPECT_EQ(a, b);
  // Two generators with the same shape draw identical streams regardless
  // of which one paid for the precompute.
  support::ZipfianGenerator g1(10'000, 0.99, 42);
  support::ZipfianGenerator g2(10'000, 0.99, 42);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(g1.Next(), g2.Next());
  }
}

TEST(ZipfTest, PhaseShiftRotatesHotSetDeterministically) {
  constexpr uint64_t kItems = 1000;
  constexpr uint64_t kInterval = 64;
  support::ZipfianGenerator g1(kItems, 0.99, 7);
  support::ZipfianGenerator g2(kItems, 0.99, 7);
  g1.EnablePhaseShift(kInterval, /*rotation_seed=*/99);
  g2.EnablePhaseShift(kInterval, /*rotation_seed=*/99);
  const uint64_t phase0_offset = g1.PhaseOffset();
  // Same (seed, rotation seed): identical rotated streams across phases.
  for (int i = 0; i < 1000; ++i) {
    const uint64_t k1 = g1.Next();
    ASSERT_EQ(k1, g2.Next());
    ASSERT_LT(k1, kItems);
  }
  // The interval elapsed many times over: the phase advanced and the hot
  // set moved (offset changed).
  EXPECT_GE(g1.PhaseIndex(), 1000 / kInterval);
  EXPECT_NE(g1.PhaseOffset(), phase0_offset);

  // The rotation preserves the popularity SHAPE: within one phase the
  // hottest key is rank 0 rotated by the phase offset.
  support::ZipfianGenerator g3(kItems, 0.99, 11);
  g3.EnablePhaseShift(1u << 30, /*rotation_seed=*/5);  // never advances
  const uint64_t hot = g3.PhaseOffset();
  std::vector<int> counts(kItems, 0);
  for (int i = 0; i < 20'000; ++i) {
    ++counts[g3.Next()];
  }
  const int hot_count = counts[hot];
  for (uint64_t k = 0; k < kItems; ++k) {
    EXPECT_LE(counts[k], hot_count) << "key " << k;
  }
}

TEST(ZipfTest, AdvancePhaseForcesRotationImmediately) {
  support::ZipfianGenerator g(100, 0.99, 3);
  g.EnablePhaseShift(1u << 30, 17);
  const uint64_t before = g.PhaseOffset();
  g.AdvancePhase();
  EXPECT_EQ(g.PhaseIndex(), 1u);
  EXPECT_NE(g.PhaseOffset(), before);
}

// --- unified re-probe gate (src/support/reprobe.h) ---

TEST(ReprobeTest, AtMostOneWinnerPerInterval) {
  support::Reprobe gate(1000);
  EXPECT_EQ(gate.interval_ms(), 1000u);
  // First claim wins, the rest of the interval loses.
  EXPECT_TRUE(gate.Due(5000));
  EXPECT_FALSE(gate.Due(5000));
  EXPECT_FALSE(gate.Due(5999));
  EXPECT_TRUE(gate.Due(6000));
  EXPECT_FALSE(gate.Due(6001));
}

TEST(ReprobeTest, DeferPushesTheNextProbeAFullIntervalOut) {
  support::Reprobe gate(1000);
  gate.Defer(10'000);
  EXPECT_FALSE(gate.Due(10'999));
  EXPECT_TRUE(gate.Due(11'000));
  // ForceNext makes the very next claim fire regardless of the clock.
  gate.Defer(20'000);
  gate.ForceNext();
  EXPECT_TRUE(gate.Due(20'001));
}

TEST(ReprobeTest, ConcurrentClaimsElectExactlyOneWinner) {
  support::Reprobe gate(1'000'000);  // one slot for the whole test
  std::atomic<int> winners{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&gate, &winners] {
      for (int i = 0; i < 1000; ++i) {
        if (gate.Due(42)) {
          winners.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(winners.load(), 1);
}

TEST(ReprobeTest, ReinitRearmsTheGate) {
  support::Reprobe gate(500);
  EXPECT_TRUE(gate.Due(100));
  gate.Reinit(2000);
  EXPECT_EQ(gate.interval_ms(), 2000u);
  EXPECT_TRUE(gate.Due(100)) << "Reinit must re-arm the next probe";
  EXPECT_FALSE(gate.Due(2099));
  EXPECT_TRUE(gate.Due(2100));
}

}  // namespace
}  // namespace gocc
