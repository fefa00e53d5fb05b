// Closed-loop observability (src/obs, DESIGN.md §4.8):
//
//   1. Ring semantics: fixed-capacity per-thread rings overwrite oldest
//      events and account for drops exactly (recorded = drained + dropped).
//   2. Trace conservation: with tracing on, events recorded == episodes
//      completed (fast + nested + slow outcome counters), single- and
//      multi-threaded, and under chaos-seeded fault injection — this binary
//      is part of the `ctest -L chaos` seed battery.
//   3. Exports: the Chrome trace JSON is well-formed and carries the site
//      names; every counter row of every stats family reaches exactly one
//      Prometheus sample and one ToString figure.
//   4. Loop closure: a set-corpus workload run self-collects a profile,
//      Profile::Parse accepts it, and the pipeline's hot/cold pair fates
//      match the shipped corpus/set/set.profile baseline end to end.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <iterator>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench/corpus_util.h"
#include "bench/obs_drivers.h"
#include "src/analysis/lupair.h"
#include "src/gosync/mutex.h"
#include "src/gosync/runtime.h"
#include "src/htm/config.h"
#include "src/htm/fault.h"
#include "src/htm/shared.h"
#include "src/htm/stats.h"
#include "src/htm/swocc.h"
#include "src/obs/event.h"
#include "src/obs/metrics.h"
#include "src/obs/recorder.h"
#include "src/obs/self_profile.h"
#include "src/obs/ticks.h"
#include "src/obs/trace_export.h"
#include "src/optilib/optilock.h"
#include "src/profile/profile.h"
#include "src/support/counter_table.h"
#include "src/support/misuse.h"
#include "tests/chaos_seed.h"

namespace gocc::obs {
namespace {

using htm::fault::FaultPlan;
using htm::fault::Site;
using optilib::GetOptiConfig;
using optilib::GlobalOptiStats;
using optilib::OptiConfig;
using optilib::OptiLock;
using optilib::OptiStats;
using optilib::PublishOptiConfig;

uint64_t EpisodeSum() {
  OptiStats& s = GlobalOptiStats();
  return s.fast_commits.load(std::memory_order_relaxed) +
         s.nested_fast_commits.load(std::memory_order_relaxed) +
         s.slow_acquires.load(std::memory_order_relaxed);
}

class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    htm::ForceSoftwareBackend();
    htm::GlobalTxStats().Reset();
    PublishOptiConfig(OptiConfig{});
    GlobalOptiStats().Reset();
    optilib::GlobalPerceptron().Reset();
    optilib::ResetHardeningState();
    htm::fault::Disarm();
    htm::fault::GlobalFaultStats().Reset();
    DiscardTrace();
    prev_procs_ = gosync::SetMaxProcs(4);
    seed_ = ChaosSeed();
  }
  void TearDown() override {
    htm::fault::Disarm();
    optilib::ResetHardeningState();
    DiscardTrace();
    gosync::SetMaxProcs(prev_procs_);
  }

  int prev_procs_ = 1;
  uint64_t seed_ = 1;
};

// --- event packing ---------------------------------------------------------

TEST_F(ObsTest, MetaPackingRoundTrips) {
  Event e;
  UnpackMeta(PackMeta(/*site_id=*/1234, /*mutex_id=*/0xdeadbeefu,
                      Outcome::kSlowAcquire, htm::AbortCode::kCapacity,
                      /*retries=*/7),
             &e);
  EXPECT_EQ(e.site_id, 1234u);
  EXPECT_EQ(e.mutex_id, 0xdeadbeefu);
  EXPECT_EQ(e.outcome, Outcome::kSlowAcquire);
  EXPECT_EQ(e.last_abort, htm::AbortCode::kCapacity);
  EXPECT_EQ(e.retries, 7u);

  // Saturation: oversized site ids and retry counts clamp, never wrap into
  // neighbouring fields.
  UnpackMeta(PackMeta(kMaxSiteId + 50, 0, Outcome::kFastCommit,
                      htm::AbortCode::kNone, kMaxRetries + 9000),
             &e);
  EXPECT_EQ(e.site_id, kMaxSiteId);
  EXPECT_EQ(e.retries, kMaxRetries);
  EXPECT_EQ(e.outcome, Outcome::kFastCommit);
}

// --- ring semantics --------------------------------------------------------

TEST_F(ObsTest, RingOverwritesOldestAndCountsDrops) {
  // Overfill a fresh thread's ring 3x and check the survivors are exactly
  // the newest kRingCapacity events in order.
  constexpr uint64_t kTotal = 3 * kRingCapacity + 5;
  std::thread recorder([&] {
    for (uint64_t i = 0; i < kTotal; ++i) {
      RecordEpisode(/*site_id=*/0, /*mutex_id=*/42, Outcome::kFastCommit,
                    htm::AbortCode::kNone, /*retries=*/0,
                    /*start_ticks=*/i, /*duration_ticks=*/1);
    }
  });
  recorder.join();

  DrainStats stats;
  std::vector<Event> events = DrainTrace(&stats);
  EXPECT_EQ(stats.recorded, kTotal);
  EXPECT_EQ(stats.drained, kRingCapacity);
  EXPECT_EQ(stats.dropped, kTotal - kRingCapacity);
  ASSERT_EQ(events.size(), kRingCapacity);
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].start_ticks, kTotal - kRingCapacity + i);
  }

  // The drain reset the ring: nothing is recorded until new events arrive.
  EXPECT_EQ(TraceEventsRecorded(), 0u);
  EXPECT_TRUE(DrainTrace().empty());
}

TEST_F(ObsTest, ScopedSiteRestoresAndRegistryInterns) {
  const uint32_t a = RegisterSite("Test.A");
  const uint32_t b = RegisterSite("Test.B");
  EXPECT_NE(a, b);
  EXPECT_EQ(RegisterSite("Test.A"), a);  // interned, not re-registered
  EXPECT_EQ(SiteName(a), "Test.A");
  EXPECT_EQ(SiteName(0), "");

  EXPECT_EQ(CurrentSite(), 0u);
  {
    ScopedSite outer(a);
    EXPECT_EQ(CurrentSite(), a);
    {
      ScopedSite inner(b);
      EXPECT_EQ(CurrentSite(), b);
    }
    EXPECT_EQ(CurrentSite(), a);
  }
  EXPECT_EQ(CurrentSite(), 0u);
}

// --- trace conservation against the episode outcome counters ---------------

TEST_F(ObsTest, TraceConservationMultiThread) {
  OptiConfig cfg = GetOptiConfig();
  cfg.trace_episodes = true;
  PublishOptiConfig(cfg);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 2000;
  struct Slot {
    gosync::Mutex mu;
    htm::Shared<uint64_t> value{0};
  };
  std::vector<Slot> slots(kThreads);
  Slot hot;

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Slot& mine = slots[static_cast<size_t>(t)];
      OptiLock ol;
      for (int i = 0; i < kPerThread; ++i) {
        if (i % 4 == 3) {
          ol.WithLock(&hot.mu, [&] { hot.value.Add(1); });
        } else {
          ol.WithLock(&mine.mu, [&] { mine.value.Add(1); });
        }
      }
    });
  }
  for (std::thread& th : threads) {
    th.join();
  }

  // At writer quiescence the recorder conserves exactly against the stat
  // shards: one event per completed episode, outcome for outcome.
  const uint64_t episodes = EpisodeSum();
  ASSERT_EQ(episodes, static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(TraceEventsRecorded(), episodes);

  DrainStats stats;
  std::vector<Event> events = DrainTrace(&stats);
  EXPECT_EQ(stats.recorded, episodes);
  EXPECT_EQ(stats.drained + stats.dropped, episodes);
  ASSERT_EQ(events.size(), episodes);  // kRingCapacity holds 2000/thread

  uint64_t fast = 0, nested = 0, slow = 0, occ_fallback = 0;
  for (const Event& e : events) {
    switch (e.outcome) {
      case Outcome::kFastCommit:
        ++fast;
        break;
      case Outcome::kNestedFastCommit:
        ++nested;
        break;
      case Outcome::kSlowAcquire:
        ++slow;
        break;
      case Outcome::kOccFallback:
        // A slow acquire after the sw-OCC retry budget ran dry (event.h):
        // counted in slow_acquires and, on its own, in occ_fallbacks.
        ++slow;
        ++occ_fallback;
        break;
      case Outcome::kUnwind:
        ADD_FAILURE() << "no episode unwound in this test";
        break;
    }
  }
  OptiStats& s = GlobalOptiStats();
  EXPECT_EQ(fast, s.fast_commits.load(std::memory_order_relaxed));
  EXPECT_EQ(nested, s.nested_fast_commits.load(std::memory_order_relaxed));
  EXPECT_EQ(slow, s.slow_acquires.load(std::memory_order_relaxed));
  EXPECT_EQ(occ_fallback, s.occ_fallbacks.load(std::memory_order_relaxed));
}

TEST_F(ObsTest, TraceConservationUnderChaosInjection) {
  OptiConfig cfg = GetOptiConfig();
  cfg.trace_episodes = true;
  cfg.conflict_retries = 2;
  PublishOptiConfig(cfg);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 1500;

  FaultPlan plan;
  plan.seed = seed_;
  plan.WithRule(Site::kLoad, 0.02, htm::AbortCode::kConflict);
  plan.WithRule(Site::kCommit, 0.05, htm::AbortCode::kConflict);
  plan.WithRule(Site::kBegin, 0.02, htm::AbortCode::kSpurious);
  plan.AbortNext(Site::kStore, 50, htm::AbortCode::kCapacity, 100);
  htm::fault::Arm(plan);

  struct Slot {
    gosync::Mutex mu;
    htm::Shared<uint64_t> value{0};
  };
  std::vector<Slot> slots(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Slot& mine = slots[static_cast<size_t>(t)];
      OptiLock ol;
      for (int i = 0; i < kPerThread; ++i) {
        ol.WithLock(&mine.mu, [&] { mine.value.Add(1); });
      }
    });
  }
  for (std::thread& th : threads) {
    th.join();
  }
  htm::fault::Disarm();

  // Whatever mix of aborts, retries and fallbacks the seed drove, every
  // completed episode left exactly one event, and retry counts only appear
  // on episodes whose last abort is set.
  const uint64_t episodes = EpisodeSum();
  ASSERT_EQ(episodes, static_cast<uint64_t>(kThreads) * kPerThread);
  DrainStats stats;
  std::vector<Event> events = DrainTrace(&stats);
  EXPECT_EQ(stats.recorded, episodes);
  ASSERT_EQ(events.size(), episodes);
  // HandleAbort records the code and the retry bump together, so the two
  // fields imply each other. (last_abort == kNone does NOT imply a fast
  // commit: perceptron-directed fallbacks reach the lock with no abort.)
  for (const Event& e : events) {
    EXPECT_EQ(e.retries > 0, e.last_abort != htm::AbortCode::kNone);
  }
}

TEST_F(ObsTest, NoEventsAndNoNewRingsWhenOff) {
  // Default-off: a workload thread records nothing and creates no ring.
  const size_t rings_before = TraceRingCount();
  std::thread worker([] {
    gosync::Mutex mu;
    htm::Shared<uint64_t> value{0};
    OptiLock ol;
    for (int i = 0; i < 500; ++i) {
      ol.WithLock(&mu, [&] { value.Add(1); });
    }
  });
  worker.join();
  EXPECT_EQ(EpisodeSum(), 500u);
  EXPECT_EQ(TraceEventsRecorded(), 0u);
  EXPECT_EQ(TraceRingCount(), rings_before);
}

TEST_F(ObsTest, ThreadChurnRecyclesRingsWithoutLosingEvents) {
  // Sequential short-lived tracer threads: each exiting thread retires its
  // ring (events and count intact) and the next thread adopts it, so the
  // ring registry tracks peak concurrency while conservation still holds.
  OptiConfig cfg = GetOptiConfig();
  cfg.trace_episodes = true;
  PublishOptiConfig(cfg);
  const size_t rings_before = TraceRingCount();
  const uint64_t retired_before = TraceRingsRetired();
  constexpr int kChurn = 12;
  constexpr int kPerThread = 50;
  for (int t = 0; t < kChurn; ++t) {
    std::thread worker([] {
      gosync::Mutex mu;
      htm::Shared<uint64_t> value{0};
      OptiLock ol;
      for (int i = 0; i < kPerThread; ++i) {
        ol.WithLock(&mu, [&] { value.Add(1); });
      }
    });
    worker.join();
  }
  EXPECT_EQ(EpisodeSum(), static_cast<uint64_t>(kChurn) * kPerThread);
  EXPECT_EQ(TraceEventsRecorded(), static_cast<uint64_t>(kChurn) * kPerThread);
  EXPECT_EQ(TraceRingsRetired(), retired_before + kChurn);
  // Strictly-sequential churn needs at most one new ring (plus any ring the
  // main thread owns from earlier tests).
  EXPECT_LE(TraceRingCount(), rings_before + 1);

  DrainStats stats;
  std::vector<Event> events = DrainTrace(&stats);
  EXPECT_EQ(stats.recorded, static_cast<uint64_t>(kChurn) * kPerThread);
  EXPECT_EQ(events.size(), static_cast<uint64_t>(kChurn) * kPerThread);
  // The last worker's exit returned its ring to the free list.
  EXPECT_GE(TraceRingFreeCount(), 1u);
}

TEST_F(ObsTest, AdoptionSkipsBackloggedRingsInsteadOfOverwriting) {
  // A staggered pool can retire a nearly-full ring while a sibling thread
  // is still starting up; if the sibling adopted it, its appends would wrap
  // over events a pending drain still expects. Adoption must skip rings
  // backlogged past half capacity (they stay drainable on the free list)
  // and hand the late thread a fresh ring, so the drain stays lossless.
  OptiConfig cfg = GetOptiConfig();
  cfg.trace_episodes = true;
  PublishOptiConfig(cfg);
  DiscardTrace();
  const size_t rings_before = TraceRingCount();
  constexpr uint64_t kBacklog = kRingCapacity / 2 + 64;
  auto run_worker = [](uint64_t ops) {
    std::thread worker([ops] {
      gosync::Mutex mu;
      htm::Shared<uint64_t> value{0};
      OptiLock ol;
      for (uint64_t i = 0; i < ops; ++i) {
        ol.WithLock(&mu, [&] { value.Add(1); });
      }
    });
    worker.join();
  };
  run_worker(kBacklog);   // retires a ring holding > capacity/2 events
  run_worker(kBacklog);   // must NOT adopt (and wrap) the backlogged ring
  EXPECT_LE(TraceRingCount(), rings_before + 2);

  DrainStats stats;
  std::vector<Event> events = DrainTrace(&stats);
  EXPECT_EQ(stats.dropped, 0u);
  EXPECT_EQ(events.size(), 2 * kBacklog);
  // Once drained, both rings are empty again and the next churned thread
  // adopts one instead of growing the pool.
  const size_t rings_after_drain = TraceRingCount();
  run_worker(16);
  EXPECT_EQ(TraceRingCount(), rings_after_drain);
}

TEST_F(ObsTest, UnwindOutcomeIsTraced) {
  OptiConfig cfg = GetOptiConfig();
  cfg.trace_episodes = true;
  PublishOptiConfig(cfg);
  gosync::Mutex mu;
  OptiLock ol;
  bool caught = false;
  try {
    ol.WithLock(&mu, [] { throw std::runtime_error("boom"); });
  } catch (const std::runtime_error&) {
    caught = true;
  }
  ASSERT_TRUE(caught);
  ol.WithLock(&mu, [] {});
  std::vector<Event> events = DrainTrace();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].outcome, Outcome::kUnwind);
  EXPECT_EQ(events[1].outcome, Outcome::kFastCommit);
  EXPECT_STREQ(OutcomeName(events[0].outcome), "Unwind");
}

// --- exporters -------------------------------------------------------------

// Minimal structural JSON scan: brace/bracket balance outside strings plus
// string-termination sanity — enough to catch broken escaping or trailing
// commas from the generator without a JSON library.
void CheckJsonStructure(const std::string& json) {
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (char c : json) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      } else {
        ASSERT_GE(static_cast<unsigned char>(c), 0x20)
            << "unescaped control character in JSON string";
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      ASSERT_GT(depth, 0);
      --depth;
    }
  }
  EXPECT_FALSE(in_string) << "unterminated string";
  EXPECT_EQ(depth, 0) << "unbalanced braces/brackets";
}

TEST_F(ObsTest, ChromeTraceJsonIsWellFormed) {
  OptiConfig cfg = GetOptiConfig();
  cfg.trace_episodes = true;
  PublishOptiConfig(cfg);
  const uint32_t site = RegisterSite("Trace.\"Quoted\\Site\"");
  {
    ScopedSite scoped(site);
    gosync::Mutex mu;
    htm::Shared<uint64_t> value{0};
    OptiLock ol;
    for (int i = 0; i < 32; ++i) {
      ol.WithLock(&mu, [&] { value.Add(1); });
    }
  }
  std::vector<Event> events = DrainTrace();
  ASSERT_EQ(events.size(), 32u);

  const std::string json = ChromeTraceJson(events);
  CheckJsonStructure(json);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("FastCommit"), std::string::npos);
  // The quote and backslash in the site name must arrive escaped.
  EXPECT_NE(json.find("Trace.\\\"Quoted\\\\Site\\\""), std::string::npos);
  EXPECT_EQ(json.find("Trace.\"Quoted"), std::string::npos);

  // An empty trace still renders a loadable document.
  const std::string empty = ChromeTraceJson({});
  CheckJsonStructure(empty);
  EXPECT_NE(empty.find("\"traceEvents\""), std::string::npos);
}

TEST_F(ObsTest, PrometheusSnapshotExposesEpisodeCounters) {
  OptiConfig cfg = GetOptiConfig();
  cfg.trace_episodes = true;
  PublishOptiConfig(cfg);
  gosync::Mutex mu;
  htm::Shared<uint64_t> value{0};
  OptiLock ol;
  for (int i = 0; i < 100; ++i) {
    ol.WithLock(&mu, [&] { value.Add(1); });
  }

  const std::vector<Metric> metrics = CollectRuntimeMetrics();
  double fast = -1.0, recorded = -1.0;
  for (const Metric& m : metrics) {
    EXPECT_FALSE(m.name.empty());
    EXPECT_FALSE(m.help.empty());
    if (m.name == "gocc_opti_fast_commits_total") {
      ASSERT_EQ(m.samples.size(), 1u);
      fast = m.samples[0].value;
    }
    if (m.name == "gocc_obs_trace_events_recorded_total") {
      ASSERT_EQ(m.samples.size(), 1u);
      recorded = m.samples[0].value;
    }
  }
  EXPECT_EQ(fast, static_cast<double>(GlobalOptiStats().fast_commits.load(
                      std::memory_order_relaxed)));
  EXPECT_EQ(recorded, 100.0);

  const std::string text = PrometheusSnapshot();
  EXPECT_NE(text.find("# HELP gocc_opti_fast_commits_total"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE gocc_opti_fast_commits_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("gocc_opti_episode_aborts_total{code=\"Conflict\"}"),
            std::string::npos);
  EXPECT_NE(text.find("gocc_tx_commits_total"), std::string::npos);
}

// Counts the figures of `text` equal to `value`, where figures are the runs
// between spaces, '=', brackets and braces.
int CountFigure(const std::string& text, uint64_t value) {
  const std::string want = std::to_string(value);
  int count = 0;
  size_t begin = 0;
  while (begin <= text.size()) {
    size_t end = text.find_first_of(" =[]{}", begin);
    if (end == std::string::npos) {
      end = text.size();
    }
    count += text.compare(begin, end - begin, want) == 0 ? 1 : 0;
    begin = end + 1;
  }
  return count;
}

// Every counter is declared once, as a Slot entry plus a row, and every
// exporter reads the rows. Each family's rows cover its slots exactly once
// (only the never-recorded kNone abort slots stay out); with every slot and
// misuse kind set to its own value, each value reaches exactly one
// /metrics sample and exactly one figure of its family's ToString
// (SwOccWordStats has none; its table is rendered directly).
TEST_F(ObsTest, EveryCounterRowReachesEachExporterOnce) {
  htm::SwOccWordStats& words = htm::GlobalSwOccWordStats();
  words.Reset();
  support::ResetMisuseCounters();
  std::atomic<uint64_t>* opti_shard = GlobalOptiStats().LocalShard();
  std::atomic<uint64_t>* tx_shard = htm::GlobalTxStats().LocalShard();
  struct Family {
    const char* name;
    std::span<const support::CounterRow> rows;
    int num_slots;
    int unrecorded_slot;  // -1: every slot is recorded
    std::function<void(int slot, uint64_t value)> set;
    std::function<std::string()> to_string;
  };
  const Family families[] = {
      {"OptiStats", optilib::kOptiStatsRows, OptiStats::kNumSlots,
       OptiStats::kEpisodeAbortsBase,
       [&](int slot, uint64_t v) { opti_shard[slot].store(v); },
       [] { return GlobalOptiStats().ToString(); }},
      {"misuse", support::kMisuseRows, support::kNumMisuseKinds, -1,
       [](int kind, uint64_t v) {
         for (uint64_t i = 0; i < v; ++i) {
           support::ReportMisuse(static_cast<support::MisuseKind>(kind),
                                 nullptr, "counter-table guard");
         }
       },
       [] { return GlobalOptiStats().ToString(); }},
      {"TxStats", htm::kTxStatsRows, htm::TxStats::kNumSlots,
       htm::TxStats::kAbortsBase,
       [&](int slot, uint64_t v) { tx_shard[slot].store(v); },
       [] { return htm::GlobalTxStats().ToString(); }},
      {"SwOccWordStats", htm::kSwOccWordRows, htm::SwOccWordStats::kNumSlots,
       -1, [&](int slot, uint64_t v) { words.slots[slot].store(v); },
       [&] {
         return support::RenderCounters(htm::kSwOccWordRows, words.Counts());
       }},
  };

  // Distinct values: family f's slot s holds 1000 * (f + 1) + s, except
  // that misuse kind k (family 1) is reported k + 1 times.
  auto value_of = [](int family, int slot) {
    return static_cast<uint64_t>(family == 1 ? slot + 1
                                             : 1000 * (family + 1) + slot);
  };
  // The misuse family is set by reporting; a debug build's default policy
  // would abort at the first report.
  const support::MisusePolicy prev_policy = support::GetMisusePolicy();
  support::SetMisusePolicy(support::MisusePolicy::kRecoverAndCount);
  for (int f = 0; f < static_cast<int>(std::size(families)); ++f) {
    const Family& family = families[f];
    std::vector<int> rows_per_slot(family.num_slots, 0);
    for (const support::CounterRow& row : family.rows) {
      ASSERT_GE(row.slot, 0) << family.name << "." << row.name;
      ASSERT_LE(row.slot + row.width, family.num_slots)
          << family.name << "." << row.name;
      for (int slot = row.slot; slot < row.slot + row.width; ++slot) {
        ++rows_per_slot[slot];
      }
    }
    for (int slot = 0; slot < family.num_slots; ++slot) {
      EXPECT_EQ(rows_per_slot[slot], slot == family.unrecorded_slot ? 0 : 1)
          << family.name << " slot " << slot;
      if (slot != family.unrecorded_slot) {
        family.set(slot, value_of(f, slot));
      }
    }
  }
  support::SetMisusePolicy(prev_policy);

  std::vector<double> samples;
  for (const Metric& m : CollectRuntimeMetrics()) {
    const bool table_family = m.name.rfind("gocc_opti_", 0) == 0 ||
                              m.name.rfind("gocc_tx_", 0) == 0 ||
                              m.name.rfind("gocc_swocc_", 0) == 0;
    if (table_family && std::string(m.type) == "counter") {
      for (const MetricSample& sample : m.samples) {
        samples.push_back(sample.value);
      }
    }
  }
  for (int f = 0; f < static_cast<int>(std::size(families)); ++f) {
    const Family& family = families[f];
    const std::string text = family.to_string();
    for (int slot = 0; slot < family.num_slots; ++slot) {
      if (slot == family.unrecorded_slot) {
        continue;
      }
      const uint64_t value = value_of(f, slot);
      EXPECT_EQ(std::count(samples.begin(), samples.end(),
                           static_cast<double>(value)),
                1)
          << family.name << " slot " << slot;
      EXPECT_EQ(CountFigure(text, value), 1)
          << family.name << " slot " << slot << " in " << text;
    }
  }
  words.Reset();
  support::ResetMisuseCounters();
}

// --- self-profile round trip and loop closure ------------------------------

TEST_F(ObsTest, SelfProfileEmitsParseableFractions) {
  const uint32_t hot_site = RegisterSite("Loop.Hot");
  const uint32_t cold_site = RegisterSite("Loop.Cold");
  std::vector<Event> events;
  for (int i = 0; i < 99; ++i) {
    Event e;
    e.site_id = hot_site;
    e.duration_ticks = 100;
    events.push_back(e);
  }
  Event cold;
  cold.site_id = cold_site;
  cold.duration_ticks = 50;
  events.push_back(cold);
  Event unattributed;  // site 0: counted in the denominator, not emitted
  unattributed.duration_ticks = 50;
  events.push_back(unattributed);

  const SelfProfile aggregated = AggregateProfile(events);
  EXPECT_EQ(aggregated.total_episodes, 101u);
  EXPECT_EQ(aggregated.unattributed_episodes, 1u);
  EXPECT_EQ(aggregated.total_ticks, 10000u);
  EXPECT_EQ(aggregated.attributed_ticks, 9950u);
  ASSERT_EQ(aggregated.rows.size(), 2u);
  EXPECT_EQ(aggregated.rows[0].func_key, "Loop.Hot");  // sorted by fraction

  const std::string text = EmitProfileText(aggregated, "round trip");
  auto parsed = profile::Profile::Parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(parsed->IsHot("Loop.Hot"));
  EXPECT_FALSE(parsed->IsHot("Loop.Cold"));   // 0.5% of ticks
  EXPECT_FALSE(parsed->IsHot("Loop.Absent"));
  EXPECT_NEAR(parsed->FractionOf("Loop.Hot"), 0.99, 1e-6);
  EXPECT_NEAR(parsed->FractionOf("Loop.Cold"), 0.005, 1e-6);
}

// The Figure 1 loop, end to end: run the set workload, collect its own
// profile, re-run the static pipeline with it, and require the same pair
// fates the shipped corpus/set/set.profile produces. The set corpus is the
// loop-closure vehicle because its C++ analogue implements exactly the
// shipped-hot functions (Len/Exists/Flatten/Clear/Add) and lacks the
// shipped-cold ones (Remove/AddAll), which must come out cold either way.
TEST_F(ObsTest, LoopClosureMatchesShippedSetProfile) {
  bench::CorpusRepo set_repo;
  for (const auto& repo : bench::CorpusRepos(bench::DefaultCorpusDir())) {
    if (repo.name == "set") {
      set_repo = repo;
    }
  }
  ASSERT_FALSE(set_repo.go_files.empty());

  auto baseline = bench::RunOnRepo(set_repo, /*use_profile=*/true);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  auto fates = [](const analysis::AnalysisResult& analysis) {
    std::vector<std::string> out;
    for (const auto& fr : analysis.functions) {
      for (const auto& pair : fr.pairs) {
        out.push_back(fr.scope.Name() + ":" +
                      analysis::PairFateName(pair.fate));
      }
    }
    return out;
  };
  const std::vector<std::string> baseline_fates = fates(baseline->analysis);

  ASSERT_TRUE(bench::HasSelfProfileDriver("set"));
  // The collected fractions are wall-clock tick shares, so heavy external
  // load on a small host can occasionally skew a single collection run
  // (a descheduled Flatten inflates its share at the point ops' expense).
  // Re-collect a bounded number of times before declaring the loop broken;
  // a genuine closure bug fails every attempt identically.
  constexpr int kAttempts = 3;
  for (int attempt = 1; attempt <= kAttempts; ++attempt) {
    auto collected = bench::CollectSelfProfile("set", /*threads=*/2,
                                               /*ops_per_thread=*/8000);
    ASSERT_TRUE(collected.ok()) << collected.status().ToString();
    ASSERT_GE(collected->profile.total_episodes, 1000u);
    ASSERT_EQ(collected->drain.dropped, 0u);

    auto parsed = profile::Profile::Parse(collected->profile_text);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();

    auto self_run =
        bench::RunOnRepoWithProfileText(set_repo, collected->profile_text);
    ASSERT_TRUE(self_run.ok()) << self_run.status().ToString();

    if (attempt < kAttempts && fates(self_run->analysis) != baseline_fates) {
      continue;
    }
    // Identical funnel totals and identical per-pair fates.
    EXPECT_EQ(self_run->analysis.counts.transformed_with_profile,
              baseline->analysis.counts.transformed_with_profile);
    EXPECT_EQ(self_run->analysis.counts.transformed_defer_with_profile,
              baseline->analysis.counts.transformed_defer_with_profile);
    EXPECT_EQ(fates(self_run->analysis), baseline_fates);
    break;
  }
}

}  // namespace
}  // namespace gocc::obs
