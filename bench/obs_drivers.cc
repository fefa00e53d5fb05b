#include "bench/obs_drivers.h"

#include <memory>
#include <thread>
#include <vector>

#include "src/gosync/runtime.h"
#include "src/optilib/optilock.h"
#include "src/support/rng.h"
#include "src/workloads/cset.h"
#include "src/workloads/fastcache.h"
#include "src/workloads/gocache.h"
#include "src/workloads/tally.h"
#include "src/workloads/zaplog.h"

namespace gocc::bench {
namespace {

using workloads::Elided;

template <typename Fn>
void RunThreads(int threads, Fn&& body) {
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&body, t] { body(t); });
  }
  for (std::thread& w : workers) {
    w.join();
  }
}

// Each driver's op mix keeps every function it attributes above the 1%
// tick-share threshold (or deliberately below it, for the cold sites),
// so the emitted profile reproduces the shipped profile's hot/cold
// decisions for the functions the workload implements. Functions the C++
// analogue lacks (Set.Remove, Cache.Flush, ...) are simply absent, which
// FractionOf maps to 0 — cold, matching their sub-1% shipped fractions.

void RunSetDriver(int threads, int ops_per_thread) {
  const uint32_t len_site = obs::RegisterSite("Set.Len");
  const uint32_t exists_site = obs::RegisterSite("Set.Exists");
  const uint32_t add_site = obs::RegisterSite("Set.Add");
  const uint32_t flatten_site = obs::RegisterSite("Set.Flatten");
  const uint32_t clear_site = obs::RegisterSite("Set.Clear");
  auto set = std::make_unique<workloads::ConcurrentSet<Elided>>();
  {
    obs::ScopedSite site(add_site);
    for (uint64_t k = 1; k <= 64; ++k) {
      set->Add(k);
    }
  }
  // Flatten (cache rebuild + 50-element copy) and Clear (writes every
  // occupied slot) run hundreds of times more ticks per episode than the
  // point operations, so they are scheduled sparsely; the mix keeps every
  // function's tick share above the 1% hotness threshold, mirroring the
  // shipped set.profile where all five are hot.
  RunThreads(threads, [&](int t) {
    SplitMix64 rng(0x5e7u + static_cast<uint64_t>(t));
    uint64_t out[workloads::ConcurrentSet<Elided>::kFlattenCount];
    for (int i = 0; i < ops_per_thread; ++i) {
      const uint64_t key = rng.NextBelow(512) + 1;
      const int r = i % 1000;
      if (r < 420) {
        obs::ScopedSite site(len_site);
        set->Len();
      } else if (r < 770) {
        obs::ScopedSite site(exists_site);
        set->Exists(key);
      } else if (r < 992) {
        obs::ScopedSite site(add_site);
        set->Add(key);
      } else if (r < 998) {
        obs::ScopedSite site(flatten_site);
        set->Flatten(out);
      } else {
        obs::ScopedSite site(clear_site);
        set->Clear();
      }
    }
  });
}

void RunGoCacheDriver(int threads, int ops_per_thread) {
  const uint32_t map_get_site = obs::RegisterSite("Cache.MapGet");
  const uint32_t get_site = obs::RegisterSite("Cache.Get");
  const uint32_t set_site = obs::RegisterSite("Cache.Set");
  const uint32_t count_site = obs::RegisterSite("Cache.ItemCount");
  auto cache = std::make_unique<workloads::GoCache<Elided>>();
  {
    obs::ScopedSite site(set_site);
    for (uint64_t k = 1; k <= 256; ++k) {
      cache->Set(k, static_cast<int64_t>(k), workloads::GoCache<Elided>::kNoExpiration);
    }
  }
  RunThreads(threads, [&](int t) {
    SplitMix64 rng(0xcac4eu + static_cast<uint64_t>(t));
    for (int i = 0; i < ops_per_thread; ++i) {
      const uint64_t key = rng.NextBelow(256) + 1;
      int64_t value = 0;
      const int r = i % 100;
      if (r < 40) {
        obs::ScopedSite site(map_get_site);
        cache->MapGet(key, &value);
      } else if (r < 70) {
        obs::ScopedSite site(get_site);
        cache->Get(key, /*now=*/1, &value);
      } else if (r < 90) {
        obs::ScopedSite site(set_site);
        cache->Set(key, static_cast<int64_t>(i), workloads::GoCache<Elided>::kNoExpiration);
      } else {
        obs::ScopedSite site(count_site);
        cache->ItemCount();
      }
    }
  });
}

void RunTallyDriver(int threads, int ops_per_thread) {
  const uint32_t exists_site = obs::RegisterSite("Scope.HistogramExists");
  const uint32_t report_site = obs::RegisterSite("Scope.ReportOnce");
  const uint32_t value_site = obs::RegisterSite("Scope.CounterValue");
  const uint32_t inc_site = obs::RegisterSite("Scope.IncCounter");
  auto scope = std::make_unique<workloads::TallyScope<Elided>>();
  constexpr int kMetrics = 32;
  uint64_t ids[kMetrics];
  for (int i = 0; i < kMetrics; ++i) {
    ids[i] = workloads::MetricId("metric" + std::to_string(i));
    scope->RegisterHistogram(ids[i]);
    scope->RegisterCounter(ids[i], 1);
    scope->RegisterGauge(ids[i], 1);
    scope->RegisterReportingHistogram(ids[i], 1);
  }
  RunThreads(threads, [&](int t) {
    SplitMix64 rng(0x7a11eu + static_cast<uint64_t>(t));
    for (int i = 0; i < ops_per_thread; ++i) {
      const uint64_t id = ids[rng.NextBelow(kMetrics)];
      const int r = i % 100;
      if (r < 50) {
        obs::ScopedSite site(exists_site);
        scope->HistogramExists(id);
      } else if (r < 75) {
        obs::ScopedSite site(report_site);
        scope->Report(ids, 4);
      } else if (r < 90) {
        obs::ScopedSite site(value_site);
        scope->CounterValue(id);
      } else {
        obs::ScopedSite site(inc_site);
        scope->IncCounter(id, 1);
      }
    }
  });
}

void RunZapDriver(int threads, int ops_per_thread) {
  const uint32_t check_site = obs::RegisterSite("Logger.Check");
  const uint32_t write_site = obs::RegisterSite("Logger.Write");
  const uint32_t level_site = obs::RegisterSite("Logger.SetLevel");
  auto logger = std::make_unique<workloads::ZapLogger<Elided>>();
  RunThreads(threads, [&](int t) {
    SplitMix64 rng(0x2a9u + static_cast<uint64_t>(t));
    for (int i = 0; i < ops_per_thread; ++i) {
      const int r = i % 1000;
      if (r == 999) {
        // Rare on purpose: Logger.SetLevel ships at 0.4% — the emitted
        // profile must measure it cold, not just omit it.
        obs::ScopedSite site(level_site);
        logger->SetLevel(workloads::LogLevel::kInfo);
      } else if (r % 10 < 6) {
        obs::ScopedSite site(check_site);
        logger->Check(workloads::LogLevel::kWarn);
      } else {
        obs::ScopedSite site(write_site);
        logger->Write(workloads::LogLevel::kError, rng.Next());
      }
    }
  });
}

void RunFastCacheDriver(int threads, int ops_per_thread) {
  const uint32_t get_site = obs::RegisterSite("bucket.get");
  const uint32_t has_site = obs::RegisterSite("bucket.has");
  const uint32_t set_site = obs::RegisterSite("bucket.set");
  auto cache = std::make_unique<workloads::FastCache<Elided>>();
  {
    obs::ScopedSite site(set_site);
    for (uint64_t k = 1; k <= 256; ++k) {
      cache->Set(k, static_cast<int64_t>(k));
    }
  }
  RunThreads(threads, [&](int t) {
    SplitMix64 rng(0xfa57u + static_cast<uint64_t>(t));
    for (int i = 0; i < ops_per_thread; ++i) {
      const uint64_t key = rng.NextBelow(256) + 1;
      int64_t value = 0;
      const int r = i % 100;
      if (r < 50) {
        obs::ScopedSite site(get_site);
        cache->Get(key, &value);
      } else if (r < 85) {
        obs::ScopedSite site(has_site);
        cache->Has(key);
      } else {
        obs::ScopedSite site(set_site);
        cache->Set(key, static_cast<int64_t>(i));
      }
    }
  });
}

using DriverFn = void (*)(int, int);

DriverFn DriverFor(const std::string& repo_name) {
  if (repo_name == "set") {
    return RunSetDriver;
  }
  if (repo_name == "go-cache") {
    return RunGoCacheDriver;
  }
  if (repo_name == "tally") {
    return RunTallyDriver;
  }
  if (repo_name == "zap") {
    return RunZapDriver;
  }
  if (repo_name == "fastcache") {
    return RunFastCacheDriver;
  }
  return nullptr;
}

}  // namespace

bool HasSelfProfileDriver(const std::string& repo_name) {
  return DriverFor(repo_name) != nullptr;
}

StatusOr<SelfProfileResult> CollectSelfProfile(const std::string& repo_name,
                                               int threads,
                                               int ops_per_thread) {
  DriverFn driver = DriverFor(repo_name);
  if (driver == nullptr) {
    return InvalidArgumentError("no self-profile driver for repo '" +
                                repo_name + "'");
  }
  if (threads < 1 || ops_per_thread < 1) {
    return InvalidArgumentError("threads and ops_per_thread must be >= 1");
  }
  // Trace this run and nothing else: flip the recorder on, drop any stale
  // events, and restore the caller's config afterwards. MaxProcs must be
  // > 1 or the single-proc bypass turns every episode into a slow acquire.
  const optilib::OptiConfig saved_config = optilib::GetOptiConfig();
  const int saved_procs =
      gosync::SetMaxProcs(threads < 2 ? 2 : threads);
  optilib::OptiConfig traced = saved_config;
  traced.trace_episodes = true;
  optilib::PublishOptiConfig(traced);
  obs::DiscardTrace();

  driver(threads, ops_per_thread);

  SelfProfileResult result;
  std::vector<obs::Event> events = obs::DrainTrace(&result.drain);
  result.profile = obs::AggregateProfile(events);
  result.profile_text =
      obs::EmitProfileText(result.profile, repo_name + " workload run");

  optilib::PublishOptiConfig(saved_config);
  gosync::SetMaxProcs(saved_procs);
  return result;
}

}  // namespace gocc::bench
