// Figure 9: fastcache — CacheGet (speedup fades as atomic-add conflicts
// grow; perceptron prevents collapse), CacheHas (shorter CS, higher
// speedup), CacheSet (untransformed: no change), CacheSetGet (mixed).

#include <memory>

#include "bench/bench_util.h"
#include "src/workloads/fastcache.h"

namespace gocc::bench {
namespace {

using workloads::FastCache;

template <typename Policy>
std::shared_ptr<FastCache<Policy>> MakeCache() {
  auto cache = std::make_shared<FastCache<Policy>>();
  for (uint64_t k = 1; k <= 128; ++k) {
    cache->Set(k, static_cast<int64_t>(k));
  }
  return cache;
}

template <typename Policy>
std::function<void(gopool::PB&)> GetBody() {
  auto cache = MakeCache<Policy>();
  return [cache](gopool::PB& pb) {
    uint64_t k = 0;
    int64_t v = 0;
    while (pb.Next()) {
      cache->Get((k++ % 128) + 1, &v);
    }
  };
}

template <typename Policy>
std::function<void(gopool::PB&)> HasBody() {
  auto cache = MakeCache<Policy>();
  return [cache](gopool::PB& pb) {
    uint64_t k = 0;
    while (pb.Next()) {
      cache->Has((k++ % 128) + 1);
    }
  };
}

template <typename Policy>
std::function<void(gopool::PB&)> SetBody() {
  auto cache = MakeCache<Policy>();
  return [cache](gopool::PB& pb) {
    uint64_t k = 0;
    while (pb.Next()) {
      const uint64_t key = (k % 128) + 1;
      ++k;
      cache->Set(key, static_cast<int64_t>(k));
    }
  };
}

template <typename Policy>
std::function<void(gopool::PB&)> SetGetBody() {
  auto cache = MakeCache<Policy>();
  return [cache](gopool::PB& pb) {
    uint64_t k = 0;
    int64_t v = 0;
    while (pb.Next()) {
      // The paper's CacheSetGet: a Set loop followed by a Get loop per
      // goroutine; compressed to an interleaved 1:8 mix per iteration.
      if ((k & 7) == 0) {
        cache->Set((k % 128) + 1, static_cast<int64_t>(k));
      } else {
        cache->Get((k % 128) + 1, &v);
      }
      ++k;
    }
  };
}

std::vector<SimCase> SimCases() {
  std::vector<SimCase> cases;
  {
    // Get: the CS's atomic adds on shared stats are transactional writes —
    // conflicts rise with cores and the speedup fades.
    sim::Scenario s;
    s.name = "CacheGet";
    s.kind = sim::LockKind::kRWRead;
    s.cs_ns = 14;  // probe + value copy + stat adds
    s.shared_write_lines = 1;  // the stats line
    s.write_prob = 1.0;        // every Get bumps getCalls
    s.write_footprint_lines = 1;
    s.outside_ns = 22;         // key hashing + call overhead between gets
    cases.push_back({s.name, s});
  }
  {
    // Has: same pattern, shorter CS => smaller conflict window => "the
    // speedups are higher ... but it follows the same performance pattern".
    sim::Scenario s;
    s.name = "CacheHas";
    s.kind = sim::LockKind::kRWRead;
    s.cs_ns = 6;
    s.shared_write_lines = 1;
    s.write_prob = 1.0;
    s.write_footprint_lines = 1;
    s.outside_ns = 22;
    cases.push_back({s.name, s});
  }
  {
    // Set is not transformed: both builds run the pessimistic write lock.
    sim::Scenario s;
    s.name = "CacheSet(untransformed)";
    s.kind = sim::LockKind::kRWWrite;
    s.cs_ns = 20;
    s.transformed = false;  // never elided: both builds take the lock
    s.outside_ns = 4;
    cases.push_back({s.name, s});
  }
  return cases;
}

}  // namespace
}  // namespace gocc::bench

int main() {
  gocc::bench::JsonReport report("fastcache");
  using gocc::bench::MeasuredCase;
  using gocc::workloads::Elided;
  using gocc::workloads::Pessimistic;

  std::printf("== Figure 9: fastcache — lock vs GOCC ==\n");

  std::vector<MeasuredCase> cases = {
      {"CacheGet", [] { return gocc::bench::GetBody<Pessimistic>(); },
       [] { return gocc::bench::GetBody<Elided>(); }},
      {"CacheHas", [] { return gocc::bench::HasBody<Pessimistic>(); },
       [] { return gocc::bench::HasBody<Elided>(); }},
      {"CacheSet", [] { return gocc::bench::SetBody<Pessimistic>(); },
       [] { return gocc::bench::SetBody<Elided>(); }},
      {"CacheSetGet", [] { return gocc::bench::SetGetBody<Pessimistic>(); },
       [] { return gocc::bench::SetGetBody<Elided>(); }},
  };
  gocc::bench::RunMeasured("Figure 9 (fastcache)", cases, {1, 2, 4, 8},
                           std::chrono::milliseconds(40));
  gocc::bench::RunSimulated("Figure 9 (fastcache)", gocc::bench::SimCases(),
                            {1, 2, 4, 8});

  std::printf(
      "\nNote: in the CacheSet row both builds run the identical pessimistic "
      "lock\n(GOCC leaves Set untransformed because of its panic path; see "
      "the corpus\nanalysis in table1_report). CacheSetGet's paper-reported "
      "high-core gain is a\nsecondary effect of Go mutex starvation mode "
      "redistributing goroutines; the\nstarvation machinery itself is "
      "implemented and tested in gosync (MutexTest.\nStarvationModeHandoff), "
      "but the scheduling side-effect needs real goroutine\npreemption and "
      "is out of the DES model's scope.\n");
  return 0;
}
