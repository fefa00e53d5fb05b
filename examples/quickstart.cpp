// Quickstart: elide a mutex with optiLib — and watch it happen.
//
// Demonstrates the core GOCC runtime idea: several threads update disjoint
// slots of a shared table that a single global mutex guards. With plain
// locking they serialize; with OptiLock the critical sections run as
// transactions and only genuinely conflicting updates serialize.
//
// The run is observed through the src/obs subsystem: the episode trace
// recorder is on, so afterwards the program writes a Chrome trace of the
// last recorded episodes (load quickstart_trace.json at chrome://tracing
// or https://ui.perfetto.dev), prints the profile it collected about
// itself, and dumps a Prometheus-style metrics snapshot.
//
// Build & run:  ./build/examples/quickstart

#include <cstdio>
#include <fstream>
#include <thread>
#include <vector>

#include "src/gosync/mutex.h"
#include "src/gosync/runtime.h"
#include "src/htm/shared.h"
#include "src/htm/stats.h"
#include "src/obs/metrics.h"
#include "src/obs/recorder.h"
#include "src/obs/self_profile.h"
#include "src/obs/trace_export.h"
#include "src/optilib/optilock.h"

int main() {
  // The runtime picks real Intel RTM if the hardware supports it and the
  // probe sees transactions commit; otherwise the software TM backend
  // GOCC_BACKEND selected (SimTM by default, sw-OCC via =swocc).
  gocc::htm::EnableRtmIfSupported();
  std::printf("TM backend: %s\n",
              gocc::htm::BackendName(gocc::htm::ActiveBackend()));

  // Pretend we have 4 logical processors even on a small host, so the
  // single-P bypass doesn't disable elision for the demo.
  gocc::gosync::SetMaxProcs(4);

  // Turn the episode trace recorder on (equivalent to GOCC_OBS_TRACE=1):
  // every elision episode leaves one event in the recording thread's ring.
  gocc::optilib::OptiConfig cfg = gocc::optilib::GetOptiConfig();
  cfg.trace_episodes = true;
  gocc::optilib::PublishOptiConfig(cfg);
  const uint32_t site = gocc::obs::RegisterSite("Quickstart.Increment");

  constexpr int kThreads = 4;
  constexpr int kSlots = 64;
  constexpr int kIncrementsPerThread = 100000;

  gocc::gosync::Mutex table_mu;  // one coarse lock for the whole table
  struct alignas(64) Slot {
    gocc::htm::Shared<int64_t> value;
  };
  std::vector<Slot> table(kSlots);

  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      // One OptiLock per goroutine/thread, exactly like transformed Go
      // code declares one per function invocation.
      gocc::optilib::OptiLock opti_lock;
      // Attribute this loop's episodes to a named site, the way the
      // self-profiling corpus drivers attribute to "Set.Len" etc.
      gocc::obs::ScopedSite scoped_site(site);
      for (int i = 0; i < kIncrementsPerThread; ++i) {
        // Each thread owns a distinct slot range: the critical sections
        // are disjoint, so elision lets them commit in parallel.
        size_t slot = static_cast<size_t>(t) * (kSlots / kThreads) +
                      static_cast<size_t>(i) % (kSlots / kThreads);
        opti_lock.WithLock(&table_mu, [&] { table[slot].value.Add(1); });
      }
    });
  }
  for (auto& w : workers) {
    w.join();
  }

  int64_t total = 0;
  for (auto& slot : table) {
    total += slot.value.Load();
  }
  std::printf("total increments: %lld (expected %d)\n",
              static_cast<long long>(total), kThreads * kIncrementsPerThread);
  std::printf("optiLib: %s\n",
              gocc::optilib::GlobalOptiStats().ToString().c_str());
  std::printf("tm:      %s\n", gocc::htm::GlobalTxStats().ToString().c_str());

  // --- drain the observability loop -----------------------------------

  gocc::obs::DrainStats drain;
  std::vector<gocc::obs::Event> events = gocc::obs::DrainTrace(&drain);
  std::printf("\ntrace: %llu episodes recorded, %llu in rings, %llu "
              "overwritten\n",
              static_cast<unsigned long long>(drain.recorded),
              static_cast<unsigned long long>(drain.drained),
              static_cast<unsigned long long>(drain.dropped));

  const char* trace_path = "quickstart_trace.json";
  std::ofstream trace_out(trace_path, std::ios::binary);
  trace_out << gocc::obs::ChromeTraceJson(events);
  trace_out.close();
  std::printf("wrote %s (load it at chrome://tracing or ui.perfetto.dev)\n",
              trace_path);

  // The profile this run collected about itself — the same text format the
  // GOCC pipeline consumes for hot/cold filtering (see
  // `table1_report --profile-from-run` for the full closed loop).
  gocc::obs::SelfProfile profile = gocc::obs::AggregateProfile(events);
  std::printf("\nself-collected profile:\n%s\n",
              gocc::obs::EmitProfileText(profile, "quickstart run").c_str());

  std::printf("metrics snapshot (Prometheus exposition, first lines):\n");
  std::string metrics = gocc::obs::PrometheusSnapshot();
  size_t shown = 0;
  for (size_t pos = 0; pos < metrics.size() && shown < 12; ++shown) {
    size_t end = metrics.find('\n', pos);
    if (end == std::string::npos) {
      end = metrics.size();
    }
    std::printf("  %s\n", metrics.substr(pos, end - pos).c_str());
    pos = end + 1;
  }
  std::printf("  ... (%zu bytes total)\n", metrics.size());
  return total == kThreads * kIncrementsPerThread ? 0 : 1;
}
