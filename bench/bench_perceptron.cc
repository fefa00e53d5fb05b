// Figure 10: Tally with vs. without the perceptron (NP = no perceptron,
// always attempt HTM), plus §6.2's synthetic perceptron-overhead
// measurement (paper: 0.65% prediction + 0.73% update = 1.38% total on a
// conflict-free 1000-counter-update critical section).

#include <chrono>
#include <cstdio>
#include <memory>

#include "bench/bench_util.h"
#include "src/gosync/runtime.h"
#include "src/htm/config.h"
#include "src/optilib/optilock.h"
#include "src/support/stats.h"
#include "src/workloads/tally.h"

namespace gocc::bench {
namespace {

// Figure 10's interesting cases: an HTM-friendly benchmark (perceptron must
// not get in the way) and the HTM-hostile allocation benchmarks (perceptron
// must eliminate the loss that NP suffers).
std::vector<SimCase> Figure10Cases() {
  std::vector<SimCase> cases;
  {
    sim::Scenario s;
    s.name = "HistogramExisting";
    s.kind = sim::LockKind::kMutex;
    s.cs_ns = 6;
    s.outside_ns = 3;
    cases.push_back({s.name, s});
  }
  {
    sim::Scenario s;
    s.name = "CounterAllocation";
    s.kind = sim::LockKind::kMutex;
    s.cs_ns = 60;
    s.shared_write_lines = 2;
    s.write_prob = 1.0;
    s.write_footprint_lines = 17;
    s.outside_ns = 5;
    cases.push_back({s.name, s});
  }
  {
    sim::Scenario s;
    s.name = "SanitizedCounterAlloc";
    s.kind = sim::LockKind::kMutex;
    s.cs_ns = 80;  // extra sanitization work, same hostile pattern
    s.shared_write_lines = 2;
    s.write_prob = 1.0;
    s.write_footprint_lines = 20;
    s.outside_ns = 5;
    cases.push_back({s.name, s});
  }
  return cases;
}

double NowNs() {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// §6.2: conflict-free critical section with 1000 counter updates, elided;
// measures the perceptron's prediction and update costs as a fraction of
// the critical-section cost.
void PerceptronOverheadExperiment() {
  std::printf("\n[measured] §6.2 perceptron overhead — conflict-free CS "
              "with 1000 counter updates\n");
  htm::ForceSimBackend();
  gosync::SetMaxProcs(4);  // keep the single-P bypass out of the way
  optilib::GlobalPerceptron().Reset();

  gosync::Mutex mu;
  auto counter = std::make_unique<htm::Shared<int64_t>>(0);
  constexpr int kUpdates = 1000;
  constexpr int kEpisodes = 2000;

  auto run_episodes = [&](bool use_perceptron) {
    optilib::OptiConfig cfg;
    cfg.use_perceptron = use_perceptron;
    optilib::PublishOptiConfig(cfg);
    optilib::GlobalPerceptron().Reset();
    optilib::OptiLock opti_lock;
    double start = NowNs();
    for (int e = 0; e < kEpisodes; ++e) {
      opti_lock.WithLock(&mu, [&] {
        for (int i = 0; i < kUpdates; ++i) {
          counter->Add(1);
        }
      });
    }
    return (NowNs() - start) / kEpisodes;
  };

  // Warm up, then measure both configurations.
  run_episodes(true);
  double with_ns = run_episodes(true);
  double without_ns = run_episodes(false);
  double total_overhead_pct = (with_ns / without_ns - 1.0) * 100.0;

  // Direct microcosts of the two perceptron operations, relative to the
  // critical-section cost (the paper reports them separately).
  auto& perceptron = optilib::GlobalPerceptron();
  auto idx = optilib::Perceptron::IndicesFor(&mu, &perceptron);
  constexpr int kMicroIters = 2000000;
  double t0 = NowNs();
  bool sink = false;
  for (int i = 0; i < kMicroIters; ++i) {
    sink ^= perceptron.Predict(idx);
  }
  double predict_ns = (NowNs() - t0) / kMicroIters;
  t0 = NowNs();
  for (int i = 0; i < kMicroIters; ++i) {
    perceptron.RewardHtm(idx);
  }
  double update_ns = (NowNs() - t0) / kMicroIters;
  // A volatile store of the result keeps the compiler from dropping the loop.
  [[maybe_unused]] volatile bool keep = sink;

  std::printf("  CS cost without perceptron: %.0f ns/episode\n", without_ns);
  std::printf("  prediction overhead: %.2f ns/episode = %.2f%%  (paper: "
              "0.65%%)\n",
              predict_ns, predict_ns / without_ns * 100.0);
  std::printf("  update overhead:     %.2f ns/episode = %.2f%%  (paper: "
              "0.73%%)\n",
              update_ns, update_ns / without_ns * 100.0);
  std::printf("  end-to-end (on/off): %+.2f%%            (paper: 1.38%% "
              "total)\n",
              total_overhead_pct);
  gosync::SetMaxProcs(0);
}

}  // namespace
}  // namespace gocc::bench

int main() {
  gocc::bench::JsonReport report("perceptron");
  std::printf("== Figure 10: perceptron vs no-perceptron (NP) ==\n");

  auto cases = gocc::bench::Figure10Cases();
  gocc::bench::RunSimulated("Figure 10 — with perceptron", cases,
                            {1, 2, 4, 8}, /*with_perceptron=*/true);
  gocc::bench::RunSimulated("Figure 10 — NP (always HTM)", cases,
                            {1, 2, 4, 8}, /*with_perceptron=*/false);
  std::printf(
      "\nExpected shape (paper): the hostile allocation benchmarks abort "
      "frequently;\nNP keeps paying the abort tax while the perceptron "
      "quickly routes those sites\nto the lock, eliminating the loss. The "
      "friendly benchmark is unaffected.\n");

  gocc::bench::PerceptronOverheadExperiment();
  return 0;
}
