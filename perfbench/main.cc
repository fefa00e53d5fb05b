// perfbench: the repository's closed-loop benchmark (see README.md).
//
//   perfbench --workload <ledger-hot|svc-mixed> --seed <n> --seconds <s>
//             --trace <0|1> [--trace-out <file.json>]
//
// --trace 0 prints the end-to-end metrics of the elided build; --trace 1
// prints the per-layer ledger: counters and spans of the same workload, its
// untracked-lock baseline, and the layer microcells. The last line of
// stdout is one JSON object {correct, attempted, failed, metrics}. Exit
// status: 0 when every answer check passed, 1 when one failed, 2 on bad
// arguments or a host with too few CPUs, 3 when a self-test failed.

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/cells.h"
#include "perfbench/hist.h"
#include "perfbench/host.h"
#include "perfbench/trace.h"
#include "perfbench/workloads.h"
#include "src/gosync/runtime.h"
#include "src/htm/config.h"
#include "src/htm/stats.h"
#include "src/optilib/optilock.h"
#include "src/support/histogram.h"
#include "src/workloads/policy.h"

namespace gocc::perfbench {
namespace {

// Set-ups per --trace 0 run; setup_s is their median.
constexpr int kSetupReps = 101;
// Bytes the harness writes before each timed set-up: more than a core's L2
// (2 MiB on the measured host), so the set-up finds none of its data there.
constexpr size_t kEvictBytes = size_t{16} << 20;
constexpr double kWarmupSeconds = 1.0;
constexpr double kTracedWarmupSeconds = 0.5;

struct Args {
  Workload workload = Workload::kLedgerHot;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  bool have_workload = false;
  bool have_seed = false;
  bool have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      have_workload = false;
      for (Workload w : kAllWorkloads) {
        if (value == WorkloadName(w)) {
          a->workload = w;
          have_workload = true;
        }
      }
      if (!have_workload) {
        return false;
      }
    } else if (flag == "--seed") {
      a->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = !value.empty() && *end == '\0';
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(value.c_str(), &end);
      have_seconds = !value.empty() && *end == '\0' && a->seconds >= 1.0 &&
                     a->seconds <= 120.0;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        return false;
      }
      a->trace = value == "1";
    } else if (flag == "--trace-out") {
      a->trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && have_seed && have_seconds;
}

// --- self-tests ------------------------------------------------------------

// A distribution whose true p50 (320) and p99 (448) sit exactly on
// support::LatencyHistogram bucket edges: the fine histogram must land
// within 1%; the coarse one reports a bucket midpoint instead.
bool SelfTestHistogram() {
  FineHistogram fine;
  support::LatencyHistogram coarse;
  auto add = [&](uint64_t lo, uint64_t span, int count) {
    for (int i = 0; i < count; ++i) {
      const uint64_t v = lo + static_cast<uint64_t>(i) % span;
      fine.Record(v);
      coarse.Record(v);
    }
  };
  add(192, 128, 50'000);  // [192, 320)
  add(320, 128, 49'000);  // [320, 448)
  add(448, 576, 1'000);   // [448, 1024)
  bool ok = true;
  const struct {
    double q;
    double truth;
  } checks[] = {{0.50, 320.0}, {0.99, 448.0}};
  for (const auto& c : checks) {
    const double got = fine.Quantile(c.q);
    const double err = std::fabs(got - c.truth) / c.truth;
    std::printf("self-test histogram: q=%.2f true=%.0f fine=%.2f (%.2f%%) "
                "coarse=%llu\n",
                c.q, c.truth, got, 100.0 * err,
                static_cast<unsigned long long>(coarse.ValueAtQuantile(c.q)));
    ok = ok && err <= 0.01;
  }
  // Every bucket at or above 128 is at most 1% as wide as its lower edge;
  // below that, buckets are single integers and exact.
  for (int b = 128; b < FineHistogram::kBuckets; ++b) {
    double lo = 0.0;
    double width = 0.0;
    FineHistogram::Bounds(b, &lo, &width);
    if (width > 0.01 * lo || FineHistogram::BucketFor(
                                 static_cast<uint64_t>(lo)) != b) {
      std::printf("self-test histogram: bucket %d [%.0f, +%.0f) malformed\n",
                  b, lo, width);
      return false;
    }
  }
  return ok;
}

// One seed reproduces every client's stream; another seed, or another
// client, gives a different one.
bool SelfTestStreams(uint64_t seed) {
  constexpr size_t kProbe = 4096;
  for (Workload w : kAllWorkloads) {
    const auto a = MakeStream(w, seed, 1, kProbe);
    if (a != MakeStream(w, seed, 1, kProbe) ||
        a == MakeStream(w, seed + 1, 1, kProbe) ||
        a == MakeStream(w, seed, 2, kProbe)) {
      std::printf("self-test streams: %s not a function of the seed\n",
                  WorkloadName(w));
      return false;
    }
  }
  std::printf("self-test streams: ok (seed %llu reproduces, seed+1 and "
              "other clients differ)\n",
              static_cast<unsigned long long>(seed));
  return true;
}

// --- runtime set-up --------------------------------------------------------

void ResetRuntime() {
  htm::ForceSimBackend();
  htm::GlobalTxStats().Reset();
  optilib::GlobalOptiStats().Reset();
  optilib::GlobalPerceptron().Reset();
  optilib::ResetHardeningState();
}

// Set-up: runtime reset, construction and preload.
template <typename Sut>
std::unique_ptr<Sut> SetUp() {
  ResetRuntime();
  auto sut = std::make_unique<Sut>();
  sut->Preload();
  return sut;
}

// Times `reps` set-ups into `seconds` and returns the last instance. Each
// starts from cold caches, as a program's first set-up does: the harness
// idles for 20 ms, then writes every cache line of `evict`. Back to back, a
// set-up ran in the caches the previous one left warm; after a bare idle
// gap, in whatever else the core had run meanwhile. Either way its time
// varied with the process or the host's load (README.md, "How steady it
// is").
template <typename Sut>
std::unique_ptr<Sut> TimedSetUps(int reps, std::vector<char>* evict,
                                 std::vector<double>* seconds) {
  std::unique_ptr<Sut> sut;
  for (int r = 0; r < reps; ++r) {
    sut.reset();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    for (size_t i = 0; i < evict->size(); i += 64) {
      ++(*evict)[i];
    }
    const uint64_t t0 = SteadyNs();
    sut = SetUp<Sut>();
    seconds->push_back(static_cast<double>(SteadyNs() - t0) * 1e-9);
  }
  return sut;
}

// --- output ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = StrFormat(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {",
      correct ? "true" : "false", static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    out += StrFormat("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                     i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                     metrics[i].unit);
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

void PrintWindow(const char* label, const Window& w) {
  std::printf(
      "  %-6s ops_per_s=%.6g p50_ns=%.2f p99_ns=%.2f\n"
      "         medians of %d slices, %llu samples per slice; "
      "%llu attempted, %llu failed; cpu_util=%.3f steal_s=%.3f\n",
      label, w.ops_per_s, w.p50_ns, w.p99_ns, kSlices,
      static_cast<unsigned long long>(w.slice_samples),
      static_cast<unsigned long long>(w.attempted),
      static_cast<unsigned long long>(w.failed), w.cpu_util, w.steal_s);
  std::printf("         slices (ops/s, p50 ns):");
  for (size_t i = 0; i < w.slice_rates.size(); ++i) {
    std::printf(" %.4g/%.1f", w.slice_rates[i], w.slice_p50s[i]);
  }
  std::printf("\n");
}

bool CheckOracle(const char* label, uint64_t issued, const Window& w,
                 bool oracle_ok, const std::string& why) {
  if (!oracle_ok) {
    std::printf("  %s ORACLE VIOLATION: %s\n", label, why.c_str());
  }
  if (w.wrong != 0) {
    std::printf("  %s WRONG ANSWERS: %llu of %llu requests\n", label,
                static_cast<unsigned long long>(w.wrong),
                static_cast<unsigned long long>(issued));
  }
  return oracle_ok && w.wrong == 0;
}

auto Nop = [] {};

// --- --trace 0: end-to-end metrics -----------------------------------------

template <template <typename> class SutT>
int RunEndToEnd(const Args& a,
                const std::vector<std::vector<uint32_t>>& streams) {
  Window w;
  std::vector<char> evict(kEvictBytes);
  const ProgramRss rss;  // after the streams, `w`'s histograms and `evict`
  std::vector<double> setup;
  auto sut = TimedSetUps<SutT<workloads::Elided>>(kSetupReps, &evict, &setup);
  RunWindow<false>(*sut, streams, kWarmupSeconds, a.seconds, Nop, Nop, &w);
  std::string why;
  const bool oracle = sut->Oracle(w.issued, &why);
  const double peak_mib = rss.PeakMib();
  sut.reset();
  const bool correct = CheckOracle("elided", w.issued, w, oracle, why);
  PrintWindow("elided", w);
  std::printf("  setup_s=%.6f (median of %d cold set-ups)\n"
              "  peak_rss_mb=%.3f (peak RSS above the harness's own)\n",
              Median(setup), kSetupReps, peak_mib);
  PrintResult(correct, w.attempted, w.failed,
              {{"ops_per_s", w.ops_per_s, "1/s"},
               {"p50_ns", w.p50_ns, "ns"},
               {"p99_ns", w.p99_ns, "ns"},
               {"peak_rss_mb", peak_mib, "MiB"},
               {"setup_s", Median(setup), "s"}});
  return correct ? 0 : 1;
}

// --- --trace 1: per-layer ledger -------------------------------------------

// Runtime and service counters, diffed around a measured window.
struct Counters {
  uint64_t episodes = 0;
  uint64_t slow_acquires = 0;
  uint64_t site_cache_hits = 0;
  uint64_t perceptron_slow = 0;
  uint64_t multilock_episodes = 0;
  uint64_t multilock_fast_commits = 0;
  uint64_t aborts[htm::kNumAbortCodes] = {};
  uint64_t shed = 0;
  uint64_t hedges = 0;
};

template <typename Sut>
Counters Snapshot(Sut& sut) {
  const optilib::OptiStats& os = optilib::GlobalOptiStats();
  const htm::TxStats& ts = htm::GlobalTxStats();
  Counters c;
  c.episodes = os.fast_commits.load() + os.nested_fast_commits.load() +
               os.slow_acquires.load();
  c.slow_acquires = os.slow_acquires.load();
  c.site_cache_hits = os.site_cache_hits.load();
  c.perceptron_slow = os.perceptron_slow_decisions.load();
  c.multilock_episodes = os.multilock_episodes.load();
  c.multilock_fast_commits = os.multilock_fast_commits.load();
  for (int i = 0; i < htm::kNumAbortCodes; ++i) {
    c.aborts[i] = ts.Aborts(static_cast<htm::AbortCode>(i));
  }
  sut.ServiceCounts(&c.shed, &c.hedges);
  return c;
}

// Metric-name spelling of each abort code (index = htm::AbortCode).
constexpr const char* kAbortNames[] = {
    "none",           "conflict", "capacity", "explicit", "lock_held",
    "mutex_mismatch", "spurious", "occ_validate_fail"};
static_assert(std::size(kAbortNames) == htm::kNumAbortCodes);

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

template <template <typename> class SutT>
int RunTraced(const Args& a,
              const std::vector<std::vector<uint32_t>>& streams) {
  using Elided = SutT<workloads::Elided>;
  using Traced = SutT<TracedElided>;
  using Lock = SutT<workloads::Pessimistic>;
  // Three client windows and the microcells share the run time.
  const double part = a.seconds / 4.0;
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  const auto settle = [&](const char* label, auto& sut, const Window& w) {
    std::string why;
    const bool oracle = sut->Oracle(w.issued, &why);
    correct = CheckOracle(label, w.issued, w, oracle, why) && correct;
    attempted += w.attempted;
    failed += w.failed;
    PrintWindow(label, w);
  };

  // (a) The elided build, untraced: counters and the overhead reference.
  Counters c0;
  Counters c1;
  Window wa;
  auto elided = SetUp<Elided>();
  RunWindow<false>(
      *elided, streams, kTracedWarmupSeconds, part,
      [&] { c0 = Snapshot(*elided); }, [&] { c1 = Snapshot(*elided); }, &wa);
  settle("elided", elided, wa);
  elided.reset();

  // (b) The same inputs through the traced policy: spans.
  Window wb;
  auto traced = SetUp<Traced>();
  RunWindow<true>(*traced, streams, kTracedWarmupSeconds, part, Nop, Nop,
                  &wb);
  settle("traced", traced, wb);
  traced.reset();

  // (c) The untracked-lock baseline (workloads::Pessimistic).
  Window wc;
  auto lock = SetUp<Lock>();
  RunWindow<false>(*lock, streams, kTracedWarmupSeconds, part, Nop, Nop,
                   &wc);
  settle("lock", lock, wc);
  lock.reset();

  // Span aggregates across clients.
  FineHistogram op, opt_self, body, svc_self;
  uint64_t episodes = 0;
  uint64_t body_runs = 0;
  std::vector<SampledOp> samples;
  for (const ClientStats& c : wb.clients) {
    op.Merge(c.op);
    opt_self.Merge(c.optilib_self);
    body.Merge(c.body);
    svc_self.Merge(c.service_self);
    episodes += c.episodes;
    body_runs += c.body_runs;
    samples.insert(samples.end(), c.samples.begin(), c.samples.end());
  }
  const double tick = wb.ns_per_tick;
  if (!a.trace_out.empty()) {
    const std::string json = ChromeTraceJson(samples, Elided::kOpSpan, tick);
    if (std::FILE* f = std::fopen(a.trace_out.c_str(), "w")) {
      std::fwrite(json.data(), 1, json.size(), f);
      std::fclose(f);
      std::printf("  chrome trace: %s (%zu sampled requests)\n",
                  a.trace_out.c_str(), samples.size());
    }
  }

  const double ops = static_cast<double>(wa.attempted);
  const auto per_kop = [&](uint64_t before, uint64_t after) {
    return Ratio(1000.0 * static_cast<double>(after - before), ops);
  };
  std::vector<Metric> m = {
      {"optilib.self_ns", opt_self.Quantile(0.5) * tick, "ns"},
      {"optilib.body_runs_per_episode",
       Ratio(static_cast<double>(body_runs), static_cast<double>(episodes)),
       "ratio"},
      {"workloads.op_ns", op.Quantile(0.5) * tick, "ns"},
      {"workloads.cs_ns", body.Quantile(0.5) * tick, "ns"},
      {"service.self_ns", svc_self.Quantile(0.5) * tick, "ns"},
      {"optilib.site_cache_hit_ratio",
       Ratio(static_cast<double>(c1.site_cache_hits - c0.site_cache_hits),
             static_cast<double>(c1.episodes - c0.episodes)),
       "ratio"},
      {"optilib.slow_acquires_per_kop",
       per_kop(c0.slow_acquires, c1.slow_acquires), "1/kop"},
      {"optilib.perceptron_slow_decisions_per_kop",
       per_kop(c0.perceptron_slow, c1.perceptron_slow), "1/kop"},
      {"optilib.multilock_commit_ratio",
       Ratio(static_cast<double>(c1.multilock_fast_commits -
                                 c0.multilock_fast_commits),
             static_cast<double>(c1.multilock_episodes -
                                 c0.multilock_episodes)),
       "ratio"},
      {"service.shed_per_kop", per_kop(c0.shed, c1.shed), "1/kop"},
      {"service.hedges_per_kop", per_kop(c0.hedges, c1.hedges), "1/kop"},
      {"gosync.lock_baseline_ops_per_s", wc.ops_per_s, "1/s"},
      {"speedup_vs_lock", Ratio(wa.ops_per_s, wc.ops_per_s), "x"},
      {"gopool.cpu_util", wa.cpu_util, "cpus"},
      {"host.steal_s", wa.steal_s + wb.steal_s + wc.steal_s, "s"},
      {"trace.overhead_frac", 1.0 - Ratio(wb.ops_per_s, wa.ops_per_s),
       "ratio"},
  };
  for (int i = 1; i < htm::kNumAbortCodes; ++i) {
    m.push_back({std::string("htm.aborts_per_kop.") + kAbortNames[i],
                 per_kop(c0.aborts[i], c1.aborts[i]), "1/kop"});
  }
  MetricList cells;
  RunMicrocells(part, &cells);
  for (const auto& [name, ns] : cells) {
    m.push_back({name, ns, "ns"});
  }

  for (const Metric& x : m) {
    std::printf("  [%s] %-42s %14.6g %s\n", WorkloadName(a.workload),
                x.name.c_str(), x.value, x.unit);
  }
  PrintResult(correct, attempted, failed, m);
  return correct ? 0 : 1;
}

template <template <typename> class SutT>
int Run(const Args& a, const std::vector<std::vector<uint32_t>>& streams) {
  return a.trace ? RunTraced<SutT>(a, streams)
                 : RunEndToEnd<SutT>(a, streams);
}

int Main(int argc, char** argv) {
  Args a;
  if (!ParseArgs(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <ledger-hot|svc-mixed> "
                 "--seed <n> --seconds <1..120> --trace <0|1> "
                 "[--trace-out <file>]\n");
    return 2;
  }
  // A client that shares a CPU with another is descheduled mid-request,
  // which puts the scheduler into the latency tail; keep one CPU for the
  // harness thread and the rest of the host.
  const int cpus = AllowedCpuCount();
  if (kClients > cpus - 1) {
    std::fprintf(stderr,
                 "perfbench: refusing to run %d clients on %d CPUs (at most "
                 "nproc - 1)\n",
                 kClients, cpus);
    return 2;
  }
  gosync::SetMaxProcs(cpus);  // > 1: elision on

  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d "
              "clients=%d cpus=%d backend=sim\n",
              WorkloadName(a.workload),
              static_cast<unsigned long long>(a.seed), a.seconds,
              a.trace ? 1 : 0, kClients, cpus);
  if (!SelfTestHistogram() || !SelfTestStreams(a.seed)) {
    return 3;
  }

  std::vector<std::vector<uint32_t>> streams;
  for (int c = 0; c < kClients; ++c) {
    streams.push_back(MakeStream(a.workload, a.seed, c, kStreamOps));
  }
  switch (a.workload) {
    case Workload::kLedgerHot:
      return Run<LedgerHotSut>(a, streams);
    case Workload::kSvcMixed:
      return Run<SvcMixedSut>(a, streams);
  }
  return 2;
}

}  // namespace
}  // namespace gocc::perfbench

int main(int argc, char** argv) { return gocc::perfbench::Main(argc, argv); }
