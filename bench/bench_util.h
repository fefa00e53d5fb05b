// Shared harness for the figure benchmarks.
//
// Each figure binary prints two sections:
//  * [measured] — the real optiLib/SimTM runtime driven by
//    gopool::RunParallel across thread counts. This exercises every line of
//    the production code path; on a single-CPU host the threads time-share,
//    so wall-clock scaling is not expected to match the paper (the header
//    warns when that is the case).
//  * [simulated] — the DES concurrency-cost model at 1/2/4/8 cores, which
//    reproduces the paper's scaling shapes (see DESIGN.md §1).
//
// Every binary additionally leaves a machine-readable perf artifact: a
// JsonReport declared in main() collects one record per (benchmark, mode,
// threads) cell and writes BENCH_<name>.json at the repo root on exit, so
// successive PRs accumulate a perf trajectory (see EXPERIMENTS.md).

#ifndef GOCC_BENCH_BENCH_UTIL_H_
#define GOCC_BENCH_BENCH_UTIL_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/gopool/gopool.h"
#include "src/sim/desim.h"
#include "src/support/histogram.h"

namespace gocc::bench {

// One measured benchmark: bodies for the pessimistic and elided builds.
// `make_lock_body` / `make_elided_body` are invoked freshly per cell so
// workload state does not leak across thread counts.
struct MeasuredCase {
  std::string name;
  std::function<std::function<void(gopool::PB&)>()> make_lock_body;
  std::function<std::function<void(gopool::PB&)>()> make_elided_body;
};

// Runs every case at each thread count and prints paper-style rows:
// name, threads, lock ns/op, GOCC ns/op, speedup %.
void RunMeasured(const std::string& figure,
                 const std::vector<MeasuredCase>& cases,
                 const std::vector<int>& thread_counts,
                 std::chrono::milliseconds window);

// One simulated benchmark: the scenario descriptor derived from the
// workload implementation.
struct SimCase {
  std::string name;
  sim::Scenario scenario;
};

// Prints the DES sweep (lock vs elided ns/op and speedup per core count).
void RunSimulated(const std::string& figure,
                  const std::vector<SimCase>& cases,
                  const std::vector<int>& core_counts,
                  bool with_perceptron = true);

// Resets global TM/optiLib state between cells (perceptron, stats, cached
// site verdicts).
void ResetRuntimeState();

// Prints the accumulated optiLib and TM statistics for the section.
void PrintRuntimeStats();

// --- latency percentile helpers -------------------------------------------
//
// Shared by every benchmark that reports p50/p99/p999: batches of ops are
// bracketed by steady_clock reads and the batch MEAN lands in a per-thread
// histogram. Batch means smooth the extreme per-op tail (one cache miss is
// absorbed across the batch) but keep the clock read off the measured path;
// they answer "how stable is this path", not "what is the worst single op".
// The clock cost amortizes to ~1 ns/op and is paid identically by every
// mode, so it cancels out of any latency *difference* derived from a pass.

// Default ops per timed batch. 32 keeps the clock amortization under
// ~2 ns/op on a hot path while still giving a contended cell thousands of
// samples per window.
inline constexpr int kLatencyBatch = 32;

struct JsonRecord;  // declared with the JSON machinery below

// p50/p99/p999 snapshot of a merged histogram. samples == 0 means the pass
// recorded nothing (percentile keys should then be omitted from reports).
struct LatencySummary {
  double p50_ns = 0.0;
  double p99_ns = 0.0;
  double p999_ns = 0.0;
  uint64_t samples = 0;
};

// Owns one histogram per worker thread so Record() stays a plain
// increment, then merges them into a LatencySummary after the threads
// join. Claim() hands each calling thread a distinct histogram (wrapping
// if more threads than slots claim one — matching the slot-claim idiom the
// benches use). Reset() re-arms the recorder for the next cell.
class PercentileRecorder {
 public:
  explicit PercentileRecorder(int max_threads)
      : hists_(max_threads < 1 ? 1 : max_threads) {}

  support::LatencyHistogram& Claim() {
    return hists_[next_.fetch_add(1, std::memory_order_relaxed) %
                  hists_.size()];
  }

  void Reset() {
    for (auto& h : hists_) {
      h.Reset();
    }
    next_.store(0, std::memory_order_relaxed);
  }

  LatencySummary Summarize() const;

  // Stamps the percentile fields of a JsonRecord (leaves them 0 — i.e.
  // omitted from the JSON — when the pass recorded no samples).
  static void Fill(const LatencySummary& s, JsonRecord* rec);

 private:
  std::vector<support::LatencyHistogram> hists_;
  std::atomic<uint32_t> next_{0};
};

// Runs `one_op` under the claiming thread's pace bound, timing batches of
// `batch` ops and recording the batch mean into `hist`. Returns when the
// pace bound is exhausted. This is the loop bench_overhead's percentile
// pass pioneered, extracted so every bench batches identically.
template <typename OneOp>
void BatchTimedLoop(gopool::PB& pb, support::LatencyHistogram* hist,
                    OneOp&& one_op, int batch = kLatencyBatch) {
  for (;;) {
    const auto t0 = std::chrono::steady_clock::now();
    int done = 0;
    for (; done < batch && pb.Next(); ++done) {
      one_op();
    }
    const auto t1 = std::chrono::steady_clock::now();
    if (done > 0) {
      const uint64_t ns = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
              .count());
      hist->Record(ns / static_cast<uint64_t>(done));
    }
    if (done < batch) {
      return;
    }
  }
}

// --- machine-readable results (BENCH_<name>.json) -------------------------

// One result cell. `counters` carries whatever observability numbers the
// cell wants to persist (abort/commit counts, derived overheads, ...).
struct JsonRecord {
  std::string benchmark;  // e.g. "RWMutexMapGet" or "uncontended/counter"
  std::string mode;       // "lock" | "gocc" | "gocc-np" | "sim-lock" | ...
  std::string section;    // "measured" | "simulated" | "summary"
  int threads = 0;
  double ns_per_op = 0.0;
  double ops_per_sec = 0.0;
  uint64_t total_ops = 0;
  // Latency distribution (support/histogram.h), when the benchmark ran a
  // percentile pass; 0 means "not measured" and the keys are omitted from
  // the JSON so old baselines diff cleanly. p999_ns rides along only when
  // the pass recorded enough samples for the tail to mean anything.
  double p50_ns = 0.0;
  double p99_ns = 0.0;
  double p999_ns = 0.0;
  std::vector<std::pair<std::string, double>> counters;
};

// Declared once in a benchmark's main(); while alive it is the process-wide
// active report and RunMeasured/RunSimulated append their cells to it
// automatically. The destructor writes BENCH_<name>.json into
// $GOCC_BENCH_JSON_DIR if set, else the repo root (GOCC_REPO_ROOT).
class JsonReport {
 public:
  explicit JsonReport(const std::string& bench_name);
  ~JsonReport();
  JsonReport(const JsonReport&) = delete;
  JsonReport& operator=(const JsonReport&) = delete;

  // Top-level key/value config describing the run (backend, knobs, ...).
  void Config(const std::string& key, const std::string& value);
  void Config(const std::string& key, double value);
  void Add(JsonRecord record);

  const std::string& path() const { return path_; }

  // The report currently in scope, or nullptr outside any benchmark main.
  static JsonReport* Active();

 private:
  std::string name_;
  std::string path_;
  std::vector<std::pair<std::string, std::string>> config_;  // pre-rendered
  std::vector<JsonRecord> records_;
};

// Snapshots the global optiLib/TM counters into `out` (used for per-cell
// JSON records; names are stable across PRs so trajectories diff cleanly).
void AppendRuntimeCounters(std::vector<std::pair<std::string, double>>* out);

// Minimal numeric lookup for the JSON files this harness itself writes:
// finds the first `"key": <number>` occurrence. Good enough for regression
// gates against committed baselines; not a general JSON parser.
bool JsonLookupNumber(const std::string& text, const std::string& key,
                      double* out);

// Reads a whole file; returns false (and empty string) when unreadable.
bool ReadFileToString(const std::string& path, std::string* out);

}  // namespace gocc::bench

#endif  // GOCC_BENCH_BENCH_UTIL_H_
