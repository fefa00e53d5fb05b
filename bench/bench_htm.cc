// A2 ablation + microbenchmarks (google-benchmark): raw costs of the TM
// substrate and the lock-vs-HTM crossover as critical-section size grows
// (§2, challenge 3: "HTM has startup and commit overheads ... locks may
// outperform HTM, particularly on tiny critical sections"), and the SimTM
// read-set sweep that prices incremental read validation (DESIGN.md §4.2).
//
// Besides the console table, every run lands in BENCH_htm.json (see
// bench_util.h) as one record: benchmark name, ns per iteration (per
// transaction for the Tx* cells), iteration count.

#include <benchmark/benchmark.h>

#include <csetjmp>
#include <memory>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/gosync/mutex.h"
#include "src/gosync/runtime.h"
#include "src/htm/config.h"
#include "src/htm/shared.h"
#include "src/htm/tx.h"
#include "src/optilib/optilock.h"

namespace {

void BM_SharedLoadOutsideTx(benchmark::State& state) {
  gocc::htm::ForceSimBackend();
  gocc::htm::Shared<int64_t> cell(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cell.Load());
  }
}
BENCHMARK(BM_SharedLoadOutsideTx);

void BM_SharedStoreOutsideTx(benchmark::State& state) {
  gocc::htm::ForceSimBackend();
  gocc::htm::Shared<int64_t> cell(1);
  int64_t v = 0;
  for (auto _ : state) {
    cell.Store(++v);
  }
}
BENCHMARK(BM_SharedStoreOutsideTx);

void BM_TxBeginCommitEmpty(benchmark::State& state) {
  gocc::htm::ForceSimBackend();
  std::jmp_buf env;
  for (auto _ : state) {
    gocc::htm::BeginStatus status = GOCC_TX_BEGIN(env);
    if (status.started) {
      gocc::htm::TxCommit();
    }
  }
}
BENCHMARK(BM_TxBeginCommitEmpty);

// Transactional read/write cost per access, by CS size.
void BM_TxReadWritePerAccess(benchmark::State& state) {
  gocc::htm::ForceSimBackend();
  const int accesses = static_cast<int>(state.range(0));
  std::vector<std::unique_ptr<gocc::htm::Shared<int64_t>>> cells;
  for (int i = 0; i < accesses; ++i) {
    cells.push_back(std::make_unique<gocc::htm::Shared<int64_t>>(0));
  }
  std::jmp_buf env;
  for (auto _ : state) {
    gocc::htm::BeginStatus status = GOCC_TX_BEGIN(env);
    if (status.started) {
      for (auto& cell : cells) {
        cell->Add(1);
      }
      gocc::htm::TxCommit();
    }
  }
  state.SetItemsProcessed(state.iterations() * accesses);
}
BENCHMARK(BM_TxReadWritePerAccess)->Arg(1)->Arg(8)->Arg(64)->Arg(256);

// Read-set sweep: one thread, one writing transaction that reads n distinct
// cells and stores their sum into the first. Each cell has its own cache
// line and hashes to its own stripe (bar rare collisions), so the read set
// holds ~n stripes. Each read re-checks every stripe read before it, so the
// per-transaction cost grows as n^2 once that scan outweighs the fixed
// per-access work; the commit validates the n stripes once more.
void BM_TxReadSetSweep(benchmark::State& state) {
  gocc::htm::ForceSimBackend();
  struct alignas(64) Line {
    gocc::htm::Shared<int64_t> cell;
  };
  std::vector<Line> lines(static_cast<size_t>(state.range(0)));
  std::jmp_buf env;
  for (auto _ : state) {
    gocc::htm::BeginStatus status = GOCC_TX_BEGIN(env);
    if (status.started) {
      int64_t sum = 0;
      for (Line& line : lines) {
        sum += line.cell.Load();
      }
      lines[0].cell.Store(sum);
      gocc::htm::TxCommit();
    }
  }
}
BENCHMARK(BM_TxReadSetSweep)->RangeMultiplier(2)->Range(2, 1024);

void BM_MutexLockUnlock_Untracked(benchmark::State& state) {
  gocc::gosync::Mutex mu(gocc::gosync::ElisionTracking::kDisabled);
  for (auto _ : state) {
    mu.Lock();
    benchmark::ClobberMemory();
    mu.Unlock();
  }
}
BENCHMARK(BM_MutexLockUnlock_Untracked);

void BM_MutexLockUnlock_Tracked(benchmark::State& state) {
  // The tracking tax a mutex pays when it participates in elision: the
  // acquire adds one CAS on the versioned lock word the software backends
  // subscribe, the release one more RMW on it (DESIGN.md §4.2). Real RTM
  // reads the Go lock word and would not need either.
  gocc::gosync::Mutex mu(gocc::gosync::ElisionTracking::kEnabled);
  for (auto _ : state) {
    mu.Lock();
    benchmark::ClobberMemory();
    mu.Unlock();
  }
}
BENCHMARK(BM_MutexLockUnlock_Tracked);

// Lock-vs-elision crossover by critical-section size, single-threaded.
void BM_CrossoverLock(benchmark::State& state) {
  gocc::htm::ForceSimBackend();
  const int size = static_cast<int>(state.range(0));
  gocc::gosync::Mutex mu(gocc::gosync::ElisionTracking::kDisabled);
  std::vector<std::unique_ptr<gocc::htm::Shared<int64_t>>> cells;
  for (int i = 0; i < size; ++i) {
    cells.push_back(std::make_unique<gocc::htm::Shared<int64_t>>(0));
  }
  for (auto _ : state) {
    mu.Lock();
    for (auto& cell : cells) {
      cell->Add(1);
    }
    mu.Unlock();
  }
}
BENCHMARK(BM_CrossoverLock)->Arg(1)->Arg(16)->Arg(128);

void BM_CrossoverElided(benchmark::State& state) {
  gocc::htm::ForceSimBackend();
  gocc::optilib::PublishOptiConfig(gocc::optilib::OptiConfig{});
  gocc::optilib::GlobalPerceptron().Reset();
  int prev = gocc::gosync::SetMaxProcs(4);  // enable HTM attempts
  const int size = static_cast<int>(state.range(0));
  gocc::gosync::Mutex mu;
  std::vector<std::unique_ptr<gocc::htm::Shared<int64_t>>> cells;
  for (int i = 0; i < size; ++i) {
    cells.push_back(std::make_unique<gocc::htm::Shared<int64_t>>(0));
  }
  gocc::optilib::OptiLock opti_lock;
  for (auto _ : state) {
    opti_lock.WithLock(&mu, [&] {
      for (auto& cell : cells) {
        cell->Add(1);
      }
    });
  }
  gocc::gosync::SetMaxProcs(prev);
}
BENCHMARK(BM_CrossoverElided)->Arg(1)->Arg(16)->Arg(128);

void BM_OptiLockFastPathRoundTrip(benchmark::State& state) {
  gocc::htm::ForceSimBackend();
  gocc::optilib::PublishOptiConfig(gocc::optilib::OptiConfig{});
  gocc::optilib::GlobalPerceptron().Reset();
  int prev = gocc::gosync::SetMaxProcs(4);
  gocc::gosync::Mutex mu;
  gocc::htm::Shared<int64_t> cell(0);
  gocc::optilib::OptiLock opti_lock;
  for (auto _ : state) {
    opti_lock.WithLock(&mu, [&] { cell.Add(1); });
  }
  gocc::gosync::SetMaxProcs(prev);
}
BENCHMARK(BM_OptiLockFastPathRoundTrip);

// Console table as usual, plus one BENCH_htm.json record per run.
class JsonTeeReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonTeeReporter(gocc::bench::JsonReport* report)
      : ConsoleReporter(OO_Tabular), report_(report) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.error_occurred || run.run_type != Run::RT_Iteration) {
        continue;
      }
      gocc::bench::JsonRecord rec;
      rec.benchmark = run.benchmark_name();
      rec.mode = gocc::htm::BackendName(gocc::htm::ActiveBackend());
      rec.section = "measured";
      rec.threads = static_cast<int>(run.threads);
      rec.ns_per_op = run.GetAdjustedRealTime();
      rec.ops_per_sec = rec.ns_per_op > 0 ? 1e9 / rec.ns_per_op : 0.0;
      rec.total_ops = static_cast<uint64_t>(run.iterations);
      report_->Add(std::move(rec));
    }
  }

 private:
  gocc::bench::JsonReport* report_;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  gocc::bench::JsonReport report("htm");
  JsonTeeReporter reporter(&report);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return 0;
}
