#include "perfbench/cells.h"

#include <atomic>
#include <chrono>
#include <csetjmp>
#include <cstdint>
#include <thread>

#include "perfbench/host.h"
#include "src/gosync/mutex.h"
#include "src/gosync/runtime.h"
#include "src/gosync/rwmutex.h"
#include "src/htm/config.h"
#include "src/htm/shared.h"
#include "src/htm/tx.h"
#include "src/optilib/optilock.h"

namespace gocc::perfbench {
namespace {

using gosync::ElisionTracking;

constexpr int kReps = 5;
constexpr int kChunk = 256;  // ops between clock reads

// Median over kReps timings of ns per call of `op`, each timing running
// for about rep_ns.
template <typename Op>
double NsPerOp(uint64_t rep_ns, Op&& op) {
  std::vector<double> reps;
  for (int r = 0; r < kReps; ++r) {
    uint64_t iters = 0;
    const uint64_t t0 = SteadyNs();
    uint64_t now = t0;
    do {
      for (int k = 0; k < kChunk; ++k) {
        op();
      }
      iters += kChunk;
      now = SteadyNs();
    } while (now - t0 < rep_ns);
    reps.push_back(static_cast<double>(now - t0) /
                   static_cast<double>(iters));
  }
  return Median(reps);
}

// 3 threads, each locking and unlocking its own tracked mutex: nothing is
// shared but the runtime's own global state (the clock every tracked
// acquire bumps), so any cost above the 1-thread cell is that line moving.
double DisjointTrackedNs(uint64_t rep_ns) {
  constexpr int kThreads = 3;
  struct alignas(64) Slot {
    gosync::Mutex mu{ElisionTracking::kEnabled};
    uint64_t ops = 0;
  };
  std::vector<double> reps;
  for (int r = 0; r < kReps; ++r) {
    Slot slots[kThreads];
    std::atomic<int> ready{0};
    std::atomic<bool> go{false};
    std::atomic<bool> stop{false};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        Slot& s = slots[t];
        ready.fetch_add(1);
        while (!go.load(std::memory_order_acquire)) {
          gosync::CpuPause();
        }
        uint64_t n = 0;
        while (!stop.load(std::memory_order_relaxed)) {
          for (int k = 0; k < kChunk; ++k) {
            s.mu.Lock();
            s.mu.Unlock();
          }
          n += kChunk;
        }
        s.ops = n;
      });
    }
    while (ready.load() < kThreads) {
      std::this_thread::yield();
    }
    const uint64_t t0 = SteadyNs();
    go.store(true, std::memory_order_release);
    std::this_thread::sleep_for(std::chrono::nanoseconds(rep_ns));
    stop.store(true);
    for (auto& th : threads) {
      th.join();
    }
    const uint64_t elapsed = SteadyNs() - t0;
    uint64_t total = 0;
    for (const Slot& s : slots) {
      total += s.ops;
    }
    // Per-thread ns per lock/unlock pair.
    reps.push_back(static_cast<double>(elapsed) * kThreads /
                   static_cast<double>(total == 0 ? 1 : total));
  }
  return Median(reps);
}

struct alignas(64) PaddedCell {
  htm::Shared<int64_t> v;
};

}  // namespace

void RunMicrocells(double budget_s, MetricList* out) {
  constexpr int kCellsPerBackend = 9;  // timed loops below, per backend
  constexpr int kCells = 2 * kCellsPerBackend + 1;
  const uint64_t rep_ns =
      static_cast<uint64_t>(budget_s * 1e9 / (kCells * kReps));

  const struct {
    const char* suffix;
    void (*force)();
  } backends[] = {{"sim", &htm::ForceSimBackend},
                  {"swocc", &htm::ForceSwOccBackend}};

  for (const auto& b : backends) {
    b.force();
    optilib::GlobalPerceptron().Reset();
    optilib::ResetHardeningState();
    auto add = [&](const char* name, double v) {
      out->emplace_back(std::string(name) + "." + b.suffix, v);
    };

    {
      gosync::Mutex mu(ElisionTracking::kDisabled);
      add("gosync.mutex_untracked_ns", NsPerOp(rep_ns, [&] {
            mu.Lock();
            mu.Unlock();
          }));
    }
    {
      gosync::Mutex mu(ElisionTracking::kEnabled);
      add("gosync.mutex_tracked_ns", NsPerOp(rep_ns, [&] {
            mu.Lock();
            mu.Unlock();
          }));
    }
    {
      gosync::RWMutex rw(ElisionTracking::kDisabled);
      add("gosync.rwmutex_rlock_untracked_ns", NsPerOp(rep_ns, [&] {
            rw.RLock();
            rw.RUnlock();
          }));
    }
    {
      gosync::RWMutex rw(ElisionTracking::kEnabled);
      add("gosync.rwmutex_rlock_tracked_ns", NsPerOp(rep_ns, [&] {
            rw.RLock();
            rw.RUnlock();
          }));
    }
    {
      std::jmp_buf env;
      const double empty = NsPerOp(rep_ns, [&] {
        if (GOCC_TX_BEGIN(env).started) {
          htm::TxCommit();
        }
      });
      PaddedCell cells[4];
      const double four = NsPerOp(rep_ns, [&] {
        if (GOCC_TX_BEGIN(env).started) {
          for (PaddedCell& c : cells) {
            c.v.Add(1);
          }
          htm::TxCommit();
        }
      });
      add("htm.tx_empty_ns", empty);
      add("htm.tx_access_ns", (four - empty) / 4.0);
    }
    {
      gosync::Mutex mu;
      optilib::OptiLock ol;
      add("optilib.withlock_empty_ns",
          NsPerOp(rep_ns, [&] { ol.WithLock(&mu, [] {}); }));
    }
    {
      gosync::RWMutex rw;
      optilib::OptiLock ol;
      add("optilib.withrlock_empty_ns",
          NsPerOp(rep_ns, [&] { ol.WithRLock(&rw, [] {}); }));
    }
    {
      gosync::Mutex a;
      gosync::Mutex c;
      gosync::Mutex* set[2] = {&a, &c};
      optilib::OptiLock ol;
      add("optilib.withlocks2_empty_ns",
          NsPerOp(rep_ns, [&] { ol.WithLocks(set, 2, [] {}); }));
    }
  }

  htm::ForceSimBackend();
  out->emplace_back("gosync.mutex_tracked_disjoint3_ns",
                    DisjointTrackedNs(rep_ns));
}

}  // namespace gocc::perfbench
