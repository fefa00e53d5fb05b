// Discrete-event concurrency-cost simulator.
//
// The paper's scaling figures (6-9) sweep 1-8 physical cores; this host has
// one. The DES models the mechanisms those figures measure, from first
// principles rather than curve fitting:
//
//  * a contended cache line (a mutex word, an RWMutex reader count) is a
//    serial resource whose per-access service time grows with the number of
//    sharers (coherence transfer + queuing): lock-based read paths pay two
//    such accesses per op, which is the RWMutex scalability collapse;
//  * an elided transaction pays a fixed begin/commit overhead, runs its
//    critical section fully in parallel, and aborts when it overlaps in
//    (simulated) time with another transaction writing intersecting shared
//    lines — conflicts therefore rise with core count, reproducing the
//    Flatten/CacheGet fade-outs;
//  * capacity aborts fire when the write footprint exceeds the modelled
//    cache; aborted operations retry per the optiLib policy and fall back
//    to the lock, and a modelled perceptron learns per-site whether HTM is
//    worth attempting (with the 1000-decision weight decay).
//
// The simulated clock is virtual; results are deterministic given a seed.

#ifndef GOCC_SRC_SIM_DESIM_H_
#define GOCC_SRC_SIM_DESIM_H_

#include <cstdint>
#include <string>

#include "src/htm/config.h"
#include "src/support/rng.h"

namespace gocc::sim {

// Calibration constants (rough Coffee-Lake-era magnitudes; EXPERIMENTS.md
// records the fit against the paper's reported numbers).
struct MachineParams {
  // Uncontended atomic RMW on a shared line (ns).
  double line_base_ns = 7.0;
  // Extra per-access cost for each additional core sharing the line.
  double line_hop_ns = 3.3;
  // xbegin+xend pair (ns).
  double htm_begin_commit_ns = 18.0;
  // Wasted work + rollback on an abort (ns).
  double htm_abort_penalty_ns = 40.0;
  // Coherence pollution an abort inflicts on the eventual lock holder:
  // speculative lines bounce through the directory and the winner re-fetches
  // them (ns added to the serialized lock path per abort).
  double abort_interference_ns = 12.0;
  // Modelled write-set capacity (64-byte lines, L1D-bound): SimTM's own
  // figure, so the model and the substrate it models cannot drift apart.
  int write_capacity_lines = static_cast<int>(htm::kWriteCapacityLines);
  // optiLib policy knobs (ablation sweeps).
  int lock_held_retries = 3;     // Listing 19's MAX_ATTEMPTS
  int perceptron_decay = 1000;   // weight-decay threshold (§5.4.1)

  // Software-OCC backend (GOCC_BACKEND=swocc) cost profile. The begin/
  // commit figure is software bookkeeping plus commit-time read-set
  // validation, calibrated against the real backend's measured 1-thread
  // overhead on the go-cache Get cells (~35 ns over the bare lock path,
  // BENCH_gocache.json); it is higher than xbegin/xend but buys a read
  // path with zero shared-line RMWs.
  double swocc_begin_commit_ns = 35.0;
  // Jittered backoff + re-subscribe after a validation failure. The wasted
  // critical section itself is charged separately (the failed attempt runs
  // to commit before validation catches it).
  double swocc_abort_penalty_ns = 25.0;
  // Bounded validation retries before the episode falls back to the real
  // lock (optilib::OptiLock::kOccMaxRetries).
  int occ_max_retries = 4;

  // Per-additional-member cost of a multi-lock episode's subscription (one
  // extra tracked word load + bookkeeping per member beyond the first).
  double multilock_subscribe_ns = 4.0;
};

enum class LockKind { kMutex, kRWRead, kRWWrite };

// One benchmark's per-operation behaviour.
struct Scenario {
  std::string name;
  LockKind kind = LockKind::kRWRead;
  // Critical-section service time (ns) excluding lock/TM overheads.
  double cs_ns = 5.0;
  // Distinct shared lines the CS writes when it writes (conflict surface).
  int shared_write_lines = 0;
  // Fraction of operations that perform those writes.
  double write_prob = 0.0;
  // Total distinct lines written per writing op (capacity pressure).
  int write_footprint_lines = 0;
  // Per-op work outside the critical section (ns).
  double outside_ns = 3.0;
  // Lock acquire/release round trips per operation (ScopeReporting takes
  // three independent RWMutexes per op). cs_ns is per round trip.
  int lock_round_trips = 1;
  // Whether GOCC transformed this site at all. Untransformed sites (e.g.
  // fastcache Set with its panic path, zap's IO write path) run the
  // original lock in every build.
  bool transformed = true;

  // --- multi-lock OLTP extension (key_space == 0 preserves the legacy
  // single-global-lock model above EXACTLY; keyed scenarios model a table
  // of per-record locks instead) ----------------------------------------
  //
  // With key_space > 0 every operation draws `lock_set_size` distinct
  // Zipfian keys and must hold all of their record locks at once: the lock
  // baseline acquires them in ascending key order (sorted 2PL), the elided
  // modes subscribe all members in one transaction, and two operations
  // interact only when their key sets intersect. Contention is therefore a
  // function of skew (zipf_theta) and set size, not of a single global
  // line — the regime the OLTP benchmarks measure.
  int lock_set_size = 1;    // record locks per operation (<= 8)
  int key_space = 0;        // distinct lockable records; 0 = legacy model
  double zipf_theta = 0.0;  // YCSB skew; 0 = uniform keys
};

// kSwOcc models the software-OCC elision tier instead of HTM: episodes pay
// the software begin/commit overhead, invisible reads keep the read path
// free of shared-line RMWs, writers serialize one occ-word CAS at commit,
// validation failures retry (bounded) before falling back, and fallbacks
// leave no speculative coherence pollution behind (writes were buffered
// thread-locally). Capacity aborts do not exist: the write buffer is
// ordinary memory.
enum class RunMode { kLockBaseline, kElided, kElidedNoPerceptron, kSwOcc };

struct SimResult {
  double ns_per_op = 0.0;  // virtual wall time / total ops, all cores
  uint64_t total_ops = 0;
  uint64_t htm_commits = 0;
  uint64_t htm_aborts = 0;
  uint64_t fallbacks = 0;           // ops that ended on the lock after aborts
  uint64_t perceptron_slow = 0;     // ops sent straight to the lock
};

// Simulates `cores` cores running `scenario` for `window_us` of virtual
// time. Deterministic for a given seed.
SimResult Simulate(const Scenario& scenario, int cores, RunMode mode,
                   const MachineParams& params = MachineParams{},
                   double window_us = 200.0, uint64_t seed = 42);

// Convenience: percentage speedup of elided over the lock baseline at a
// given core count (positive = GOCC wins), matching the figures' y-axes.
double SpeedupVsLock(const Scenario& scenario, int cores,
                     const MachineParams& params = MachineParams{},
                     bool perceptron = true);

// Mirror of one src/service router cell: a request stream over `shards`
// cache shards, each shard one RWMutex-guarded record, keys drawn Zipfian
// with skew `zipf_theta` (hot-key storms concentrate on few shards exactly
// as the router's ShardFor hashing concentrates hot keys), `write_frac` of
// requests taking the write lock. Built on the keyed model: key_space =
// shards, one lock per op — two requests interact iff they hit the same
// shard, which is the service's actual contention structure. Cost constants
// approximate the measured router (probe + expiry check inside the CS,
// routing/admission arithmetic outside); bench_service sweeps the result
// at 8–64 simulated cores so service scaling claims don't depend on host
// core count.
Scenario ServiceScenario(const std::string& name, int shards,
                         double zipf_theta, double write_frac);

}  // namespace gocc::sim

#endif  // GOCC_SRC_SIM_DESIM_H_
