// Deterministic fault injection for the transaction substrate.
//
// Best-effort HTM aborts for reasons the program cannot control (conflicts,
// capacity, interrupts, microcode updates that disable TSX entirely), and
// optiLib's correctness claim is precisely that *any* abort pattern safely
// re-routes a critical section to the original lock. Organic aborts exercise
// those paths rarely and unreproducibly; this injector makes abort schedules
// adversarial, scriptable, and replayable from a logged seed.
//
// Injection points (Site):
//   * kBegin  — the begin/pre-RTM decision path: the injected code is
//     reported exactly like a hardware xbegin that aborted immediately
//     (BeginStatus{false, code}). A 100% kBegin schedule models RTM dying
//     mid-run (e.g. the MDS/TAA microcode path that turns every xbegin into
//     an abort).
//   * kLoad / kStore — software-TM transactional accesses (kLoad: every
//     TxLoad, TxSubscribe and TxFetchAdd; kStore: every TxStore and
//     TxFetchAdd); the injected code aborts the in-flight transaction
//     through the normal rollback path. A kSpurious rule here is how a
//     best-effort spurious abort (an interrupt, say) is modelled.
//   * kCommit — commit-time abort at the outermost commit, as if read-set
//     validation failed. On sw-OCC a kOccValidateFail rule is a forced
//     validation failure; at 100 % it models a validation-failure storm (the
//     sw-OCC analogue of an HTM abort storm): it must train the perceptron
//     to send the site to the lock, and the site must elide again after the
//     storm.
//   * kLockTransition — not an abort: an injected bounded stall at the
//     tracked slow-path lock transitions (gosync), widening the race
//     window between a transaction's lock-word subscription and a slow-path
//     acquisition.
//   * kOccPublish — sw-OCC commit publication: a stall rule holds the locked
//     occ words exclusive mid-commit (delayed-unlock fault, starving
//     concurrent subscribers); an abort-code rule injects version skew (an
//     extra version bump on release, exercising wraparound/ABA handling).
//   * kMultiLockSubscribe — multi-lock episodes: checked once per *member*
//     as the episode subscribes its lock set, so a fixed schedule with
//     skip=k-1 forces a conflict on exactly the k-th lock of a set. The
//     injected code aborts the transaction with the blamed member recorded,
//     exercising the abort-attribution path.
//   * kMultiLockCommit — multi-lock commit: the injected code aborts just
//     before TxCommit would have validated, modelling a conflict that lands
//     after every subscription succeeded (blame is then inferred, not
//     recorded).
//   * kShardStall — service-tier chaos: a bounded stall inside a cache
//     shard's critical section. A high-pause kShardStall rule on one shard
//     models a stalled/hung shard (GC pause, page fault storm) and drives
//     the router's windowed-p99 shedding and health escalation.
//   * kShardStorm — service-tier chaos: the request against the shard fails
//     outright, as if the shard's backing store went away mid-run. A 100%
//     kShardStorm plan scoped to one shard (only_shard) is the "kill shard
//     k" scenario: the router must quarantine that shard and keep its SLO
//     on the survivors.
//
// Shard scoping: the service tier publishes the shard a request is touching
// via SetShardContext() before it enters shard code; a plan with
// only_shard >= 0 injects at the two kShard* sites only when the context
// matches, leaving every other site's semantics untouched.
//
// The injector supports per-site Bernoulli probabilities (deterministic
// per-thread SplitMix64 streams derived from the armed seed), per-thread
// filtering/scaling, and fixed schedules ("after skipping the first M
// operations at this site, abort the next N with code C"). Scenario scripts
// are ordered lists of such steps.
//
// Fast-path cost when disarmed: one relaxed atomic load (the `MaybeInject`
// and `MaybeStallAt` wrappers are inline and branch out immediately), so the
// injector can stay compiled into production builds.
//
// Thread-safety: Arm/Disarm must not race with in-flight transactions (the
// same discipline as the backend switches in config.h). Probability draws
// are per-thread deterministic; schedule counters are shared atomics, so
// cross-thread interleaving of a schedule is scheduler-dependent while each
// thread's Bernoulli stream is exactly reproducible from (seed, thread
// ordinal).

#ifndef GOCC_SRC_HTM_FAULT_H_
#define GOCC_SRC_HTM_FAULT_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "src/htm/abort.h"

namespace gocc::htm::fault {

enum class Site : int {
  kBegin = 0,
  kLoad = 1,
  kStore = 2,
  kCommit = 3,
  kLockTransition = 4,
  kOccPublish = 5,
  kMultiLockSubscribe = 6,
  kMultiLockCommit = 7,
  kShardStall = 8,
  kShardStorm = 9,
};
inline constexpr int kNumSites = 10;

// Human-readable site name.
const char* SiteName(Site site);

// Bernoulli rule for one injection site.
struct SiteRule {
  double probability = 0.0;
  AbortCode code = AbortCode::kConflict;
  // Stall sites (kLockTransition, kOccPublish) only: pause-spin count per
  // injected stall.
  int stall_pauses = 0;
};

// One step of a fixed schedule: at `site`, let `skip` matching operations
// pass, then abort the next `count` with `code`. Steps are consumed in
// order; a step is active while any earlier step for the same site is
// exhausted.
struct ScheduleStep {
  Site site = Site::kCommit;
  AbortCode code = AbortCode::kConflict;
  uint64_t count = 0;
  uint64_t skip = 0;
};

// A full injection scenario. Build one, then Arm() it.
struct FaultPlan {
  // Seed for the deterministic per-thread probability streams. Logged by
  // Arm(); replaying with the same seed and thread bindings reproduces every
  // Bernoulli draw.
  uint64_t seed = 0x474f4343'0badf00dULL;
  SiteRule site_rules[kNumSites];
  std::vector<ScheduleStep> schedule;
  // If >= 0, only threads bound to this ordinal receive injections.
  int only_thread = -1;
  // If >= 0, the kShardStall/kShardStorm sites fire only when the calling
  // thread's shard context (SetShardContext) matches. Non-shard sites are
  // unaffected, so a plan can storm shard k while still injecting global
  // begin/commit noise.
  int only_shard = -1;
  // Optional per-thread probability scale, indexed by ordinal % size().
  // Empty = 1.0 for every thread.
  std::vector<double> per_thread_scale;

  FaultPlan& WithRule(Site site, double probability,
                      AbortCode code = AbortCode::kConflict) {
    site_rules[static_cast<int>(site)] = SiteRule{probability, code, 0};
    return *this;
  }
  FaultPlan& WithStallAt(Site site, double probability, int pauses) {
    site_rules[static_cast<int>(site)] =
        SiteRule{probability, AbortCode::kNone, pauses};
    return *this;
  }
  FaultPlan& AbortNext(Site site, uint64_t count,
                       AbortCode code = AbortCode::kConflict,
                       uint64_t skip = 0) {
    schedule.push_back(ScheduleStep{site, code, count, skip});
    return *this;
  }
};

// Injection observability (what actually fired), for assertions and for
// correlating chaos-run failures with their schedules.
struct FaultStats {
  std::atomic<uint64_t> checked{0};
  std::atomic<uint64_t> injected_by_site[kNumSites] = {};
  std::atomic<uint64_t> injected_by_code[kNumAbortCodes] = {};
  std::atomic<uint64_t> stalls{0};
  std::atomic<uint64_t> stall_pauses{0};

  uint64_t TotalInjected() const {
    uint64_t total = 0;
    for (int i = 0; i < kNumSites; ++i) {
      total += injected_by_site[i].load(std::memory_order_relaxed);
    }
    return total;
  }
  void Reset();
  std::string ToString() const;
};

FaultStats& GlobalFaultStats();

// Arms the injector with `plan` (replacing any previous plan), resets
// FaultStats, and bumps the arm epoch so per-thread RNG streams reseed.
// Returns the armed seed (also retrievable via ArmedSeed) so harnesses can
// log it next to any failure.
uint64_t Arm(const FaultPlan& plan);

// Disarms the injector; every hook returns to its single-load fast path.
void Disarm();

bool Armed();
uint64_t ArmedSeed();

// Binds the calling thread to a deterministic ordinal for per-thread rules.
// Threads that never call this are auto-assigned ordinals in first-touch
// order (racy across threads, deterministic within one).
void BindThisThread(int ordinal);

// Publishes the shard the calling thread is currently operating on (-1 =
// none) so only_shard plans can target the kShard* sites. Set by the
// service router around shard entry; cheap enough to leave in production
// builds (one thread-local store).
void SetShardContext(int shard);
int ShardContext();

namespace internal {
extern std::atomic<bool> g_armed;
AbortCode CheckSlow(Site site);
void StallSlow(Site site);
}  // namespace internal

// Returns the abort code to inject at `site`, or kNone. Single relaxed load
// when disarmed.
inline AbortCode MaybeInject(Site site) {
  if (!internal::g_armed.load(std::memory_order_relaxed)) {
    return AbortCode::kNone;
  }
  return internal::CheckSlow(site);
}

// Possibly pause-spins at a stall site (kLockTransition lock transitions,
// kOccPublish mid-commit occ-word publication). Single relaxed load when
// disarmed.
inline void MaybeStallAt(Site site) {
  if (!internal::g_armed.load(std::memory_order_relaxed)) {
    return;
  }
  internal::StallSlow(site);
}

}  // namespace gocc::htm::fault

#endif  // GOCC_SRC_HTM_FAULT_H_
