// Overload-resilient sharded cache service: config, outcome accounting, and
// the per-shard health ladder (DESIGN.md §4.14).
//
// This is the tier ROADMAP item 3 asks for: the existing cache workloads
// composed the way production would run them — a front router over N
// elided-lock shards, driven open-loop — wrapped in the robustness layer
// that keeps tail latency bounded when optimism stops paying:
//
//   * deadlines  — every request carries a budget; one that has already
//     blown it is shed *before* the shard lock (shed_deadline), so overload
//     never spends critical-section time on answers nobody is waiting for.
//   * admission  — per-shard queue depth and a windowed p99 estimate gate
//     entry; shed requests get a jittered retry-after hint so a thundering
//     herd decorrelates instead of re-arriving in phase.
//   * hedging    — reads facing a slow shard fire a bounded hedge against
//     the shard's replica-of-last-resort snapshot; first answer wins, the
//     duplicate is suppressed and counted.
//   * health     — each shard walks healthy → degraded → quarantined,
//     escalated by request-level failures. A quarantined shard serves
//     stale reads, rejects writes, and re-admits one probe per cooldown
//     through a rate-limited support::Reprobe gate.
//
// The templated router lives in router.h; this header is the policy-free
// core so tests and the DES mirror can reason about the ladder without
// instantiating a cache.

#ifndef GOCC_SRC_SERVICE_SERVICE_H_
#define GOCC_SRC_SERVICE_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>

#include "src/gosync/runtime.h"
#include "src/support/histogram.h"
#include "src/support/reprobe.h"

namespace gocc::service {

// All knobs read their default from GOCC_SVC_* once per process (see
// DefaultConfig in service.cc); tests and benches override fields directly.
struct ServiceConfig {
  // Shard count the router builds; any count works (ShardFor takes the
  // scrambled key modulo it).
  int shards = 8;

  // Per-request budget; 0 disables deadline shedding.
  uint64_t deadline_us = 2000;

  // Admission: shed when a shard's in-flight count reaches the limit
  // (0 disables; requests are counted only while at least queue_limit
  // request threads are alive, since with fewer no shard can hold that
  // many: see CountsQueueDepth) ...
  uint32_t queue_limit = 64;
  // ... or when its windowed p99 exceeds this (0 disables).
  uint64_t p99_shed_us = 1000;

  // Base retry-after hint attached to shed responses; the actual hint is
  // jittered in [base, 2*base) per request.
  uint64_t retry_after_us = 200;

  // Reads hedge against the stale snapshot when the shard's windowed p99
  // exceeds this (0 disables hedging).
  uint64_t hedge_us = 500;

  // Length of one estimator window tick; the estimator aggregates the last
  // support::WindowedPercentile::kWindows ticks.
  uint64_t window_tick_us = 5000;

  // Health ladder: request failures before healthy shards degrade, further
  // ones before degraded shards quarantine, and the consecutive successes
  // needed to step back down one rung.
  int degrade_trips = 1;
  int quarantine_trips = 3;
  int probe_successes = 3;

  // Quarantine cooldown between re-probes.
  uint64_t quarantine_cooldown_ms = 25;

  // Seed for per-thread retry-after jitter streams.
  uint64_t seed = 0x5345525649434531ULL;
};

// Process defaults with every GOCC_SVC_* override applied (latched once).
const ServiceConfig& DefaultConfig();

// Terminal outcome of one request — every request lands in exactly one.
enum class Outcome : int {
  kOk = 0,                  // served; value present (possibly stale)
  kMiss = 1,                // served; key absent
  kShedDeadline = 2,        // budget blown before the shard lock
  kShedOverload = 3,        // admission control turned it away
  kRejectedQuarantine = 4,  // write at a quarantined shard
  kFailed = 5,              // shard failure (chaos storm) with no hedge net
};
inline constexpr int kNumOutcomes = 6;

const char* OutcomeName(Outcome o);

struct RequestResult {
  Outcome outcome = Outcome::kFailed;
  int64_t value = 0;
  // Nonzero only for kShedOverload: the jittered "come back in" hint.
  uint64_t retry_after_ns = 0;
  // The answer came from the replica-of-last-resort snapshot.
  bool stale = false;
  // A hedge fired for this request (regardless of which answer won).
  bool hedged = false;
};

// Per-request state that every thread writes lives in kStripes stripes, one
// per thread ordinal modulo kStripes, so in the common case (at most
// kStripes request threads) each thread's writes land on lines no other
// thread writes. Past kStripes threads share stripes, which is why stripe
// writes stay atomic RMWs (or take the stripe's spinlock).
inline constexpr int kStripes = 16;

// Bytes of padding that keep two groups of fields off a common cache line
// whatever the alignment of the object holding them. Explicit padding
// rather than alignas(64): an over-aligned type turns every allocation of
// its holder into an aligned operator new (DESIGN.md §4.14).
inline constexpr int kLinePad = 64;

// Process-wide ordinal of the calling thread, handed out on first use in
// call order and never reused. The first call also counts the thread in
// LiveRequestThreads() until it exits.
uint64_t ThreadOrdinal();

namespace internal {
// The live request-thread count on a line of its own: written when a
// request thread starts or exits, read by requests.
struct LiveThreadCount {
  char pad[kLinePad] = {};
  std::atomic<int32_t> n{0};
  char tail_pad[kLinePad] = {};
};
extern LiveThreadCount g_live_request_threads;
}  // namespace internal

// Threads alive now that have made a request: a thread counts from its
// first ThreadStripe() (every request makes one before it reads this count)
// until it exits. Unlike the ordinals, the count shrinks as threads exit.
inline int32_t LiveRequestThreads() {
  return internal::g_live_request_threads.n.load(std::memory_order_relaxed);
}

inline int ThreadStripe() {
  thread_local int stripe = -1;
  if (stripe < 0) [[unlikely]] {
    stripe = static_cast<int>(ThreadOrdinal() % kStripes);
  }
  return stripe;
}

// Whether a request must count itself in its shard's queue depth: only
// once `queue_limit` (nonzero) request threads are alive, the calling one
// included. Below that, no shard can hold queue_limit requests.
inline bool CountsQueueDepth(uint32_t queue_limit) {
  if (queue_limit == 0) {
    return false;
  }
  ThreadStripe();  // counts the caller as live before the count is read
  return static_cast<uint32_t>(LiveRequestThreads()) >= queue_limit;
}

// Service-level counters. Outcome slots form a conservation identity the
// chaos tests assert: sum(outcomes) == requests issued, no matter what the
// injector does. The rest are diagnostic (subsets, not partitions).
//
// Every counter is striped: a bump is a relaxed fetch_add on the calling
// thread's stripe, a read sums the stripes. Sums are exact once writers
// are quiescent; Reset() needs that quiescence too.
struct ServiceStats {
  // A counter's slot in each stripe: the outcomes, then the diagnostics.
  enum Slot : int {
    kStaleReads = kNumOutcomes,
    kHedgesFired,
    kHedgesWon,
    kHedgeDuplicates,
    kDeadlineInShard,
    kDegrades,
    kQuarantines,
    kRecoveries,
    kProbesAdmitted,
    kShardFailures,
    kNumSlots,
  };

  // One striped counter, spelled like the std::atomic<uint64_t> it stands
  // for.
  class Counter {
   public:
    Counter(ServiceStats* owner, int slot) : owner_(owner), slot_(slot) {}
    uint64_t load(std::memory_order = std::memory_order_relaxed) const {
      return owner_->Sum(slot_);
    }
    void fetch_add(uint64_t delta,
                   std::memory_order = std::memory_order_relaxed) {
      owner_->Add(slot_, delta);
    }

   private:
    ServiceStats* owner_;
    int slot_;
  };

  ServiceStats() = default;
  ServiceStats(const ServiceStats&) = delete;
  ServiceStats& operator=(const ServiceStats&) = delete;

  Counter stale_reads{this, kStaleReads};  // subset of kOk
  Counter hedges_fired{this, kHedgesFired};
  Counter hedges_won{this, kHedgesWon};  // hedge answer was returned
  Counter hedge_duplicates{this, kHedgeDuplicates};  // primary won
  Counter deadline_in_shard{this, kDeadlineInShard};  // pre-lock shed
  Counter degrades{this, kDegrades};
  Counter quarantines{this, kQuarantines};
  Counter recoveries{this, kRecoveries};  // quarantined → degraded
  Counter probes_admitted{this, kProbesAdmitted};
  Counter shard_failures{this, kShardFailures};  // injected/storm failures

  void Bump(Outcome o) { Add(static_cast<int>(o), 1); }
  uint64_t Count(Outcome o) const { return Sum(static_cast<int>(o)); }
  uint64_t TotalOutcomes() const;
  // Verifies the conservation identity and the subset inequalities;
  // explains the first violation in *why.
  bool ConservationHolds(uint64_t issued, std::string* why) const;
  void Reset();
  std::string ToString() const;

 private:
  void Add(int slot, uint64_t delta) {
    stripes_[ThreadStripe()].slots[slot].fetch_add(delta,
                                                   std::memory_order_relaxed);
  }
  uint64_t Sum(int slot) const;

  // Each stripe's counters sit between two pads, so no line holds two
  // stripes' counters or a stripe's counters and the handles above.
  struct Stripe {
    char pad[kLinePad];
    std::atomic<uint64_t> slots[kNumSlots] = {};
  };
  Stripe stripes_[kStripes];
  char tail_pad_[kLinePad];
};

enum class ShardState : int {
  kHealthy = 0,
  kDegraded = 1,
  kQuarantined = 2,
};

const char* ShardStateName(ShardState s);

// The per-shard ladder. Escalations come from request-level failures (chaos
// storms, which model the backing store dying). De-escalation is earned:
// consecutive successes step down one rung at a time, and a quarantined
// shard only gets traffic again through rate-limited probes.
//
// Transitions are serialized by a private mutex — they are cold by
// definition (a hot transition path would mean the service is flapping) —
// while State() stays a relaxed atomic load for the per-request fast path.
class ShardHealth {
 public:
  void Configure(const ServiceConfig& cfg, ServiceStats* stats) {
    cfg_ = &cfg;
    stats_ = stats;
    probe_gate_.Reinit(cfg.quarantine_cooldown_ms);
  }

  ShardState State() const {
    return static_cast<ShardState>(state_.load(std::memory_order_relaxed));
  }

  // Request against this shard failed outright (storm injection).
  void OnFailure();
  // Request served successfully (fresh path).
  void OnSuccess();

  // Quarantined only: claims the per-cooldown probe slot. The winning
  // request is routed through the fresh path; its outcome feeds
  // OnSuccess/OnFailure like any other.
  bool TryClaimProbe() {
    if (State() != ShardState::kQuarantined) {
      return false;
    }
    return probe_gate_.Due();
  }

  // Test hook: make the next probe immediately available.
  void ForceProbe() { probe_gate_.ForceNext(); }

  void Reset();

 private:
  const ServiceConfig* cfg_ = nullptr;
  ServiceStats* stats_ = nullptr;
  std::atomic<int> state_{static_cast<int>(ShardState::kHealthy)};
  std::mutex mu_;
  int trips_ = 0;      // escalation pressure at the current rung
  int successes_ = 0;  // consecutive successes toward de-escalation
  support::Reprobe probe_gate_{1};
};

// A shard's windowed-p99 estimator: the signal admission and hedging read
// on every request.
//
// Record() appends the sample's 1-byte LatencyHistogram bucket id to the
// calling thread's stripe batch, under that batch's spinlock, so the
// per-request write lands on the thread's own lines. A full batch, or the
// one request whose CAS moves the tick forward, drains every batch into
// the shard's single WindowedPercentile under window_lock_ and refreshes
// the cached p99. The cached value therefore lags the samples by at most
// kBatch records on the recording thread, or until the next tick,
// whichever comes first.
class LatencyWindow {
 public:
  static constexpr int kBatch = 128;

  // The estimate admission reads: the p99 as of the last drain.
  uint64_t P99() const { return cached_p99_.load(std::memory_order_relaxed); }

  // Moves the estimator to `tick` (a monotone clock reading). Ticks at or
  // before the current one are no-ops; of the requests that see a new
  // tick, the one whose CAS wins drains the batches into the outgoing
  // window, then rotates it.
  void Advance(uint64_t tick) {
    uint64_t seen = tick_.load(std::memory_order_relaxed);
    while (tick > seen) {
      if (tick_.compare_exchange_weak(seen, tick,
                                      std::memory_order_relaxed)) {
        Drain(tick);
        return;
      }
    }
  }

  void Record(uint64_t ns) {
    const auto id =
        static_cast<uint8_t>(support::LatencyHistogram::BucketFor(ns));
    Batch& b = batches_[ThreadStripe()];
    for (;;) {
      Lock(b.lock);
      const int n = b.count;
      if (n < kBatch) {
        b.ids[n] = id;
        b.count = static_cast<uint8_t>(n + 1);
        Unlock(b.lock);
        if (n + 1 == kBatch) {
          Drain(0);
        }
        return;
      }
      // Another thread on this stripe filled the batch and has not drained
      // it yet.
      Unlock(b.lock);
      Drain(0);
    }
  }

  // Test hook: `count` samples of `ns` straight into the current window,
  // then a refresh, as if a drain had just delivered them.
  void Prime(uint64_t ns, int count);

 private:
  static_assert(support::LatencyHistogram::kNumBuckets <= 256,
                "bucket ids must fit the batches' bytes");

  static void Lock(std::atomic_flag& f) {
    while (f.test_and_set(std::memory_order_acquire)) {
      gosync::CpuPause();
    }
  }
  static void Unlock(std::atomic_flag& f) {
    f.clear(std::memory_order_release);
  }

  // Empties every batch into window_, advances it to `tick` (0 leaves it
  // where it is) and refreshes cached_p99_.
  void Drain(uint64_t tick);

  // Read by every request; written once per tick, and by a drain only
  // when the p99 moved.
  std::atomic<uint64_t> tick_{0};
  std::atomic<uint64_t> cached_p99_{0};
  char drain_pad_[kLinePad];
  // Written by drains only. Lock order: window_lock_, then a batch's lock.
  std::atomic_flag window_lock_ = ATOMIC_FLAG_INIT;
  support::WindowedPercentile window_;

  // Each batch's fields sit between two pads (see kLinePad).
  struct Batch {
    char pad[kLinePad];
    std::atomic_flag lock = ATOMIC_FLAG_INIT;
    uint8_t count = 0;  // guarded by lock
    uint8_t ids[kBatch];
  };
  Batch batches_[kStripes];
  char tail_pad_[kLinePad];
};

// Jittered retry-after hint in [base, 2*base) ns, base from
// cfg.retry_after_us; deterministic per-thread streams seeded from
// cfg.seed, re-seeded when a thread's cfg.seed changes. The jitter is the
// thundering-herd defence: shed clients that all retry exactly retry_after
// later just re-create the spike they were shed to dissolve.
uint64_t RetryAfterJitterNs(const ServiceConfig& cfg);

}  // namespace gocc::service

#endif  // GOCC_SRC_SERVICE_SERVICE_H_
