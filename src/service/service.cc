#include "src/service/service.h"

#include "src/support/env.h"
#include "src/support/rng.h"
#include "src/support/strings.h"

namespace gocc::service {

namespace internal {
// constinit: a thread may register from another file's static initializer.
constinit LiveThreadCount g_live_request_threads;
}  // namespace internal

namespace {

constinit std::atomic<uint64_t> next_ordinal{0};

// A thread's ordinal and its place in the live count, from its first
// ThreadOrdinal() call until the thread exits.
struct RequestThread {
  RequestThread()
      : ordinal(next_ordinal.fetch_add(1, std::memory_order_relaxed)) {
    internal::g_live_request_threads.n.fetch_add(1,
                                                 std::memory_order_relaxed);
  }
  ~RequestThread() {
    internal::g_live_request_threads.n.fetch_sub(1,
                                                 std::memory_order_relaxed);
  }
  const uint64_t ordinal;
};

}  // namespace

uint64_t ThreadOrdinal() {
  thread_local const RequestThread self;
  return self.ordinal;
}

// Deterministic per-thread jitter streams keyed by the thread ordinal (the
// same compromise the fault injector documents: cross-thread interleaving
// is scheduler-dependent, each thread's stream is exact). A thread that
// moves to a config with another seed starts that seed's stream.
uint64_t RetryAfterJitterNs(const ServiceConfig& cfg) {
  struct Stream {
    bool seeded = false;
    uint64_t seed = 0;
    SplitMix64 rng{0};
  };
  thread_local Stream stream;
  if (!stream.seeded || stream.seed != cfg.seed) {
    stream.seeded = true;
    stream.seed = cfg.seed;
    stream.rng = SplitMix64(cfg.seed ^ SplitMix64(ThreadOrdinal() + 1).Next());
  }
  const uint64_t base = cfg.retry_after_us * 1000;
  return base + stream.rng.NextBelow(base == 0 ? 1 : base);
}

const ServiceConfig& DefaultConfig() {
  static const ServiceConfig latched = [] {
    ServiceConfig cfg;
    cfg.shards = static_cast<int>(
        support::EnvInt("GOCC_SVC_SHARDS", cfg.shards, 1, 256));
    cfg.deadline_us =
        support::EnvUint64("GOCC_SVC_DEADLINE_US", cfg.deadline_us, 0,
                           60'000'000);
    cfg.queue_limit = static_cast<uint32_t>(support::EnvUint64(
        "GOCC_SVC_QUEUE_LIMIT", cfg.queue_limit, 0, 1u << 20));
    cfg.p99_shed_us = support::EnvUint64("GOCC_SVC_P99_SHED_US",
                                         cfg.p99_shed_us, 0, 60'000'000);
    cfg.retry_after_us = support::EnvUint64(
        "GOCC_SVC_RETRY_AFTER_US", cfg.retry_after_us, 1, 60'000'000);
    cfg.hedge_us =
        support::EnvUint64("GOCC_SVC_HEDGE_US", cfg.hedge_us, 0, 60'000'000);
    cfg.window_tick_us = support::EnvUint64(
        "GOCC_SVC_WINDOW_US", cfg.window_tick_us, 100, 60'000'000);
    cfg.degrade_trips = static_cast<int>(
        support::EnvInt("GOCC_SVC_DEGRADE_TRIPS", cfg.degrade_trips, 1,
                        1 << 20));
    cfg.quarantine_trips = static_cast<int>(
        support::EnvInt("GOCC_SVC_QUAR_TRIPS", cfg.quarantine_trips, 1,
                        1 << 20));
    cfg.probe_successes = static_cast<int>(
        support::EnvInt("GOCC_SVC_PROBE_OK", cfg.probe_successes, 1,
                        1 << 20));
    cfg.quarantine_cooldown_ms = support::EnvUint64(
        "GOCC_SVC_QUAR_COOLDOWN_MS", cfg.quarantine_cooldown_ms, 1, 60'000);
    return cfg;
  }();
  return latched;
}

const char* OutcomeName(Outcome o) {
  switch (o) {
    case Outcome::kOk:
      return "ok";
    case Outcome::kMiss:
      return "miss";
    case Outcome::kShedDeadline:
      return "shed_deadline";
    case Outcome::kShedOverload:
      return "shed_overload";
    case Outcome::kRejectedQuarantine:
      return "rejected_quarantine";
    case Outcome::kFailed:
      return "failed";
  }
  return "unknown";
}

const char* ShardStateName(ShardState s) {
  switch (s) {
    case ShardState::kHealthy:
      return "healthy";
    case ShardState::kDegraded:
      return "degraded";
    case ShardState::kQuarantined:
      return "quarantined";
  }
  return "unknown";
}

uint64_t ServiceStats::Sum(int slot) const {
  uint64_t total = 0;
  for (const Stripe& stripe : stripes_) {
    total += stripe.slots[slot].load(std::memory_order_relaxed);
  }
  return total;
}

uint64_t ServiceStats::TotalOutcomes() const {
  uint64_t total = 0;
  for (int i = 0; i < kNumOutcomes; ++i) {
    total += Sum(i);
  }
  return total;
}

bool ServiceStats::ConservationHolds(uint64_t issued, std::string* why) const {
  const uint64_t total = TotalOutcomes();
  if (total != issued) {
    if (why != nullptr) {
      *why = StrFormat(
          "outcome sum %llu != issued %llu (%s)",
          static_cast<unsigned long long>(total),
          static_cast<unsigned long long>(issued), ToString().c_str());
    }
    return false;
  }
  const uint64_t ok = Count(Outcome::kOk);
  const uint64_t stale = stale_reads.load(std::memory_order_relaxed);
  if (stale > ok) {
    if (why != nullptr) {
      *why = StrFormat("stale_reads %llu > ok %llu",
                                static_cast<unsigned long long>(stale),
                                static_cast<unsigned long long>(ok));
    }
    return false;
  }
  const uint64_t fired = hedges_fired.load(std::memory_order_relaxed);
  const uint64_t won = hedges_won.load(std::memory_order_relaxed);
  const uint64_t dup = hedge_duplicates.load(std::memory_order_relaxed);
  if (won + dup > fired) {
    if (why != nullptr) {
      *why = StrFormat(
          "hedges won %llu + duplicates %llu > fired %llu",
          static_cast<unsigned long long>(won),
          static_cast<unsigned long long>(dup),
          static_cast<unsigned long long>(fired));
    }
    return false;
  }
  return true;
}

void ServiceStats::Reset() {
  for (Stripe& stripe : stripes_) {
    for (auto& slot : stripe.slots) {
      slot.store(0, std::memory_order_relaxed);
    }
  }
}

std::string ServiceStats::ToString() const {
  auto n = [this](int slot) {
    return static_cast<unsigned long long>(Sum(slot));
  };
  std::string out = "svc{";
  for (int i = 0; i < kNumOutcomes; ++i) {
    out += StrFormat("%s%s=%llu", i == 0 ? "" : " ",
                     OutcomeName(static_cast<Outcome>(i)), n(i));
  }
  out += StrFormat(" stale=%llu hedges{fired=%llu won=%llu dup=%llu}",
                   n(kStaleReads), n(kHedgesFired), n(kHedgesWon),
                   n(kHedgeDuplicates));
  out += StrFormat(
      " health{degrades=%llu quarantines=%llu recoveries=%llu probes=%llu "
      "failures=%llu}}",
      n(kDegrades), n(kQuarantines), n(kRecoveries), n(kProbesAdmitted),
      n(kShardFailures));
  return out;
}

void LatencyWindow::Prime(uint64_t ns, int count) {
  Lock(window_lock_);
  for (int i = 0; i < count; ++i) {
    window_.Record(ns);
  }
  cached_p99_.store(window_.P99(), std::memory_order_relaxed);
  Unlock(window_lock_);
}

void LatencyWindow::Drain(uint64_t tick) {
  Lock(window_lock_);
  for (Batch& b : batches_) {
    Lock(b.lock);
    for (int i = 0; i < b.count; ++i) {
      window_.RecordBucket(b.ids[i]);
    }
    b.count = 0;
    Unlock(b.lock);
  }
  window_.Advance(tick);
  // Check first: an unchanged estimate leaves every reader's copy valid.
  const uint64_t p99 = window_.P99();
  if (p99 != cached_p99_.load(std::memory_order_relaxed)) {
    cached_p99_.store(p99, std::memory_order_relaxed);
  }
  Unlock(window_lock_);
}

// One more unit of escalation pressure at the current rung.
void ShardHealth::OnFailure() {
  std::lock_guard<std::mutex> lock(mu_);
  if (stats_ != nullptr) {
    stats_->shard_failures.fetch_add(1, std::memory_order_relaxed);
  }
  successes_ = 0;
  ++trips_;
  const ShardState state = State();
  if (state == ShardState::kHealthy && trips_ >= cfg_->degrade_trips) {
    state_.store(static_cast<int>(ShardState::kDegraded),
                 std::memory_order_relaxed);
    trips_ = 0;
    if (stats_ != nullptr) {
      stats_->degrades.fetch_add(1, std::memory_order_relaxed);
    }
  } else if (state == ShardState::kDegraded &&
             trips_ >= cfg_->quarantine_trips) {
    state_.store(static_cast<int>(ShardState::kQuarantined),
                 std::memory_order_relaxed);
    trips_ = 0;
    // The first probe waits out a full cooldown; without the Defer a
    // quarantine would re-probe on the very next request and the ladder
    // would flap instead of backing off.
    probe_gate_.Defer();
    if (stats_ != nullptr) {
      stats_->quarantines.fetch_add(1, std::memory_order_relaxed);
    }
  }
  // Already quarantined: stay there; the probe gate owns recovery.
}

void ShardHealth::OnSuccess() {
  // Healthy fast path: don't take the mutex for the common case.
  if (State() == ShardState::kHealthy) {
    return;
  }
  std::unique_lock<std::mutex> lock(mu_);
  const ShardState state = State();
  if (state == ShardState::kHealthy) {
    return;
  }
  trips_ = 0;
  if (++successes_ < cfg_->probe_successes) {
    return;
  }
  successes_ = 0;
  if (state == ShardState::kQuarantined) {
    state_.store(static_cast<int>(ShardState::kDegraded),
                 std::memory_order_relaxed);
    if (stats_ != nullptr) {
      stats_->recoveries.fetch_add(1, std::memory_order_relaxed);
    }
  } else {
    state_.store(static_cast<int>(ShardState::kHealthy),
                 std::memory_order_relaxed);
  }
}

void ShardHealth::Reset() {
  std::unique_lock<std::mutex> lock(mu_);
  state_.store(static_cast<int>(ShardState::kHealthy),
               std::memory_order_relaxed);
  trips_ = 0;
  successes_ = 0;
  probe_gate_.ForceNext();
}

}  // namespace gocc::service
