#include "src/htm/fault.h"

#include "src/gosync/runtime.h"
#include "src/support/rng.h"
#include "src/support/strings.h"

namespace gocc::htm::fault {
namespace {

// Armed plan. Schedule progress lives in parallel atomic arrays so Check can
// consume steps lock-free; the plan itself is immutable while armed.
struct ArmedState {
  FaultPlan plan;
  // Remaining skip/count per schedule step. Signed: fetch_sub may briefly
  // underflow below zero, which readers treat as exhausted.
  std::vector<std::atomic<int64_t>> skip_left;
  std::vector<std::atomic<int64_t>> count_left;
};

ArmedState g_state;
std::atomic<uint64_t> g_epoch{0};
std::atomic<int> g_next_ordinal{0};
FaultStats g_fault_stats;

struct ThreadState {
  int ordinal = -1;
  uint64_t epoch = ~uint64_t{0};
  SplitMix64 rng{0};
};
thread_local ThreadState tls_fault;
thread_local int tls_shard = -1;

// The only_shard filter applies exclusively to the service-tier sites so a
// mixed plan can storm one shard while injecting global transaction noise.
bool ShardFiltered(Site site) {
  const FaultPlan& plan = g_state.plan;
  if (plan.only_shard < 0) {
    return false;
  }
  if (site != Site::kShardStall && site != Site::kShardStorm) {
    return false;
  }
  return tls_shard != plan.only_shard;
}

// Returns the calling thread's state, (re)seeded for the current arm epoch.
ThreadState& LocalState() {
  ThreadState& ts = tls_fault;
  if (ts.ordinal < 0) {
    ts.ordinal = g_next_ordinal.fetch_add(1, std::memory_order_relaxed);
  }
  uint64_t epoch = g_epoch.load(std::memory_order_acquire);
  if (ts.epoch != epoch) {
    ts.epoch = epoch;
    // Decorrelate per-thread streams: run the ordinal through one SplitMix64
    // scramble before mixing it into the seed.
    ts.rng = SplitMix64(g_state.plan.seed ^
                        SplitMix64(static_cast<uint64_t>(ts.ordinal)).Next());
  }
  return ts;
}

// Applies the plan's thread filter/scale to `probability`; returns < 0 when
// this thread is filtered out entirely.
double EffectiveProbability(const ThreadState& ts, double probability) {
  const FaultPlan& plan = g_state.plan;
  if (plan.only_thread >= 0 && ts.ordinal != plan.only_thread) {
    return -1.0;
  }
  if (!plan.per_thread_scale.empty()) {
    probability *= plan.per_thread_scale[static_cast<size_t>(ts.ordinal) %
                                         plan.per_thread_scale.size()];
  }
  return probability;
}

// Consumes one matching operation from the schedule; returns the injected
// code or kNone. Steps are scanned in order so "skip M then abort N" scripts
// compose left to right.
AbortCode ConsumeSchedule(Site site) {
  const FaultPlan& plan = g_state.plan;
  for (size_t i = 0; i < plan.schedule.size(); ++i) {
    const ScheduleStep& step = plan.schedule[i];
    if (step.site != site) {
      continue;
    }
    if (g_state.skip_left[i].load(std::memory_order_relaxed) > 0) {
      if (g_state.skip_left[i].fetch_sub(1, std::memory_order_relaxed) > 0) {
        return AbortCode::kNone;  // this operation passes through
      }
    }
    if (g_state.count_left[i].load(std::memory_order_relaxed) > 0) {
      if (g_state.count_left[i].fetch_sub(1, std::memory_order_relaxed) > 0) {
        return step.code;
      }
    }
    // Step exhausted for this site; fall through to the next matching one.
  }
  return AbortCode::kNone;
}

void RecordInjection(Site site, AbortCode code) {
  g_fault_stats.injected_by_site[static_cast<int>(site)].fetch_add(
      1, std::memory_order_relaxed);
  g_fault_stats.injected_by_code[static_cast<int>(code)].fetch_add(
      1, std::memory_order_relaxed);
}

}  // namespace

const char* SiteName(Site site) {
  switch (site) {
    case Site::kBegin:
      return "begin";
    case Site::kLoad:
      return "load";
    case Site::kStore:
      return "store";
    case Site::kCommit:
      return "commit";
    case Site::kLockTransition:
      return "lock_transition";
    case Site::kOccPublish:
      return "occ_publish";
    case Site::kMultiLockSubscribe:
      return "multilock_subscribe";
    case Site::kMultiLockCommit:
      return "multilock_commit";
    case Site::kShardStall:
      return "shard_stall";
    case Site::kShardStorm:
      return "shard_storm";
  }
  return "unknown";
}

void FaultStats::Reset() {
  checked.store(0, std::memory_order_relaxed);
  for (int i = 0; i < kNumSites; ++i) {
    injected_by_site[i].store(0, std::memory_order_relaxed);
  }
  for (int i = 0; i < kNumAbortCodes; ++i) {
    injected_by_code[i].store(0, std::memory_order_relaxed);
  }
  stalls.store(0, std::memory_order_relaxed);
  stall_pauses.store(0, std::memory_order_relaxed);
}

std::string FaultStats::ToString() const {
  std::string out = StrFormat(
      "fault{seed=%llx checked=%llu injected=%llu",
      static_cast<unsigned long long>(ArmedSeed()),
      static_cast<unsigned long long>(checked.load(std::memory_order_relaxed)),
      static_cast<unsigned long long>(TotalInjected()));
  for (int i = 0; i < kNumSites; ++i) {
    uint64_t n = injected_by_site[i].load(std::memory_order_relaxed);
    if (n != 0) {
      out += StrFormat(" %s=%llu", SiteName(static_cast<Site>(i)),
                       static_cast<unsigned long long>(n));
    }
  }
  out += StrFormat(
      " stalls=%llu/%llu}",
      static_cast<unsigned long long>(stalls.load(std::memory_order_relaxed)),
      static_cast<unsigned long long>(
          stall_pauses.load(std::memory_order_relaxed)));
  return out;
}

FaultStats& GlobalFaultStats() { return g_fault_stats; }

uint64_t Arm(const FaultPlan& plan) {
  internal::g_armed.store(false, std::memory_order_release);
  g_state.plan = plan;
  g_state.skip_left = std::vector<std::atomic<int64_t>>(plan.schedule.size());
  g_state.count_left = std::vector<std::atomic<int64_t>>(plan.schedule.size());
  for (size_t i = 0; i < plan.schedule.size(); ++i) {
    g_state.skip_left[i].store(static_cast<int64_t>(plan.schedule[i].skip),
                               std::memory_order_relaxed);
    g_state.count_left[i].store(static_cast<int64_t>(plan.schedule[i].count),
                                std::memory_order_relaxed);
  }
  g_fault_stats.Reset();
  g_epoch.fetch_add(1, std::memory_order_acq_rel);
  internal::g_armed.store(true, std::memory_order_release);
  return plan.seed;
}

void Disarm() { internal::g_armed.store(false, std::memory_order_release); }

bool Armed() { return internal::g_armed.load(std::memory_order_relaxed); }

uint64_t ArmedSeed() { return g_state.plan.seed; }

void BindThisThread(int ordinal) {
  tls_fault.ordinal = ordinal;
  tls_fault.epoch = ~uint64_t{0};  // force a reseed on next use
}

void SetShardContext(int shard) { tls_shard = shard; }

int ShardContext() { return tls_shard; }

namespace internal {

std::atomic<bool> g_armed{false};

AbortCode CheckSlow(Site site) {
  g_fault_stats.checked.fetch_add(1, std::memory_order_relaxed);
  if (ShardFiltered(site)) {
    return AbortCode::kNone;
  }
  ThreadState& ts = LocalState();
  const SiteRule& rule = g_state.plan.site_rules[static_cast<int>(site)];

  double p = EffectiveProbability(ts, rule.probability);
  if (p < 0.0) {
    return AbortCode::kNone;  // thread filtered out — schedules too
  }
  if (AbortCode code = ConsumeSchedule(site); code != AbortCode::kNone) {
    RecordInjection(site, code);
    return code;
  }
  if (p > 0.0 && ts.rng.NextBool(p)) {
    RecordInjection(site, rule.code);
    return rule.code;
  }
  return AbortCode::kNone;
}

void StallSlow(Site site) {
  if (ShardFiltered(site)) {
    return;
  }
  ThreadState& ts = LocalState();
  const SiteRule& rule = g_state.plan.site_rules[static_cast<int>(site)];
  if (rule.stall_pauses <= 0) {
    return;
  }
  double p = EffectiveProbability(ts, rule.probability);
  if (p <= 0.0 || !ts.rng.NextBool(p)) {
    return;
  }
  // Deterministic jitter: stall between half and the full configured length.
  int pauses = rule.stall_pauses / 2 +
               static_cast<int>(ts.rng.NextBelow(
                   static_cast<uint64_t>(rule.stall_pauses / 2 + 1)));
  g_fault_stats.stalls.fetch_add(1, std::memory_order_relaxed);
  g_fault_stats.stall_pauses.fetch_add(static_cast<uint64_t>(pauses),
                                       std::memory_order_relaxed);
  for (int i = 0; i < pauses; ++i) {
    gosync::CpuPause();
  }
}

}  // namespace internal
}  // namespace gocc::htm::fault
