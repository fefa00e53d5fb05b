#include "src/optilib/optilock.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <type_traits>

#include "src/gosync/runtime.h"
#include "src/htm/config.h"
#include "src/htm/fault.h"
#include "src/htm/swocc.h"
#include "src/obs/recorder.h"
#include "src/obs/ticks.h"
#include "src/optilib/breaker.h"
#include "src/optilib/site_cache.h"
#include "src/support/env.h"
#include "src/support/reprobe.h"
#include "src/support/rng.h"

namespace gocc::optilib {
namespace {

// Live configuration: one word array of relaxed atomics under a seqlock,
// written only by PublishOptiConfig. Episode snapshots read it with a
// word-wise retry copy: wait-free in practice (writers finish in
// nanoseconds and are externally serialized), immune to the slot-reuse
// window a pointer-swung ring has when a preempted reader sleeps through a
// full ring of publishes, and every access is atomic, so the copy is
// TSan-clean by construction.
static_assert(std::is_trivially_copyable_v<OptiConfig>,
              "config snapshots are word-wise memcpys");
constexpr size_t kConfigWords = (sizeof(OptiConfig) + 7) / 8;

class ConfigStore {
 public:
  ConfigStore() { Write(OptiConfig{}); }

  void Write(const OptiConfig& next) {
    uint64_t raw[kConfigWords];
    std::memset(raw, 0, sizeof(raw));  // deterministic tail padding
    std::memcpy(raw, &next, sizeof(OptiConfig));
    const uint64_t seq = seq_.load(std::memory_order_relaxed);
    seq_.store(seq + 1, std::memory_order_relaxed);  // odd: in flight
    std::atomic_thread_fence(std::memory_order_release);
    for (size_t i = 0; i < kConfigWords; ++i) {
      words_[i].store(raw[i], std::memory_order_relaxed);
    }
    seq_.store(seq + 2, std::memory_order_release);
  }

  // Seqlock-validated copy (Boehm's recipe: acquire seq, relaxed data,
  // acquire fence, seq recheck).
  OptiConfig Read() const {
    uint64_t raw[kConfigWords];
    while (true) {
      const uint64_t before = seq_.load(std::memory_order_acquire);
      if ((before & 1) == 0) {
        for (size_t i = 0; i < kConfigWords; ++i) {
          raw[i] = words_[i].load(std::memory_order_relaxed);
        }
        std::atomic_thread_fence(std::memory_order_acquire);
        if (seq_.load(std::memory_order_relaxed) == before) {
          break;
        }
      }
      gosync::CpuPause();
    }
    OptiConfig out;
    std::memcpy(&out, raw, sizeof(OptiConfig));
    return out;
  }

 private:
  std::atomic<uint64_t> seq_{0};
  std::atomic<uint64_t> words_[kConfigWords] = {};
};

// Seeded with OptiConfig{} on first use, so the env-derived defaults
// (GOCC_OBS_TRACE, GOCC_MISUSE_POLICY, ...) resolve when the runtime first
// needs a config, like any other default-constructed OptiConfig.
ConfigStore& LiveConfig() {
  static ConfigStore store;
  return store;
}

OptiStats g_stats;
Perceptron g_perceptron;
BreakerTable g_breaker;
SiteCache g_site_cache;

// Per-thread identity for cross-thread unlock detection: constant
// initialization keeps reads guard-free, and the address is unique among
// live threads.
constinit thread_local char t_thread_anchor = 0;
inline const void* ThreadAnchor() { return &t_thread_anchor; }

// Lock-order-inversion watermark (DESIGN.md §4.12): while a multi-lock
// episode on this thread holds its set pessimistically, the watermark is
// the highest member address it acquired (in sorted order). Any further
// slow-path acquisition of a *tracked* mutex below the watermark — a nested
// FastLock that would take locks against the global address order — is the
// lock-order-inversion misuse: the sorted fallback's deadlock-freedom
// argument rests on every thread acquiring in one global order. Depth
// counts in-flight slow-held multi-lock episodes so the check costs one
// thread-local compare only when a set is actually held; zero otherwise.
constinit thread_local uintptr_t t_lock_order_watermark = 0;
constinit thread_local int t_lock_order_depth = 0;

// Count of aborts delivered to this thread's episodes (a SimTM longjmp and
// an RTM status re-return both land in HandleAbort). An episode records the
// epoch once it is established; finding stale episode state at the next
// FastLock with a *different* epoch means an abort unwound past that
// episode's frame — flat nesting rolls back to the outermost checkpoint, so
// an inner episode's FastUnlock is simply never reached when its enclosing
// transaction aborts. That is the substrate's normal re-execution, not a
// double-FastLock misuse.
constinit thread_local uint64_t t_abort_epoch = 0;

// Process-wide episode clock: one tick per elision decision (only taken
// when the breaker or watchdog is enabled — with both off, cooldowns are
// never consulted and the fast path skips the clock entirely). Breaker and
// watchdog cooldowns are denominated in these ticks so they need no
// wall-clock reads on the fast path.
//
// Ticks are claimed in thread-local batches of kEpisodeClockBatch: the
// shared fetch_add runs once per batch instead of once per episode, so the
// clock's cache line is written O(episodes / batch) times. A thread's
// in-hand ticks lag the frontier by < threads * batch — see the skew
// analysis on kEpisodeClockBatch.
std::atomic<uint64_t> g_episode_clock{0};

// Bumped by ResetHardeningState to invalidate every thread's cached tick
// batch, so back-to-back runs restart from tick zero with no residue.
std::atomic<uint64_t> g_clock_epoch{0};

struct ClockCache {
  uint64_t next = 0;
  uint64_t end = 0;  // exclusive
  uint64_t epoch = 0;
};

uint64_t NextEpisodeTick() {
  thread_local ClockCache cache;
  const uint64_t epoch = g_clock_epoch.load(std::memory_order_relaxed);
  if (cache.next >= cache.end || cache.epoch != epoch) {
    cache.next = g_episode_clock.fetch_add(kEpisodeClockBatch,
                                           std::memory_order_relaxed);
    cache.end = cache.next + kEpisodeClockBatch;
    cache.epoch = epoch;
  }
  return ++cache.next;  // ticks are 1-based, matching the unbatched clock
}

// Watchdog state: consecutive exhausted-budget fallbacks with no fast commit
// in between, and the episode tick until which slow-only mode holds.
std::atomic<uint64_t> g_storm_streak{0};
std::atomic<uint64_t> g_slow_only_until{0};

// Single-writer bump of the calling thread's stat shard (see sharded.h:
// relaxed load+store, no lock-prefixed RMW, no shared cache line).
inline void Bump(int slot, uint64_t delta = 1) {
  std::atomic<uint64_t>* s = g_stats.LocalShard() + slot;
  s->store(s->load(std::memory_order_relaxed) + delta,
           std::memory_order_relaxed);
}

// Deterministic per-thread jitter stream for backoff.
SplitMix64& BackoffRng() {
  constexpr uint64_t kBackoffSeed = 0x6f707469'6c6f636bULL;
  static std::atomic<uint64_t> thread_counter{0};
  thread_local SplitMix64 rng(
      kBackoffSeed ^
      SplitMix64(thread_counter.fetch_add(1, std::memory_order_relaxed) + 1)
          .Next());
  return rng;
}

}  // namespace

bool OptiConfig::DefaultTraceEpisodes() {
  // Resolved once per process: GOCC_OBS_TRACE turns tracing on for every
  // config default-constructed afterwards (including the global).
  static const bool kDefault = support::EnvBool("GOCC_OBS_TRACE", false);
  return kDefault;
}

int OptiConfig::DefaultOccMaxRetries() {
  // Resolved once per process. Default 4: enough retries to ride out a
  // burst of committers on the same word, small enough that a persistent
  // validation storm reaches the lock (and the breaker) within a few
  // microseconds of backoff.
  static const int kDefault = static_cast<int>(
      support::EnvInt("GOCC_OCC_MAX_RETRIES", 4, 0, 1 << 20));
  return kDefault;
}

int OptiConfig::DefaultMultilockSpeculateMax() {
  // Resolved once per process. Default: speculate on any set the episode
  // can hold (kMaxLockSet); the knob exists so deployments whose OLTP
  // transactions conflict heavily can cap speculation at 2–3 locks without
  // rebuilding. 0 sends every multi-lock episode to sorted 2PL.
  static const int kDefault = static_cast<int>(support::EnvInt(
      "GOCC_MULTILOCK_SPECULATE_MAX", OptiLock::kMaxLockSet, 0,
      OptiLock::kMaxLockSet));
  return kDefault;
}

OptiConfig GetOptiConfig() { return LiveConfig().Read(); }

void PublishOptiConfig(const OptiConfig& next) {
  LiveConfig().Write(next);
  // Ordered after the write (release bump / acquire epoch read): an episode
  // that starts under the new epoch re-snapshots and sees the new config;
  // one that raced and kept the old epoch keeps the old verdicts with the
  // old config — coherent either way.
  g_site_cache.BumpEpoch();
}

OptiStats& GlobalOptiStats() { return g_stats; }
Perceptron& GlobalPerceptron() { return g_perceptron; }

static_assert(OptiStats::kEpisodeAbortsBase ==
                  OptiStats::kMultiLockAbortMemberBase + OptiLock::kMaxLockSet,
              "per-member abort histogram sized to the set limit");

void OptiStats::Reset() { shards_.ResetAll(); }

std::string OptiStats::ToString() const {
  return support::RenderCounters(kOptiStatsRows, Counts()) + " " +
         support::RenderCounters(support::kMisuseRows,
                                 support::MisuseCounts());
}

// Breaker escalation listener (service tier health ladder). Relaxed atomic:
// registration happens at service construction, trips are cold.
static std::atomic<BreakerTripListener> g_breaker_trip_listener{nullptr};

// One shared gate for every "is RTM healthy again?" probe — the breaker's
// half-open admission and the watchdog's storm trip used to each fire
// ReprobeRtmHealth on their own cadence; both now draw from this single
// GOCC_REPROBE_MS budget (support/reprobe.h). ForceNext on reset so tests
// and back-to-back bench runs start with a probe available.
static support::Reprobe& RtmReprobeGate() {
  static support::Reprobe* gate = new support::Reprobe();
  return *gate;
}

void SetBreakerTripListener(BreakerTripListener listener) {
  g_breaker_trip_listener.store(listener, std::memory_order_release);
}

void ResetHardeningState() {
  RtmReprobeGate().ForceNext();
  g_breaker.Reset();
  g_storm_streak.store(0, std::memory_order_relaxed);
  g_slow_only_until.store(0, std::memory_order_relaxed);
  // Rewind the episode clock and invalidate every thread's cached batch
  // (the epoch bump makes stale in-hand ticks unusable). Safe because the
  // consumers of old ticks — breaker cells and the watchdog window — are
  // cleared in the same call.
  g_episode_clock.store(0, std::memory_order_relaxed);
  g_clock_epoch.fetch_add(1, std::memory_order_relaxed);
  // Cached verdicts were learned under the hardening state being cleared;
  // retire them too (this also gives back-to-back bench/test runs a cold
  // cache, since bench_util's ResetRuntimeState lands here).
  g_site_cache.BumpEpoch();
}

uint64_t EpisodeClockFrontier() {
  return g_episode_clock.load(std::memory_order_relaxed);
}

void InvalidateSiteDecisionCaches() { g_site_cache.BumpEpoch(); }

uint64_t SiteDecisionCacheEpoch() { return g_site_cache.Epoch(); }

void OptiLock::PrepareCommon() {
  if (kind_ != Target::kNone) {
    if (abort_epoch_ != t_abort_epoch) {
      // An abort long-jumped past this episode's frame after it was
      // established: the episode was nested inside a transaction that
      // rolled back (flat nesting unwinds to the outermost checkpoint), and
      // the re-executed critical section is now re-locking. Fast-path state
      // died with the rollback — just clear the episode. A slow-path lock
      // is NOT transactional state and survived the longjmp; AbandonEpisode
      // releases it (counted as an unwind) before the re-execution
      // re-acquires. Best-effort: a genuine double FastLock that races an
      // intervening abort on the same thread lands here and is recovered
      // identically, only without the misuse report.
      if (HasFlag(kFlagSlowPath)) {
        AbandonEpisode();
      } else {
        ResetEpisode();
      }
    } else {
      // The previous episode on this OptiLock never reached its unlock:
      // FastLock twice in a row (an OptiLock is goroutine-local, single-
      // episode state). Recovery tears the stale episode down exactly as an
      // exception unwind would — the open transaction is cancelled (its
      // buffered writes discarded) or the held slow-path lock released — so
      // the fresh episode does not silently nest inside an abandoned one and
      // no lock is leaked. The teardown is visible in unwind_cancels /
      // unwind_slow_unlocks alongside the kDoubleFastLock misuse count.
      support::ReportMisuse(support::MisuseKind::kDoubleFastLock,
                            cfg_.misuse_policy, this,
                            "fast-lock-while-episode-open");
      AbandonEpisode();
    }
  }
  // Decision epoch for this episode: keys the site-cache consult and the
  // config snapshot. The acquire read pairs with the release bump at the end
  // of PublishOptiConfig, so observing a new epoch implies the new config
  // words are visible. Every publish bumps the epoch, so the seqlock copy
  // runs only when it has moved (a concurrent PublishOptiConfig yields a
  // clean old-or-new snapshot, never a torn mix) and the steady state pays
  // one compare.
  const uint64_t epoch = g_site_cache.Epoch();
  if (epoch != cache_epoch_) [[unlikely]] {
    cfg_ = LiveConfig().Read();
    cache_epoch_ = epoch;
  }
  owner_ = ThreadAnchor();
  flags_ &= kFlagBackendPinned;  // a pin outlives the whole flattened nest
  attempts_left_ = cfg_.max_attempts;
  conflict_retries_left_ = cfg_.conflict_retries;
  occ_retries_left_ = cfg_.occ_max_retries;
  backoff_exponent_ = 0;
  episode_now_ = 0;
  obs_retries_ = 0;
  obs_last_abort_ = htm::AbortCode::kNone;
  if (cfg_.trace_episodes) {
    obs_start_ticks_ = obs::NowTicks();
  }
}

void OptiLock::PrepareMutex(gosync::Mutex* m) {
  PrepareCommon();
  target_ = m;
  kind_ = Target::kMutex;
}

void OptiLock::PrepareRead(gosync::RWMutex* m) {
  PrepareCommon();
  target_ = m;
  kind_ = Target::kRWRead;
}

void OptiLock::PrepareWrite(gosync::RWMutex* m) {
  PrepareCommon();
  target_ = m;
  kind_ = Target::kRWWrite;
}

void OptiLock::PrepareMutexSet(gosync::Mutex* const* mutexes, int count) {
  if (count < 1 || count > kMaxLockSet) [[unlikely]] {
    // Hard API contract (see kMaxLockSet): an oversized set cannot be
    // recovered because there is nowhere to record what to release, and an
    // empty set has no lock to pair the unlock with.
    std::fprintf(stderr,
                 "[gocc] WithLocks set size %d outside [1, %d] — aborting\n",
                 count, kMaxLockSet);
    std::abort();
  }
  PrepareCommon();
  // Insertion-sort into ascending address order (sets are tiny), dropping
  // duplicates: locking the same mutex twice in one episode must behave as
  // locking it once — the slow path would self-deadlock otherwise, and the
  // fast path would double-subscribe for no benefit.
  int n = 0;
  for (int i = 0; i < count; ++i) {
    gosync::Mutex* m = mutexes[i];
    int j = n;
    while (j > 0 && set_[j - 1] > m) {
      --j;
    }
    if (j > 0 && set_[j - 1] == m) {
      continue;
    }
    for (int k = n; k > j; --k) {
      set_[k] = set_[k - 1];
    }
    set_[j] = m;
    ++n;
  }
  set_size_ = n;
  if (n == 1) {
    // One distinct lock: this IS a single-lock episode; take the exact
    // single-lock trajectory (decision features, stats, unlock pairing all
    // degrade to WithLock — FastUnlockSet routes through FastUnlock).
    target_ = set_[0];
    kind_ = Target::kMutex;
    return;
  }
  target_ = set_[0];
  kind_ = Target::kMutexSet;
  blamed_member_ = -1;
  Bump(OptiStats::kMultiLockEpisodes);
  if (n > cfg_.multilock_speculate_max) {
    // Admission gate: the set is wider than the deployment wants to
    // speculate on. Straight to sorted 2PL, without training the
    // perceptron (no prediction was made).
    SetFlag(kFlagForceSlow);
  }
}

void OptiLock::FastLockStep(int setjmp_code) {
  if (setjmp_code != 0) {
    HandleAbort(static_cast<htm::AbortCode>(setjmp_code));
  }
  AttemptLoop();
  // Episode established (transaction open or slow lock held): record the
  // thread's abort epoch so PrepareCommon can tell "an abort unwound past
  // this episode" from a genuine double FastLock.
  abort_epoch_ = t_abort_epoch;
}

void OptiLock::HandleAbort(htm::AbortCode code) {
  ++t_abort_epoch;
  Bump(OptiStats::kEpisodeAbortsBase + static_cast<int>(code));
  if (kind_ == Target::kMutexSet) [[unlikely]] {
    // Abort attribution: name the member whose word killed the transaction
    // (recorded by the subscription path, or inferred from which member's
    // version moved) before the retry decision reuses the episode state.
    AttributeSetAbort();
  }
  // Trace bookkeeping: plain member writes, off the uncontended path by
  // construction (HandleAbort only runs after an abort).
  obs_last_abort_ = code;
  if (obs_retries_ < obs::kMaxRetries) {
    ++obs_retries_;
  }
  switch (code) {
    case htm::AbortCode::kMutexMismatch:
      // The code patch paired this FastLock with an unintended unlock point
      // (e.g. hand-over-hand traversal). The transaction already rolled
      // back every effect; recover by enforcing the slow path, which is
      // behaviourally identical to the untransformed program (Appendix C).
      Bump(OptiStats::kMismatchRecoveries);
      SetFlag(kFlagForceSlow);
      return;
    case htm::AbortCode::kLockHeld:
      // Retryable: the slow-path holder will release (Listing 19 retries
      // LockHeld aborts while trials remain; the retry already pause-spins
      // on the lock word, so no extra backoff is layered here).
      if (attempts_left_-- <= 0) {
        SetFlag(kFlagExhausted | kFlagForceSlow);
      }
      return;
    case htm::AbortCode::kOccValidateFail:
      // sw-OCC commit/read validation lost a race. Unlike an HTM abort,
      // which the hardware cuts short, a failed validation has already paid
      // for the whole critical section — so each failure trains the
      // perceptron (at double weight, see PenalizeOccValidation), not just
      // episodes that end on the lock. Otherwise a site whose episodes
      // commit only after burning the retry budget keeps getting rewarded
      // for net-negative speculation.
      if (HasFlag(kFlagPredictedHtm) && cfg_.use_perceptron) {
        g_perceptron.PenalizeOccValidation(indices_);
      }
      // Retry on a separate budget (occ_max_retries) with jittered backoff;
      // when it runs dry the episode pins itself to the real lock — the
      // livelock guard. An exhausted budget counts toward the breaker and
      // watchdog exactly like an HTM abort storm.
      if (occ_retries_left_-- <= 0) {
        SetFlag(kFlagExhausted | kFlagForceSlow | kFlagOccFallback);
      } else {
        BackoffBeforeRetry();
      }
      return;
    default:
      // Conflict, capacity, explicit, spurious: the paper falls back to the
      // lock immediately; conflict_retries (default 0) relaxes this for the
      // ablation study. When retries are granted, back off before
      // re-speculating so contenders de-synchronize instead of re-colliding
      // (the lemming cascade).
      if (conflict_retries_left_-- <= 0) {
        SetFlag(kFlagExhausted | kFlagForceSlow);
      } else {
        BackoffBeforeRetry();
      }
      return;
  }
}

void OptiLock::BackoffBeforeRetry() {
  if (cfg_.backoff_base_pauses <= 0) {
    return;
  }
  int64_t limit = cfg_.backoff_base_pauses;
  for (int i = 0; i < backoff_exponent_ && limit < cfg_.backoff_cap_pauses;
       ++i) {
    limit <<= 1;
  }
  if (limit > cfg_.backoff_cap_pauses) {
    limit = cfg_.backoff_cap_pauses;
  }
  ++backoff_exponent_;
  // Jitter in [limit/2, limit]: full-limit lockstep would just re-align the
  // storm on the next attempt.
  int64_t pauses =
      limit / 2 +
      static_cast<int64_t>(BackoffRng().NextBelow(
          static_cast<uint64_t>(limit / 2 + 1)));
  Bump(OptiStats::kBackoffWaits);
  Bump(OptiStats::kBackoffPauses, static_cast<uint64_t>(pauses));
  for (int64_t i = 0; i < pauses; ++i) {
    gosync::CpuPause();
  }
}

void OptiLock::AttemptLoop() {
  while (true) {
    if (htm::InTx()) [[unlikely]] {
      // Already executing transactionally (nested transformed critical
      // section). Subsume into the enclosing transaction — RTM flattening —
      // and subscribe to this lock too. Taking a real lock inside a
      // transaction is never attempted.
      htm::TxBeginImpl(0, &env_);
      SubscribeOrAbort();
      ClearFlag(kFlagSlowPath);
      return;
    }
    if (HasFlag(kFlagForceSlow)) [[unlikely]] {
      TakeSlowPath();
      return;
    }
    if (!HasFlag(kFlagDecisionMade)) {
      SetFlag(kFlagDecisionMade);
      if (!DecideElide()) {
        return;  // the decision already took the slow path
      }
    }

    // Wait for the elided lock to become available before starting the
    // transaction — beginning while it is held guarantees an abort.
    for (int i = 0; i < cfg_.spin_pauses_while_locked && TargetHeld(); ++i) {
      gosync::CpuPause();
    }

    Bump(OptiStats::kHtmAttempts);
    htm::BeginStatus status = htm::TxBeginImpl(0, &env_);
    if (!status.started) [[unlikely]] {
      // The RTM backend reports aborts by re-returning here; SimTM reports
      // them through the setjmp checkpoint instead (FastLockStep).
      HandleAbort(status.abort_code);
      continue;
    }
    SubscribeOrAbort();
    ClearFlag(kFlagSlowPath);
    return;
  }
}

bool OptiLock::DecideElide() {
  if (cfg_.single_proc_bypass && gosync::MaxProcs() <= 1) [[unlikely]] {
    // §5.4.2: with a single P there is no concurrency to exploit and
    // HTM's begin/commit overhead is pure loss.
    Bump(OptiStats::kSingleProcBypasses);
    TakeSlowPath();
    return false;
  }
  if (kind_ == Target::kMutexSet) [[unlikely]] {
    // Per-lock-set features: combined member footprint + set size + site
    // (perceptron.h IndicesForSet) — the controller learns per lock set,
    // not per single site, so a hot 2-lock pairing and a cold 4-lock one
    // through the same call site converge independently.
    indices_ = Perceptron::IndicesForSet(
        reinterpret_cast<const void* const*>(set_), set_size_, this);
  } else {
    indices_ = Perceptron::IndicesFor(target_, this);
  }
  // The episode clock only exists to denominate breaker/watchdog
  // cooldowns: with both disabled (the default) no tick is claimed and
  // the decision path touches no shared clock state at all.
  const bool hardening =
      cfg_.breaker_threshold > 0 || cfg_.watchdog_threshold > 0;

  // Per-site decision cache (site_cache.h): while hardening is off — its
  // admission checks must run every episode — the steady-state decision is
  // one epoch-tagged load. Both cached paths reproduce the uncached
  // counter and training semantics exactly: a cached lock verdict keeps
  // feeding the slow-streak decay, a cached elide verdict skips only the
  // perceptron consult and still pins, checks eligibility, attempts,
  // subscribes, and validates a real transaction (and its commit still
  // rewards the perceptron), so the cache can cost at most one wasted
  // attempt, never soundness.
  bool cached_elide = false;
  if (!hardening) [[likely]] {
    const SiteCache::Decision d =
        g_site_cache.Lookup(indices_.mutex_cell, cache_epoch_);
    if (d.verdict == SiteCache::kElide &&
        d.backend == static_cast<uint32_t>(htm::ActiveBackend()))
        [[likely]] {
      Bump(OptiStats::kSiteCacheHits);
      cached_elide = true;
    } else if (d.verdict == SiteCache::kLock) {
      // Cached pessimistic verdict: skip the dot-product but keep the
      // slow-decision cadence — the streak decay is the path by which a
      // site whose contention went away earns back its elision.
      Bump(OptiStats::kSiteCacheHits);
      Bump(OptiStats::kPerceptronSlowDecisions);
      if (g_perceptron.NoteSlowDecision(indices_)) {
        Bump(OptiStats::kPerceptronResets);
        if (g_site_cache.Invalidate(indices_.mutex_cell)) {
          Bump(OptiStats::kSiteCacheInvalidations);
        }
      }
      TakeSlowPath();
      return false;
    }
  }

  if (hardening) [[unlikely]] {
    episode_now_ = NextEpisodeTick();
    // Episode watchdog: during a declared abort storm every decision
    // goes straight to the lock. Episodes already past this point (in a
    // transaction or on the slow path) are untouched, so hot-degrading
    // can never deadlock in-flight work.
    if (cfg_.watchdog_threshold > 0 &&
        episode_now_ < g_slow_only_until.load(std::memory_order_relaxed)) {
      Bump(OptiStats::kWatchdogBypasses);
      TakeSlowPath();
      return false;
    }
  }
  // A cached elide verdict stands in for the perceptron; the watchdog above
  // and the breaker below never see one (the cache is off while hardening).
  if (cfg_.use_perceptron && !cached_elide) {
    if (!g_perceptron.Predict(indices_)) {
      Bump(OptiStats::kPerceptronSlowDecisions);
      if (g_perceptron.NoteSlowDecision(indices_)) {
        Bump(OptiStats::kPerceptronResets);
      } else if (!hardening) {
        // Memoize the pessimistic verdict — but not when the decay just
        // reset the cell's weights, so the next episode re-probes elision
        // exactly like the uncached flow.
        g_site_cache.Install(indices_.mutex_cell, cache_epoch_,
                             SiteCache::kLock, 0);
        Bump(OptiStats::kSiteCacheInstalls);
      }
      TakeSlowPath();
      return false;
    }
  }
  // Circuit breaker, layered after the perceptron: it only ever sees
  // episodes the perceptron was still willing to speculate on, so the
  // paper's predictor statistics keep their semantics.
  if (cfg_.breaker_threshold > 0) [[unlikely]] {
    switch (g_breaker.Admit(indices_.mutex_cell, episode_now_,
                            cfg_.breaker_threshold)) {
      case BreakerDecision::kOpen:
        Bump(OptiStats::kBreakerShortCircuits);
        TakeSlowPath();
        return false;
      case BreakerDecision::kReprobe:
        Bump(OptiStats::kBreakerReprobes);
        // A cooldown just expired for this cell — the one moment the
        // runtime revisits a latched verdict. If the global backend is
        // RTM, re-run the hardware probe too: TSX vanishing mid-run
        // (microcode update, VM migration) would otherwise feed every
        // re-probe to dead hardware forever. On a failed probe the
        // process demotes to sw-OCC and this episode speculates there.
        // The probe itself is rate-limited by the shared GOCC_REPROBE_MS
        // gate: many cells leaving cooldown together (storm end) must not
        // hammer dead hardware with one probe transaction each.
        if (RtmReprobeGate().Due() && htm::ReprobeRtmHealth()) {
          Bump(OptiStats::kRtmDemotions);
          g_site_cache.BumpEpoch();
        }
        break;
      case BreakerDecision::kClosed:
        break;
    }
  }
  // Pin this thread's Tx dispatch to the backend chosen now, so every
  // substrate call of the episode — begin, loads, the commit in
  // FastUnlock, flat-nested sections — lands on one backend even if the
  // global switches mid-episode (RTM demotion). One TLS store here, one
  // in ResetEpisode; Tx ops pay a guard-free TLS load they already
  // paid for the context pointer.
  if (!htm::ThreadBackendPinned()) {
    htm::PinThreadBackend(htm::ActiveBackend());
    SetFlag(kFlagBackendPinned);
  }
  const htm::Backend backend = htm::CurrentBackend();
  if (backend != htm::Backend::kRtm && !SoftwareEligible(backend))
      [[unlikely]] {
    // The software backend cannot soundly elide this target (untracked
    // mutex, or an RWMutex write section under sw-OCC; on a cached elide,
    // a hash collision aliasing an ineligible site onto an elide cell);
    // the lock is the correct degradation.
    TakeSlowPath();
    return false;
  }
  SetFlag(cached_elide ? kFlagPredictedHtm | kFlagSiteCacheHit
                       : kFlagPredictedHtm);
  return true;
}

namespace {
// Lock-order-inversion detection (§4.12): fires when a slow-path acquire of
// a tracked mutex dips below the watermark of a multi-lock set this thread
// already holds pessimistically. One thread-local compare; the tracked
// check runs only once an inversion is otherwise established.
inline void CheckSlowLockOrder(gosync::Mutex* m,
                               support::MisusePolicy policy) {
  if (t_lock_order_depth > 0 &&
      reinterpret_cast<uintptr_t>(m) < t_lock_order_watermark &&
      m->elision_tracked()) [[unlikely]] {
    support::ReportMisuse(support::MisuseKind::kLockOrderInversion, policy, m,
                          "slow-acquire-below-held-multilock-watermark");
  }
}
}  // namespace

void OptiLock::TakeSlowPath() {
  SetFlag(kFlagSlowPath);
  Bump(OptiStats::kSlowAcquires);
  switch (kind_) {
    case Target::kMutex:
      // Recovery for a detected inversion is to proceed in the requested
      // order — the untransformed program's behaviour (the report is the
      // value; refusing the lock would turn a latent bug into a new one).
      CheckSlowLockOrder(AsMutex(), cfg_.misuse_policy);
      AsMutex()->Lock();
      return;
    case Target::kRWRead:
      AsRW()->RLock();
      return;
    case Target::kRWWrite:
      AsRW()->Lock();
      return;
    case Target::kMutexSet:
      AcquireSetSlow();
      return;
    case Target::kNone:
      assert(false && "FastLock without a prepared target");
      return;
  }
}

void OptiLock::AcquireSetSlow() {
  // Sorted 2PL fallback: members were sorted by address at Prepare, so all
  // concurrent fallbacks (and every other sorted acquirer) agree on one
  // global acquisition order — the cyclic-wait condition for deadlock can
  // never form among them (DESIGN.md §4.12 carries the argument).
  saved_watermark_ = t_lock_order_watermark;
  for (int i = 0; i < set_size_; ++i) {
    // Against the *outer* watermark: a nested set whose lowest member sits
    // below an enclosing set's ceiling is a real inversion; members above
    // it extend the order monotonically.
    CheckSlowLockOrder(set_[i], cfg_.misuse_policy);
    set_[i]->Lock();
  }
  const auto ceiling = reinterpret_cast<uintptr_t>(set_[set_size_ - 1]);
  if (ceiling > t_lock_order_watermark) {
    t_lock_order_watermark = ceiling;
  }
  ++t_lock_order_depth;
}

void OptiLock::ReleaseSetSlow() {
  for (int i = set_size_ - 1; i >= 0; --i) {
    set_[i]->Unlock();
  }
  t_lock_order_watermark = saved_watermark_;
  --t_lock_order_depth;
}

bool OptiLock::SoftwareEligible(htm::Backend backend) const {
  switch (kind_) {
    case Target::kMutex:
      return AsMutex()->elision_tracked();
    case Target::kRWRead:
      return AsRW()->elision_tracked();
    case Target::kRWWrite:
      // Slow-path readers take no version-word transition, so a write
      // section must validate reader_count_ by value instead. That is sound
      // under SimTM only: a reader still inside its section at commit
      // leaves the count nonzero, and one that came and went is serialized
      // by the version words of the cells it touched. sw-OCC's depth-0
      // accesses touch no version words, so there a write elision could
      // publish under a reader's feet: sw-OCC takes the lock.
      return backend == htm::Backend::kSim && AsRW()->elision_tracked();
    case Target::kMutexSet:
      // Every member must maintain its version word; one untracked member
      // would leave a hole in the validation set.
      for (int i = 0; i < set_size_; ++i) {
        if (!set_[i]->elision_tracked()) {
          return false;
        }
      }
      return true;
    case Target::kNone:
      return false;
  }
  return false;
}

void OptiLock::SubscribeOrAbort() {
  if (kind_ == Target::kMutexSet) [[unlikely]] {
    SubscribeSetOrAbort();
    return;
  }
  const htm::Backend backend = htm::CurrentBackend();
  if (backend != htm::Backend::kRtm) [[likely]] {
    if (!SoftwareEligible(backend)) [[unlikely]] {
      // Reachable only when a nested critical section subsumed into an
      // enclosing software transaction wants a target the backend cannot
      // cover. Abort the whole nest; the enclosing episode's retry budget
      // drains and it degrades to the lock, under which this section
      // re-runs pessimistically.
      htm::TxAbort(htm::AbortCode::kExplicit);
    }
    if (kind_ != Target::kRWWrite) [[likely]] {
      // SimTM and sw-OCC subscribe the versioned lock word: every
      // exclusive acquisition bumps it, so validation catches any
      // pessimistic critical section (and any sw-OCC publish) that
      // overlapped this episode.
      const uint64_t word = htm::TxSubscribe(
          kind_ == Target::kMutex ? AsMutex()->OccWord() : AsRW()->OccWord());
      if (htm::OccUnavailable(word)) [[unlikely]] {
        // Exclusive holder mid-section, a starving writer raised the
        // pending flag (writers win: new episodes queue behind), or poison.
        htm::TxAbort(htm::AbortCode::kLockHeld);
      }
      return;
    }
  }
  // RTM reads the Go lock word, as the paper does. A SimTM RWMutex write
  // section reads reader_count_ too, validated by value (SoftwareEligible).
  switch (kind_) {
    case Target::kMutex: {
      const uint64_t state = htm::TxSubscribe(AsMutex()->StateWord());
      if ((state & gosync::Mutex::kLockedBit) != 0) [[unlikely]] {
        htm::TxAbort(htm::AbortCode::kLockHeld);
      }
      return;
    }
    case Target::kRWRead: {
      auto readers =
          static_cast<int64_t>(htm::TxSubscribe(AsRW()->ReaderCountWord()));
      if (readers < 0) [[unlikely]] {  // writer pending or active
        htm::TxAbort(htm::AbortCode::kLockHeld);
      }
      return;
    }
    case Target::kRWWrite: {
      auto readers =
          static_cast<int64_t>(htm::TxSubscribe(AsRW()->ReaderCountWord()));
      if (readers != 0) [[unlikely]] {  // active readers or a writer
        htm::TxAbort(htm::AbortCode::kLockHeld);
      }
      return;
    }
    case Target::kMutexSet:  // routed to SubscribeSetOrAbort above
    case Target::kNone:
      assert(false && "subscription without a prepared target");
      return;
  }
}

void OptiLock::SubscribeSetOrAbort() {
  // One transaction, N subscriptions, in sorted order — the same per-word
  // protocol as the single-lock paths, repeated: any member's slow-path
  // acquisition lands in this transaction's read set and defeats
  // validation, so mutual exclusion holds against every member's other
  // critical sections independently.
  const htm::Backend backend = htm::CurrentBackend();
  const bool rtm = backend == htm::Backend::kRtm;
  if (!rtm && !SoftwareEligible(backend)) {
    // Nested section subsumed into an enclosing software transaction wants
    // a set the backend cannot cover (untracked member). Same recovery as
    // the single-lock case: abort the nest, degrade under the lock.
    htm::TxAbort(htm::AbortCode::kExplicit);
  }
  blamed_member_ = -1;
  set_subscribed_ = 0;
  for (int i = 0; i < set_size_; ++i) {
    gosync::Mutex* m = set_[i];
    const htm::AbortCode injected =
        htm::fault::MaybeInject(htm::fault::Site::kMultiLockSubscribe);
    if (injected != htm::AbortCode::kNone) [[unlikely]] {
      // Forced conflict on the i-th lock of the set (a schedule's skip
      // count picks which member fires). Attribution is exact: the member
      // is recorded before the abort unwinds to the checkpoint.
      blamed_member_ = i;
      htm::TxAbort(injected);
    }
    bool held = false;
    if (rtm) {
      held = (htm::TxSubscribe(m->StateWord()) & gosync::Mutex::kLockedBit) !=
             0;
      set_seen_[i] = m->OccWord()->load(std::memory_order_relaxed);
    } else {
      set_seen_[i] = htm::TxSubscribe(m->OccWord());
      held = htm::OccUnavailable(set_seen_[i]);
    }
    if (held) [[unlikely]] {
      blamed_member_ = i;
      htm::TxAbort(htm::AbortCode::kLockHeld);
    }
    set_subscribed_ = i + 1;
  }
}

int OptiLock::InferBlamedMember() const {
  // Only members this attempt actually subscribed can be compared; an
  // abort before/mid-subscription leaves the tail unseen. First changed
  // member wins — with one conflicting writer (the common case) that is
  // exact; with several it names the lowest-addressed one. The version word
  // moves on every exclusive acquisition whatever the backend.
  for (int i = 0; i < set_subscribed_; ++i) {
    gosync::Mutex* m = set_[i];
    if (m->OccWord()->load(std::memory_order_relaxed) != set_seen_[i] ||
        m->IsLocked()) {
      return i;
    }
  }
  return -1;
}

void OptiLock::AttributeSetAbort() {
  int blamed = blamed_member_;
  if (blamed < 0) {
    blamed = InferBlamedMember();
  }
  if (blamed >= 0) {
    Bump(OptiStats::kMultiLockAbortMemberBase + blamed);
    blamed_member_ = blamed;  // the obs trace names this member's mutex
  } else {
    Bump(OptiStats::kMultiLockAbortsUnattributed);
  }
}

bool OptiLock::TargetHeld() const {
  switch (kind_) {
    case Target::kMutex:
      return AsMutex()->IsLocked();
    case Target::kRWRead:
      return AsRW()->ReaderCountValue() < 0;
    case Target::kRWWrite:
      return AsRW()->ReaderCountValue() != 0;
    case Target::kMutexSet:
      for (int i = 0; i < set_size_; ++i) {
        if (set_[i]->IsLocked()) {
          return true;
        }
      }
      return false;
    case Target::kNone:
      return false;
  }
  return false;
}

void OptiLock::FinishFastEpisode() {
  if (htm::InTx()) [[unlikely]] {
    // Inner commit of a nested elision: defer bookkeeping to the outermost
    // commit (and keep perceptron updates outside the transaction).
    Bump(OptiStats::kNestedFastCommits);
    if (cfg_.trace_episodes) [[unlikely]] {
      // Recording inside the enclosing transaction is safe: ring writes are
      // this thread's own line, so they add no conflict footprint beyond the
      // stat bump above, and if the outer transaction aborts the event rolls
      // back together with the kNestedFastCommits counter — the conservation
      // invariant (events == episode outcome sum) holds either way.
      RecordEpisodeTrace(obs::Outcome::kNestedFastCommit);
    }
  } else {
    Bump(OptiStats::kFastCommits);
    if (kind_ == Target::kMutexSet) [[unlikely]] {
      // The whole set committed as one transaction — the numerator of the
      // OLTP commit rate.
      Bump(OptiStats::kMultiLockFastCommits);
    }
    if (HasFlag(kFlagPredictedHtm)) [[likely]] {
      if (cfg_.use_perceptron) {
        g_perceptron.RewardHtm(indices_);
      }
      const bool hardening =
          cfg_.breaker_threshold > 0 || cfg_.watchdog_threshold > 0;
      if (hardening) [[unlikely]] {
        if (cfg_.breaker_threshold > 0) {
          g_breaker.RecordSuccess(indices_.mutex_cell);
        }
        // Any fast commit ends a storm streak: aborts are flowing again.
        // Only the watchdog reads the streak, and a redundant store of 0
        // would dirty a shared line on every commit, so check first.
        if (cfg_.watchdog_threshold > 0 &&
            g_storm_streak.load(std::memory_order_relaxed) != 0) {
          g_storm_streak.store(0, std::memory_order_relaxed);
        }
      } else if (!HasFlag(kFlagSiteCacheHit)) {
        // A committed speculation is the proof an elide verdict wants:
        // memoize it for this site under the episode's epoch. Hits never
        // re-install (the cell already says exactly this), so the steady
        // state writes nothing.
        g_site_cache.Install(indices_.mutex_cell, cache_epoch_,
                             SiteCache::kElide,
                             static_cast<uint32_t>(htm::CurrentBackend()));
        Bump(OptiStats::kSiteCacheInstalls);
      }
    }
    if (cfg_.trace_episodes) [[unlikely]] {
      RecordEpisodeTrace(obs::Outcome::kFastCommit);
    }
  }
  ResetEpisode();
}

void OptiLock::FinishSlowEpisode() {
  if (HasFlag(kFlagPredictedHtm)) {
    if (cfg_.use_perceptron) {
      // The perceptron said HTM but the episode ended on the lock: penalize
      // (Listing 19: "if htm fails, decrease perceptron weights").
      g_perceptron.PenalizeHtm(indices_);
    }
    // The elide verdict (cached or fresh) failed: evict the cell so the
    // next episode re-derives its decision against the newly-penalized
    // weights instead of replaying a prediction the world just refuted.
    if (g_site_cache.Invalidate(indices_.mutex_cell)) {
      Bump(OptiStats::kSiteCacheInvalidations);
    }
  }
  if (HasFlag(kFlagPredictedHtm) && HasFlag(kFlagExhausted)) {
    // The episode burned its whole retry budget on aborts — the outcome the
    // breaker quarantines per pair and the watchdog aggregates per process.
    if (cfg_.breaker_threshold > 0 &&
        g_breaker.RecordFailure(indices_.mutex_cell, episode_now_,
                                cfg_.breaker_threshold,
                                cfg_.breaker_cooldown_episodes)) {
      Bump(OptiStats::kBreakerTrips);
      // Escalate to any registered layer above (service shard health): a
      // trip is the runtime's strongest per-mutex distress signal, and the
      // listener gets the same mutex attribution the episode trace uses.
      if (BreakerTripListener listener =
              g_breaker_trip_listener.load(std::memory_order_acquire)) {
        const void* tripped = target_;
        if (kind_ == Target::kMutexSet && blamed_member_ >= 0) [[unlikely]] {
          tripped = set_[blamed_member_];
        }
        listener(tripped, episode_now_);
      }
    }
    if (cfg_.watchdog_threshold > 0) {
      uint64_t streak =
          g_storm_streak.fetch_add(1, std::memory_order_relaxed) + 1;
      if (streak >= static_cast<uint64_t>(cfg_.watchdog_threshold)) {
        g_storm_streak.store(0, std::memory_order_relaxed);
        g_slow_only_until.store(
            episode_now_ + cfg_.watchdog_cooldown_episodes,
            std::memory_order_relaxed);
        Bump(OptiStats::kWatchdogTrips);
        // A tripped watchdog means every cached verdict was learned in a
        // regime that just declared a storm; retire them all.
        g_site_cache.BumpEpoch();
        // A process-wide storm is also the signature of RTM dying mid-run;
        // re-probe the latched hardware verdict and demote to sw-OCC if the
        // transactions really stopped committing. Same shared probe budget
        // as the breaker path: back-to-back watchdog trips during one storm
        // probe once per GOCC_REPROBE_MS, not once per trip.
        if (RtmReprobeGate().Due() && htm::ReprobeRtmHealth()) {
          Bump(OptiStats::kRtmDemotions);
        }
      }
    }
  }
  if (HasFlag(kFlagOccFallback)) {
    Bump(OptiStats::kOccFallbacks);
  }
  if (cfg_.trace_episodes) {
    RecordEpisodeTrace(HasFlag(kFlagOccFallback) ? obs::Outcome::kOccFallback
                                                 : obs::Outcome::kSlowAcquire);
  }
  ResetEpisode();
}

void OptiLock::RecordEpisodeTrace(obs::Outcome outcome) {
  // Duration spans lock acquisition through release — the paper's notion of
  // critical-section time (what a pprof mutex profile would attribute to
  // the function owning the section). Multi-lock episodes that aborted name
  // the blamed member's mutex (the word that killed the transaction) so the
  // trace's abort attribution survives into the export; otherwise the
  // lowest-addressed member stands for the set.
  const void* traced = target_;
  if (kind_ == Target::kMutexSet && blamed_member_ >= 0) [[unlikely]] {
    traced = set_[blamed_member_];
  }
  const uint64_t now = obs::NowTicks();
  obs::RecordEpisode(obs::CurrentSite(), obs::MutexId(traced), outcome,
                     obs_last_abort_, obs_retries_, obs_start_ticks_,
                     now - obs_start_ticks_);
}

void OptiLock::ResetEpisode() {
  uint32_t keep = 0;
  if (HasFlag(kFlagBackendPinned)) {
    if (!htm::InTx()) {
      // Outermost episode is done and its substrate is quiescent: let the
      // thread's next Tx op follow the (possibly demoted) global backend
      // again. Nested episodes never pin, so a pin always outlives the
      // whole flattened nest.
      htm::UnpinThreadBackend();
    } else {
      // Still inside the (cancelled-later / enclosing) transaction: the pin
      // must survive until the outermost episode resets.
      keep = kFlagBackendPinned;
    }
  }
  target_ = nullptr;
  kind_ = Target::kNone;
  owner_ = nullptr;
  flags_ = keep;
  backoff_exponent_ = 0;
  episode_now_ = 0;
}

void OptiLock::HandleUnlockMisuse(Target requested, void* passed) {
  if (kind_ == Target::kNone) {
    // No episode in flight on this OptiLock: the unlock is unpaired.
    support::ReportMisuse(support::MisuseKind::kUnpairedUnlock,
                          cfg_.misuse_policy, this, "unlock-with-no-episode");
    RecoverUnpairedUnlock(requested, passed);
    return;
  }
  if (owner_ != ThreadAnchor()) {
    // A fast-path episode belongs to the thread that opened it — the
    // transaction, checkpoint, and retry state are all thread-local, so a
    // foreign thread can neither commit nor abort it. Recovery leaves the
    // owner's episode untouched; this call site gets nothing.
    support::ReportMisuse(support::MisuseKind::kCrossThreadUnlock,
                          cfg_.misuse_policy, this,
                          "fast-unlock-from-foreign-thread");
    return;
  }
  // Same thread, episode open, wrong target or mode: the paper's
  // transactional mismatch recovery (Appendix C) — not programmer misuse in
  // the §4.9 taxonomy, so it is counted by mismatch_recoveries, not the
  // misuse counters. Control re-enters FastLock via the checkpoint.
  htm::TxAbort(htm::AbortCode::kMutexMismatch);
}

void OptiLock::RecoverUnpairedUnlock(Target requested, void* passed) {
  // Mirror untransformed Go where it is well-defined: unlocking a mutex
  // held by another goroutine is the legal handoff pattern, so release iff
  // observably held. An unlock of an un-held lock would panic in Go; here
  // it stays a counted no-op. Inside an enclosing elided transaction the
  // lock word reads unlocked (it is elided), so recovery correctly degrades
  // to count-only.
  switch (requested) {
    case Target::kMutex: {
      auto* m = static_cast<gosync::Mutex*>(passed);
      if (m->IsLocked()) {
        m->Unlock();
      }
      return;
    }
    case Target::kRWRead: {
      auto* rw = static_cast<gosync::RWMutex*>(passed);
      if (rw->ReaderCountValue() > 0) {
        rw->RUnlock();
      }
      return;
    }
    case Target::kRWWrite: {
      auto* rw = static_cast<gosync::RWMutex*>(passed);
      if (rw->ReaderCountValue() < 0) {
        rw->Unlock();
      }
      return;
    }
    case Target::kMutexSet:
      // An unpaired set unlock names no caller set to release (the no-arg
      // overload reports before reaching here); count-only.
      return;
    case Target::kNone:
      return;
  }
}

void OptiLock::AbandonEpisode() noexcept {
  if (kind_ == Target::kNone) {
    return;  // no episode in flight — safe to call from shared cleanup
  }
  if (HasFlag(kFlagSlowPath)) {
    // Release the lock in the mode the episode actually acquired.
    switch (kind_) {
      case Target::kMutex:
        AsMutex()->Unlock();
        break;
      case Target::kRWRead:
        AsRW()->RUnlock();
        break;
      case Target::kRWWrite:
        AsRW()->Unlock();
        break;
      case Target::kMutexSet:
        // Reverse-sorted release of the whole held set, watermark popped —
        // an unwind mid-set leaks no member lock.
        ReleaseSetSlow();
        break;
      case Target::kNone:
        break;
    }
    Bump(OptiStats::kUnwindSlowUnlocks);
    if (cfg_.trace_episodes) {
      RecordEpisodeTrace(obs::Outcome::kUnwind);
    }
    ResetEpisode();
    return;
  }
  // Fast path: cancel the transaction in place — rollback plus abort
  // accounting without the longjmp — so the in-flight exception keeps
  // unwinding and destructors run. Every buffered critical-section write is
  // discarded; the caller observes a section that never executed. In a
  // flattened nest this cancels the whole transaction (RTM semantics: an
  // abort anywhere rolls back to the outermost begin); the enclosing
  // episodes' AbandonEpisode calls then find no transaction and no-op at
  // the substrate. Not an episode abort in OptiStats terms (nothing was
  // delivered to a retry loop), so episode_aborts is untouched and the
  // perceptron is not trained.
  htm::TxCancel(htm::AbortCode::kExplicit);
  Bump(OptiStats::kUnwindCancels);
  if (cfg_.trace_episodes) {
    RecordEpisodeTrace(obs::Outcome::kUnwind);
  }
  ResetEpisode();
}

void OptiLock::FastUnlock(gosync::Mutex* m) {
  if (HasFlag(kFlagSlowPath)) [[unlikely]] {
    if (owner_ != ThreadAnchor()) {
      // Foreign-thread release of a slow-path episode: the unlock itself is
      // Go's legal handoff, but the episode bookkeeping was another
      // thread's; count it and proceed.
      support::ReportMisuse(support::MisuseKind::kCrossThreadUnlock,
                            cfg_.misuse_policy, this,
                            "slow-unlock-from-foreign-thread");
    }
    // Unlock the mutex the program passed (identical to the untransformed
    // code even when it differs from the one recorded at FastLock).
    m->Unlock();
    FinishSlowEpisode();
    return;
  }
  if (kind_ != Target::kMutex || m != AsMutex() || owner_ != ThreadAnchor()) {
    HandleUnlockMisuse(Target::kMutex, m);
    return;
  }
  htm::TxCommit();  // validation failure re-enters FastLock via the checkpoint
  FinishFastEpisode();
}

void OptiLock::FastRUnlock(gosync::RWMutex* m) {
  if (HasFlag(kFlagSlowPath)) [[unlikely]] {
    if (owner_ != ThreadAnchor()) {
      support::ReportMisuse(support::MisuseKind::kCrossThreadUnlock,
                            cfg_.misuse_policy, this,
                            "slow-unlock-from-foreign-thread");
    }
    if (m == AsRW() && kind_ == Target::kRWWrite) {
      // Same lock, wrong mode: the episode holds the WRITE lock. Releasing
      // the mode actually held keeps the lock word sound; the requested
      // mode is what the (buggy) program asked for, counted as misuse.
      support::ReportMisuse(support::MisuseKind::kWrongModeUnlock,
                            cfg_.misuse_policy, m, "r-unlock-of-w-episode");
      m->Unlock();
    } else {
      m->RUnlock();
    }
    FinishSlowEpisode();
    return;
  }
  if (kind_ != Target::kRWRead || m != AsRW() || owner_ != ThreadAnchor()) {
    HandleUnlockMisuse(Target::kRWRead, m);
    return;
  }
  htm::TxCommit();
  FinishFastEpisode();
}

void OptiLock::FastWUnlock(gosync::RWMutex* m) {
  if (HasFlag(kFlagSlowPath)) [[unlikely]] {
    if (owner_ != ThreadAnchor()) {
      support::ReportMisuse(support::MisuseKind::kCrossThreadUnlock,
                            cfg_.misuse_policy, this,
                            "slow-unlock-from-foreign-thread");
    }
    if (m == AsRW() && kind_ == Target::kRWRead) {
      // Same lock, wrong mode: the episode holds a READ lock; a writer
      // unlock would corrupt readerCount. Release what is held.
      support::ReportMisuse(support::MisuseKind::kWrongModeUnlock,
                            cfg_.misuse_policy, m, "w-unlock-of-r-episode");
      m->RUnlock();
    } else {
      m->Unlock();
    }
    FinishSlowEpisode();
    return;
  }
  if (kind_ != Target::kRWWrite || m != AsRW() || owner_ != ThreadAnchor()) {
    HandleUnlockMisuse(Target::kRWWrite, m);
    return;
  }
  htm::TxCommit();
  FinishFastEpisode();
}

void OptiLock::FastUnlockSet() {
  if (kind_ == Target::kMutex) [[unlikely]] {
    // Degenerate one-lock set (PrepareMutexSet degraded to the single-lock
    // trajectory); pair it with the single-lock unlock.
    FastUnlock(AsMutex());
    return;
  }
  if (kind_ != Target::kMutexSet) [[unlikely]] {
    // No set episode in flight on this OptiLock. Unlike the single-lock
    // unpaired recovery there is no caller-passed lock to release (this
    // overload names nothing), so recovery is count-only; a stranded
    // non-set episode is recovered at its own unlock or the next FastLock.
    support::ReportMisuse(support::MisuseKind::kUnpairedUnlock,
                          cfg_.misuse_policy, this,
                          "set-unlock-with-no-set-episode");
    return;
  }
  if (HasFlag(kFlagSlowPath)) [[unlikely]] {
    if (owner_ != ThreadAnchor()) {
      // A multi-lock episode's sorted hold set is this thread's episode
      // state; releasing it from a foreign thread would unlock mutexes the
      // caller may not hold. Report and leave the owner's episode intact.
      support::ReportMisuse(support::MisuseKind::kCrossThreadUnlock,
                            cfg_.misuse_policy, this,
                            "set-unlock-from-foreign-thread");
      return;
    }
    ReleaseSetSlow();
    Bump(OptiStats::kMultiLockSlowAcquires);
    FinishSlowEpisode();
    return;
  }
  if (owner_ != ThreadAnchor()) {
    support::ReportMisuse(support::MisuseKind::kCrossThreadUnlock,
                          cfg_.misuse_policy, this,
                          "set-unlock-from-foreign-thread");
    return;
  }
  const htm::AbortCode injected =
      htm::fault::MaybeInject(htm::fault::Site::kMultiLockCommit);
  if (injected != htm::AbortCode::kNone) [[unlikely]] {
    // Injected commit-time conflict: every subscription succeeded, so
    // attribution exercises the inference path (which member's word moved).
    htm::TxAbort(injected);
  }
  htm::TxCommit();  // validation failure re-enters FastLock via the checkpoint
  FinishFastEpisode();
}

bool OptiLock::SetMatchesEpisode(gosync::Mutex* const* mutexes,
                                 int count) const {
  if (count < 1 || count > kMaxLockSet) {
    return false;
  }
  // Mark-off against the episode's sorted members: every caller entry must
  // be a member (duplicates allowed — Prepare deduplicated them) and every
  // member must be named at least once.
  bool named[kMaxLockSet] = {};
  for (int i = 0; i < count; ++i) {
    bool found = false;
    for (int j = 0; j < set_size_; ++j) {
      if (set_[j] == mutexes[i]) {
        named[j] = true;
        found = true;
        break;
      }
    }
    if (!found) {
      return false;
    }
  }
  for (int j = 0; j < set_size_; ++j) {
    if (!named[j]) {
      return false;
    }
  }
  return true;
}

void OptiLock::FastUnlockSet(gosync::Mutex* const* mutexes, int count) {
  if ((kind_ == Target::kMutexSet || kind_ == Target::kMutex) &&
      owner_ == ThreadAnchor() && !SetMatchesEpisode(mutexes, count))
      [[unlikely]] {
    if (!HasFlag(kFlagSlowPath)) {
      // Same recovery as a single-lock wrong-target unlock: the episode's
      // transactional effects roll back and the section re-runs under the
      // lock, behaviourally identical to the untransformed program.
      htm::TxAbort(htm::AbortCode::kMutexMismatch);
    }
    // Slow path: the episode releases what it actually holds (its recorded
    // sorted set) — releasing the caller's differing claim could unlock
    // mutexes this thread never acquired. Counted like other mismatches.
    Bump(OptiStats::kMismatchRecoveries);
  }
  FastUnlockSet();
}

}  // namespace gocc::optilib
