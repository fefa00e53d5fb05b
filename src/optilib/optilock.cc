#include "src/optilib/optilock.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>

#include "src/gosync/runtime.h"
#include "src/htm/config.h"
#include "src/htm/fault.h"
#include "src/htm/swocc.h"
#include "src/obs/recorder.h"
#include "src/obs/ticks.h"
#include "src/support/env.h"
#include "src/support/misuse.h"
#include "src/support/rng.h"

namespace gocc::optilib {
namespace {

// Live configuration: one lock-free atomic word, written only by
// PublishOptiConfig. Seeded with OptiConfig{} on first use, so the
// env-derived default (GOCC_OBS_TRACE) resolves when the runtime first needs
// a config, like any other default-constructed OptiConfig.
std::atomic<OptiConfig>& LiveConfig() {
  static std::atomic<OptiConfig> config{OptiConfig{}};
  return config;
}

OptiStats g_stats;
Perceptron g_perceptron;

// Decision epoch (DESIGN.md §4.11): every cached elide verdict in the
// perceptron's mutex cells carries the epoch it was minted under, and any
// event that could change a verdict (PublishOptiConfig,
// ResetHardeningState) bumps it, retiring every verdict in O(1). The epoch
// is monotone and never reused; 0 is the never-valid sentinel, so it starts
// at 1. The same epoch keys each OptiLock's config snapshot. Every episode
// reads it and only a publish writes it, so it owns its line.
struct alignas(64) DecisionEpoch {
  std::atomic<uint64_t> value{1};

  // Acquire: a reader that observes a new epoch also observes the (config)
  // writes published before the bump.
  uint64_t Load() const { return value.load(std::memory_order_acquire); }
  // Release pairs with Load()'s acquire, so the bump is ordered after the
  // state change it reports.
  void Bump() { value.fetch_add(1, std::memory_order_release); }
};
DecisionEpoch g_decision_epoch;

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

OptiConfig GetOptiConfig() { return LiveConfig().load(); }

void PublishOptiConfig(const OptiConfig& next) {
  LiveConfig().store(next);
  // Ordered after the store (release bump / acquire epoch read): an episode
  // that starts under the new epoch re-snapshots and sees the new config;
  // one that raced and kept the old epoch keeps the old verdicts with the
  // old config — coherent either way. Concurrent publishers need no
  // serialization: each bump follows its own store, so an episode that
  // observes the final epoch reads the last config stored.
  g_decision_epoch.Bump();
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

void ResetHardeningState() { g_decision_epoch.Bump(); }

uint64_t SiteDecisionCacheEpoch() { return g_decision_epoch.Load(); }

// Every OptiLock function an episode runs (prepare, decide, attempt,
// subscribe, abort handling, backoff, slow path, finish, unlock) is
// [[gnu::hot]]: GCC emits them into .text.hot, which the linker places
// ahead of the rest of the text beside main and the static initializers, so
// a program's lock path runs from a few contiguous pages instead of being
// interleaved with this file's cold paths (stats rendering, misuse
// recovery, AbandonEpisode, tracing). Keep new episode-path functions hot:
// spread through this file's text, the path needs one more 64 KiB
// fault-around window than start-up maps in 4 of the 16 load alignments,
// which makes perfbench's peak_rss_mb bimodal.
[[gnu::hot]] void OptiLock::PrepareCommon() {
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
      support::ReportMisuse(support::MisuseKind::kDoubleFastLock, this,
                            "fast-lock-while-episode-open");
      AbandonEpisode();
    }
  }
  // Decision epoch for this episode: keys the site-cache consult and the
  // config snapshot. The acquire read pairs with the release bump at the end
  // of PublishOptiConfig, so observing a new epoch implies the new config
  // word is visible. Every publish bumps the epoch, so the snapshot is
  // re-read only when it has moved and the steady state pays one compare.
  const uint64_t epoch = g_decision_epoch.Load();
  if (epoch != cache_epoch_) [[unlikely]] {
    cfg_ = GetOptiConfig();
    cache_epoch_ = epoch;
  }
  owner_ = ThreadAnchor();
  flags_ = 0;
  attempts_left_ = kMaxAttempts;
  conflict_retries_left_ = cfg_.conflict_retries;
  occ_retries_left_ = kOccMaxRetries;
  backoff_exponent_ = 0;
  obs_retries_ = 0;
  obs_last_abort_ = htm::AbortCode::kNone;
  if (cfg_.trace_episodes) {
    obs_start_ticks_ = obs::NowTicks();
  }
}

[[gnu::hot]] void OptiLock::PrepareMutex(gosync::Mutex* m) {
  PrepareCommon();
  target_ = m;
  kind_ = Target::kMutex;
}

[[gnu::hot]] void OptiLock::PrepareRead(gosync::RWMutex* m) {
  PrepareCommon();
  target_ = m;
  kind_ = Target::kRWRead;
}

[[gnu::hot]] void OptiLock::PrepareWrite(gosync::RWMutex* m) {
  PrepareCommon();
  target_ = m;
  kind_ = Target::kRWWrite;
}

[[gnu::hot]] void OptiLock::PrepareMutexSet(gosync::Mutex* const* mutexes,
                                           int count) {
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
  // Sorted and deduplicated: the fast path subscribes each member once, in
  // the order the slow path acquires them.
  const int n = SortedUniqueLockSet(mutexes, count, set_);
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
}

[[gnu::hot]] void OptiLock::FastLockStep(int setjmp_code) {
  if (setjmp_code != 0) {
    HandleAbort(static_cast<htm::AbortCode>(setjmp_code));
  }
  AttemptLoop();
  // Episode established (transaction open or slow lock held): record the
  // thread's abort epoch so PrepareCommon can tell "an abort unwound past
  // this episode" from a genuine double FastLock.
  abort_epoch_ = t_abort_epoch;
}

[[gnu::hot]] void OptiLock::HandleAbort(htm::AbortCode code) {
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
        SetFlag(kFlagForceSlow);
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
      // Retry on a separate budget (kOccMaxRetries) with jittered backoff;
      // when it runs dry the episode pins itself to the real lock — the
      // livelock guard — and the slow finish penalizes the perceptron like
      // any other failed speculation.
      if (occ_retries_left_-- <= 0) {
        SetFlag(kFlagForceSlow | kFlagOccFallback);
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
        SetFlag(kFlagForceSlow);
      } else {
        BackoffBeforeRetry();
      }
      return;
  }
}

[[gnu::hot]] void OptiLock::BackoffBeforeRetry() {
  int64_t limit = kBackoffBasePauses;
  for (int i = 0; i < backoff_exponent_ && limit < kBackoffCapPauses; ++i) {
    limit <<= 1;
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

[[gnu::hot]] void OptiLock::AttemptLoop() {
  while (true) {
    if (htm::InTx()) [[unlikely]] {
      // Already executing transactionally (nested transformed critical
      // section). Subsume into the enclosing transaction — RTM flattening —
      // and subscribe to this lock too. Taking a real lock inside a
      // transaction is never attempted.
      htm::TxBeginImpl(0, &env_);
      const htm::Backend backend = htm::ActiveBackend();
      if (backend != htm::Backend::kRtm && !SoftwareEligible(backend))
          [[unlikely]] {
        // The one way an episode reaches a target its software backend
        // cannot cover (an untracked mutex or set member, or an RWMutex
        // write section under sw-OCC): this branch skips DecideElide.
        // Abort the whole nest; the enclosing episode's retry budget drains
        // and it degrades to the lock, under which this section re-runs
        // pessimistically.
        htm::TxAbort(htm::AbortCode::kExplicit);
      }
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
    for (int i = 0; i < kSpinPausesWhileLocked && TargetHeld(); ++i) {
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

[[gnu::hot]] bool OptiLock::DecideElide() {
  if (gosync::MaxProcs() <= 1) [[unlikely]] {
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
  // Per-site decision cache (perceptron.h): an elide verdict memoized in
  // this site's mutex cell by an earlier commit stands in for the
  // perceptron consult; the episode still checks eligibility, attempts,
  // subscribes and validates a real transaction, and its commit still
  // rewards the perceptron, so a stale verdict costs at most one wasted
  // attempt, never soundness. Lock verdicts are never cached: every slow
  // decision runs the dot-product, so a site goes back to speculating as
  // soon as its summed weights do, and every one feeds the slow-streak
  // decay (§5.4.1).
  const bool cached_elide = g_perceptron.HoldsElide(indices_, cache_epoch_);
  if (cached_elide) [[likely]] {
    Bump(OptiStats::kSiteCacheHits);
  } else if (cfg_.use_perceptron && !g_perceptron.Predict(indices_)) {
    Bump(OptiStats::kPerceptronSlowDecisions);
    if (g_perceptron.NoteSlowDecision(indices_)) {
      Bump(OptiStats::kPerceptronResets);
    }
    TakeSlowPath();
    return false;
  }
  // The backend is process-wide and switched only while no episode is in
  // flight (htm/config.h), so every substrate call of this episode lands
  // on the one read here.
  const htm::Backend backend = htm::ActiveBackend();
  if (backend != htm::Backend::kRtm && !SoftwareEligible(backend))
      [[unlikely]] {
    // The software backend cannot soundly elide this target (untracked
    // mutex, or an RWMutex write section under sw-OCC; on a cached elide,
    // a hash collision aliasing an ineligible site onto an elide cell, or
    // a verdict minted under another backend); the lock is the correct
    // degradation.
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
inline void CheckSlowLockOrder(gosync::Mutex* m) {
  if (t_lock_order_depth > 0 &&
      reinterpret_cast<uintptr_t>(m) < t_lock_order_watermark &&
      m->elision_tracked()) [[unlikely]] {
    support::ReportMisuse(support::MisuseKind::kLockOrderInversion, m,
                          "slow-acquire-below-held-multilock-watermark");
  }
}
}  // namespace

[[gnu::hot]] void OptiLock::TakeSlowPath() {
  SetFlag(kFlagSlowPath);
  Bump(OptiStats::kSlowAcquires);
  switch (kind_) {
    case Target::kMutex:
      // Recovery for a detected inversion is to proceed in the requested
      // order — the untransformed program's behaviour (the report is the
      // value; refusing the lock would turn a latent bug into a new one).
      CheckSlowLockOrder(AsMutex());
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

[[gnu::hot]] void OptiLock::AcquireSetSlow() {
  // Sorted 2PL fallback: members were sorted by address at Prepare, so all
  // concurrent fallbacks (and every other sorted acquirer) agree on one
  // global acquisition order — the cyclic-wait condition for deadlock can
  // never form among them (DESIGN.md §4.12 carries the argument).
  saved_watermark_ = t_lock_order_watermark;
  for (int i = 0; i < set_size_; ++i) {
    // Against the *outer* watermark: a nested set whose lowest member sits
    // below an enclosing set's ceiling is a real inversion; members above
    // it extend the order monotonically.
    CheckSlowLockOrder(set_[i]);
    set_[i]->Lock();
  }
  const auto ceiling = reinterpret_cast<uintptr_t>(set_[set_size_ - 1]);
  if (ceiling > t_lock_order_watermark) {
    t_lock_order_watermark = ceiling;
  }
  ++t_lock_order_depth;
}

[[gnu::hot]] void OptiLock::ReleaseSetSlow() {
  for (int i = set_size_ - 1; i >= 0; --i) {
    set_[i]->Unlock();
  }
  t_lock_order_watermark = saved_watermark_;
  --t_lock_order_depth;
}

[[gnu::hot]] bool OptiLock::SoftwareEligible(htm::Backend backend) const {
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

[[gnu::hot]] void OptiLock::SubscribeOrAbort() {
  if (kind_ == Target::kMutexSet) [[unlikely]] {
    SubscribeSetOrAbort();
    return;
  }
  // Eligibility was settled once per episode (DecideElide, or the nested
  // branch of AttemptLoop), and the backend cannot change mid-episode.
  if (htm::ActiveBackend() != htm::Backend::kRtm) [[likely]] {
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

[[gnu::hot]] void OptiLock::SubscribeSetOrAbort() {
  // One transaction, N subscriptions, in sorted order — the same per-word
  // protocol as the single-lock paths, repeated: any member's slow-path
  // acquisition lands in this transaction's read set and defeats
  // validation, so mutual exclusion holds against every member's other
  // critical sections independently.
  const bool rtm = htm::ActiveBackend() == htm::Backend::kRtm;
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

[[gnu::hot]] int OptiLock::InferBlamedMember() const {
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

[[gnu::hot]] void OptiLock::AttributeSetAbort() {
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

[[gnu::hot]] bool OptiLock::TargetHeld() const {
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

[[gnu::hot]] void OptiLock::FinishFastEpisode() {
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
      if (!HasFlag(kFlagSiteCacheHit)) {
        // A committed speculation is the proof an elide verdict wants:
        // memoize it for this site under the episode's epoch. Hits never
        // re-install (the cell already says exactly this), so the steady
        // state writes nothing.
        g_perceptron.InstallElide(indices_, cache_epoch_);
        Bump(OptiStats::kSiteCacheInstalls);
      }
    }
    if (cfg_.trace_episodes) [[unlikely]] {
      RecordEpisodeTrace(obs::Outcome::kFastCommit);
    }
  }
  ResetEpisode();
}

[[gnu::hot]] void OptiLock::FinishSlowEpisode() {
  if (HasFlag(kFlagPredictedHtm)) {
    if (cfg_.use_perceptron) {
      // The perceptron said HTM but the episode ended on the lock: penalize
      // (Listing 19: "if htm fails, decrease perceptron weights").
      g_perceptron.PenalizeHtm(indices_);
    }
    // The elide verdict (cached or fresh) failed: evict the cell so the
    // next episode re-derives its decision against the newly-penalized
    // weights instead of replaying a prediction the world just refuted.
    if (g_perceptron.InvalidateElide(indices_, cache_epoch_)) {
      Bump(OptiStats::kSiteCacheInvalidations);
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

[[gnu::hot]] void OptiLock::ResetEpisode() {
  target_ = nullptr;
  kind_ = Target::kNone;
  owner_ = nullptr;
  flags_ = 0;
  backoff_exponent_ = 0;
}

void OptiLock::HandleUnlockMisuse(Target requested, void* passed) {
  if (kind_ == Target::kNone) {
    // No episode in flight on this OptiLock: the unlock is unpaired.
    support::ReportMisuse(support::MisuseKind::kUnpairedUnlock, this,
                          "unlock-with-no-episode");
    RecoverUnpairedUnlock(requested, passed);
    return;
  }
  if (owner_ != ThreadAnchor()) {
    // A fast-path episode belongs to the thread that opened it — the
    // transaction, checkpoint, and retry state are all thread-local, so a
    // foreign thread can neither commit nor abort it. Recovery leaves the
    // owner's episode untouched; this call site gets nothing.
    support::ReportMisuse(support::MisuseKind::kCrossThreadUnlock, this,
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

[[gnu::hot]] void OptiLock::FastUnlock(gosync::Mutex* m) {
  if (HasFlag(kFlagSlowPath)) [[unlikely]] {
    if (owner_ != ThreadAnchor()) {
      // Foreign-thread release of a slow-path episode: the unlock itself is
      // Go's legal handoff, but the episode bookkeeping was another
      // thread's; count it and proceed.
      support::ReportMisuse(support::MisuseKind::kCrossThreadUnlock, this,
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

[[gnu::hot]] void OptiLock::FastRUnlock(gosync::RWMutex* m) {
  if (HasFlag(kFlagSlowPath)) [[unlikely]] {
    if (owner_ != ThreadAnchor()) {
      support::ReportMisuse(support::MisuseKind::kCrossThreadUnlock, this,
                            "slow-unlock-from-foreign-thread");
    }
    if (m == AsRW() && kind_ == Target::kRWWrite) {
      // Same lock, wrong mode: the episode holds the WRITE lock. Releasing
      // the mode actually held keeps the lock word sound; the requested
      // mode is what the (buggy) program asked for, counted as misuse.
      support::ReportMisuse(support::MisuseKind::kWrongModeUnlock, m,
                            "r-unlock-of-w-episode");
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

[[gnu::hot]] void OptiLock::FastWUnlock(gosync::RWMutex* m) {
  if (HasFlag(kFlagSlowPath)) [[unlikely]] {
    if (owner_ != ThreadAnchor()) {
      support::ReportMisuse(support::MisuseKind::kCrossThreadUnlock, this,
                            "slow-unlock-from-foreign-thread");
    }
    if (m == AsRW() && kind_ == Target::kRWRead) {
      // Same lock, wrong mode: the episode holds a READ lock; a writer
      // unlock would corrupt readerCount. Release what is held.
      support::ReportMisuse(support::MisuseKind::kWrongModeUnlock, m,
                            "w-unlock-of-r-episode");
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

[[gnu::hot]] void OptiLock::FastUnlockSet() {
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
    support::ReportMisuse(support::MisuseKind::kUnpairedUnlock, this,
                          "set-unlock-with-no-set-episode");
    return;
  }
  if (HasFlag(kFlagSlowPath)) [[unlikely]] {
    if (owner_ != ThreadAnchor()) {
      // A multi-lock episode's sorted hold set is this thread's episode
      // state; releasing it from a foreign thread would unlock mutexes the
      // caller may not hold. Report and leave the owner's episode intact.
      support::ReportMisuse(support::MisuseKind::kCrossThreadUnlock, this,
                            "set-unlock-from-foreign-thread");
      return;
    }
    ReleaseSetSlow();
    Bump(OptiStats::kMultiLockSlowAcquires);
    FinishSlowEpisode();
    return;
  }
  if (owner_ != ThreadAnchor()) {
    support::ReportMisuse(support::MisuseKind::kCrossThreadUnlock, this,
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

[[gnu::hot]] bool OptiLock::SetMatchesEpisode(gosync::Mutex* const* mutexes,
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

[[gnu::hot]] void OptiLock::FastUnlockSet(gosync::Mutex* const* mutexes,
                                         int count) {
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
