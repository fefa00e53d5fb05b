// OptiLock — the paper's adaptive transactional lock-elision runtime (§5.4,
// Appendix D).
//
// A transformed critical section declares a stack OptiLock and brackets the
// region with FastLock/FastUnlock. FastLock consults the perceptron, then
// either (a) starts a hardware transaction that *subscribes* to the elided
// lock word — any slow-path acquisition aborts the transaction, preserving
// mutual exclusion — or (b) falls back to acquiring the original lock.
// FastUnlock commits (fast path) or unlocks (slow path), verifies the mutex
// passed in matches the one recorded at FastLock (recovering from
// programmer-unintended pairings such as hand-over-hand locking, §5.2.3),
// and trains the perceptron.
//
// Two equivalent embeddings are provided:
//
//   gocc::optilib::OptiLock ol;              // paper-textual shape
//   OPTI_FAST_LOCK(ol, &mu);
//   ... critical section ...
//   ol.FastUnlock(&mu);
//
//   ol.WithLock(&mu, [&] { ... });           // idiomatic C++
//
// The macro plants the transaction checkpoint (setjmp for SimTM; real RTM
// uses its hardware checkpoint) in the caller's frame so an abort anywhere
// in the critical section re-executes it. The SimTM caveats from htm/tx.h
// apply to code between FastLock and FastUnlock.
//
// An OptiLock holds goroutine-local episode state and must not be shared by
// concurrent critical sections; declare it on the stack of each goroutine
// (the transformer does exactly this, § 5.3 "anonymous goroutines").

#ifndef GOCC_SRC_OPTILIB_OPTILOCK_H_
#define GOCC_SRC_OPTILIB_OPTILOCK_H_

#include <array>
#include <atomic>
#include <csetjmp>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "src/gosync/mutex.h"
#include "src/gosync/rwmutex.h"
#include "src/htm/abort.h"
#include "src/htm/stats.h"
#include "src/htm/tx.h"
#include "src/obs/event.h"
#include "src/optilib/perceptron.h"
#include "src/support/counter_table.h"
#include "src/support/sharded.h"

namespace gocc::optilib {

// Runtime policy knobs (defaults follow the paper; the ablation benchmarks
// sweep them). Eight bytes with no padding, so the live configuration is one
// lock-free atomic word (PublishOptiConfig). The retry and spin bounds the
// paper keeps as constants are constants here too (OptiLock::kMaxAttempts,
// kSpinPausesWhileLocked, kOccMaxRetries).
struct OptiConfig {
  // Gate HTM attempts behind the hashed perceptron (§5.4.1).
  bool use_perceptron = true;
  // Skip HTM entirely when GOMAXPROCS==1 (§5.4.2).
  bool single_proc_bypass = true;

  // Episode trace recorder (src/obs): when true, every completed episode
  // appends one compact event (site, mutex, outcome, last abort, retries,
  // TSC duration) to the calling thread's obs ring buffer. Off by default;
  // the GOCC_OBS_TRACE environment variable flips the process-wide default
  // so any binary can be traced without code changes. With the flag off the
  // fast path pays one predicted branch on the episode's config snapshot
  // and no shared-line writes (the §6.2 perf-smoke gate covers this).
  bool trace_episodes = DefaultTraceEpisodes();
  static bool DefaultTraceEpisodes();

  // Extra retries after conflict/capacity/spurious aborts (paper: 0 — any
  // non-LockHeld abort falls back to the lock immediately).
  uint8_t conflict_retries = 0;

  // Bounded exponential backoff with deterministic jitter before retrying a
  // conflict-class abort (applies only while conflict_retries remain, so the
  // paper's default of immediate fallback is unchanged) or a sw-OCC
  // validation failure. Each retry waits a jittered [limit/2, limit]
  // pause-spins, with limit doubling from backoff_base_pauses up to
  // backoff_cap_pauses. 0 disables the wait.
  uint16_t backoff_base_pauses = 16;
  uint16_t backoff_cap_pauses = 2048;
};
static_assert(sizeof(OptiConfig) == 8, "OptiConfig is one 8-byte word");
static_assert(std::atomic<OptiConfig>::is_always_lock_free,
              "the live OptiConfig is one lock-free atomic word");

// The live configuration, by value: OptiConfig{} until the first
// PublishOptiConfig, then the last published config. To change one knob,
// read, edit and publish:
//
//   OptiConfig cfg = GetOptiConfig();
//   cfg.use_perceptron = false;
//   PublishOptiConfig(cfg);
OptiConfig GetOptiConfig();

// Publishes `next` as the configuration for every episode that *starts*
// after the call (in-flight episodes keep the snapshot they took). One
// atomic store plus a decision-epoch bump: safe to call while episodes run,
// from any number of threads at once, and a concurrent snapshot observes
// either the old or the new config, never a torn mix.
void PublishOptiConfig(const OptiConfig& next);

// Runtime counters, sharded per thread (support/sharded.h): an episode's
// bookkeeping writes only the calling thread's cache-line-padded shard, so
// disjoint-lock workloads share no stat cache line. The members keep the
// `.load()` / `.fetch_add()` shape of the plain atomics they replaced —
// `load()` sums across shards; all existing call sites read unchanged.
struct OptiStats {
  // Slot layout inside each per-thread shard. The hot path (optilock.cc)
  // indexes the raw shard with these instead of going through the handles.
  enum Slot : int {
    kFastCommits = 0,
    kNestedFastCommits,
    kSlowAcquires,
    kHtmAttempts,
    kPerceptronSlowDecisions,
    kPerceptronResets,
    kSingleProcBypasses,
    kMismatchRecoveries,
    kBackoffWaits,
    kBackoffPauses,
    kUnwindCancels,      // fast-path episodes cancelled by exception unwind
    kUnwindSlowUnlocks,  // slow-path episodes unlocked by exception unwind
    kOccFallbacks,       // sw-OCC validation-retry budgets exhausted
    kSiteCacheHits,      // decisions served from a cached elide verdict
    kSiteCacheInstalls,  // elide verdicts (re-)memoized into a site cell
    kSiteCacheInvalidations,  // cells evicted by a failed elide
    kMultiLockEpisodes,       // WithLocks episodes with >= 2 distinct locks
    kMultiLockFastCommits,    // ... that committed the whole set elided
    kMultiLockSlowAcquires,   // ... that ended on the sorted-2PL slow path
    kMultiLockAbortsUnattributed,  // set aborts no member word explains
    kMultiLockAbortMemberBase,     // + member index (abort blamed on the
                                   //   i-th sorted lock), kMaxLockSetSlots
    kEpisodeAbortsBase =           // + htm::AbortCode, kNumAbortCodes slots
        kMultiLockAbortMemberBase + 8 /* == OptiLock::kMaxLockSet */,
    kNumSlots = kEpisodeAbortsBase + htm::kNumAbortCodes,
  };

  support::ShardedCounter fast_commits{&shards_, kFastCommits};
  support::ShardedCounter nested_fast_commits{&shards_, kNestedFastCommits};
  support::ShardedCounter slow_acquires{&shards_, kSlowAcquires};
  support::ShardedCounter htm_attempts{&shards_, kHtmAttempts};
  support::ShardedCounter perceptron_slow_decisions{&shards_,
                                                    kPerceptronSlowDecisions};
  support::ShardedCounter perceptron_resets{&shards_, kPerceptronResets};
  support::ShardedCounter single_proc_bypasses{&shards_, kSingleProcBypasses};
  support::ShardedCounter mismatch_recoveries{&shards_, kMismatchRecoveries};

  // Backoff observability.
  support::ShardedCounter backoff_waits{&shards_, kBackoffWaits};
  support::ShardedCounter backoff_pauses{&shards_, kBackoffPauses};

  // Exception-unwind observability (DESIGN.md §4.9): episodes ended by
  // AbandonEpisode instead of FastUnlock, split by which side of the
  // fast/slow fork they were on. Per-kind misuse counters live in
  // support/misuse.h (shared with the gosync destructors) and are appended
  // to ToString().
  support::ShardedCounter unwind_cancels{&shards_, kUnwindCancels};
  support::ShardedCounter unwind_slow_unlocks{&shards_, kUnwindSlowUnlocks};

  // sw-OCC hardening observability: episodes that exhausted the
  // OptiLock::kOccMaxRetries validation budget and fell back to the lock (a
  // subset of slow_acquires).
  support::ShardedCounter occ_fallbacks{&shards_, kOccFallbacks};

  // Per-site decision-cache observability (§4.11): hits are elide decisions
  // that skipped the perceptron consult; installs and invalidations bound
  // how often cells churn (steady state: hits >> installs).
  support::ShardedCounter site_cache_hits{&shards_, kSiteCacheHits};
  support::ShardedCounter site_cache_installs{&shards_, kSiteCacheInstalls};
  support::ShardedCounter site_cache_invalidations{&shards_,
                                                   kSiteCacheInvalidations};

  // Multi-lock episode observability (§4.12). The commit rate the OLTP
  // bench reports is multilock_fast_commits / multilock_episodes; the
  // per-member histogram is the abort attribution — which sorted position
  // of the lock set killed the transaction (subscription-time conflicts
  // name the member exactly; commit-time conflicts are inferred from which
  // member's version word moved, or land in unattributed).
  support::ShardedCounter multilock_episodes{&shards_, kMultiLockEpisodes};
  support::ShardedCounter multilock_fast_commits{&shards_,
                                                 kMultiLockFastCommits};
  support::ShardedCounter multilock_slow_acquires{&shards_,
                                                  kMultiLockSlowAcquires};
  support::ShardedCounter multilock_aborts_unattributed{
      &shards_, kMultiLockAbortsUnattributed};
  std::array<support::ShardedCounter, 8> multilock_abort_member =
      support::ShardedCounterRange<8>(&shards_, kMultiLockAbortMemberBase);

  uint64_t MultiLockAbortsOnMember(int member) const {
    return multilock_abort_member[member].load(std::memory_order_relaxed);
  }

  // Aborts delivered to episodes for one code (distinct from TxStats, which
  // counts substrate aborts — this counts what optiLib's retry policy
  // actually had to handle).
  uint64_t EpisodeAborts(htm::AbortCode code) const {
    return shards_.Sum(kEpisodeAbortsBase + static_cast<int>(code));
  }

  // The calling thread's private slot array (single-writer; index with
  // Slot). One lookup per episode replaces per-counter handle dispatch.
  std::atomic<uint64_t>* LocalShard() { return shards_.Local(); }
  size_t ShardCount() const { return shards_.ShardCount(); }
  size_t FreeShardCount() const { return shards_.FreeShardCount(); }
  uint64_t RetiredShardTotal() const { return shards_.RetiredShardTotal(); }

  // Every slot's count, indexed by Slot (the values kOptiStatsRows reads).
  std::vector<uint64_t> Counts() const { return shards_.Sums(); }

  void Reset();
  std::string ToString() const;

 private:
  support::ShardedCounters shards_{kNumSlots};
};

// OptiStats' counter table (support/counter_table.h). ToString and /metrics
// print the rows in this order, followed by support::kMisuseRows.
inline constexpr support::CounterRow kOptiStatsRows[] = {
    {OptiStats::kFastCommits, 1, "fast_commits",
     "Episodes that committed on the HTM fast path."},
    {OptiStats::kNestedFastCommits, 1, "nested_fast_commits",
     "Nested elided sections subsumed into an enclosing transaction."},
    {OptiStats::kSlowAcquires, 1, "slow_acquires",
     "Episodes that fell back to the original lock."},
    {OptiStats::kHtmAttempts, 1, "htm_attempts",
     "Hardware/software transaction begin attempts."},
    {OptiStats::kPerceptronSlowDecisions, 1, "perceptron_slow_decisions",
     "Episodes the perceptron sent straight to the lock."},
    {OptiStats::kPerceptronResets, 1, "perceptron_resets",
     "Perceptron cells reset by weight decay (slow-streak threshold)."},
    {OptiStats::kSingleProcBypasses, 1, "single_proc_bypasses",
     "Episodes bypassed because GOMAXPROCS==1."},
    {OptiStats::kMismatchRecoveries, 1, "mismatch_recoveries",
     "MutexMismatch aborts recovered by slow-path re-execution."},
    htm::AbortCodeRow(OptiStats::kEpisodeAbortsBase, "episode_aborts",
                      "Aborts delivered to episodes, by abort code."),
    {OptiStats::kBackoffWaits, 1, "backoff_waits",
     "Backoff waits taken between conflict retries."},
    {OptiStats::kBackoffPauses, 1, "backoff_pauses",
     "Total pause-spins spent in backoff waits."},
    {OptiStats::kSiteCacheHits, 1, "site_cache_hits",
     "Episode decisions served from the per-site cache."},
    {OptiStats::kSiteCacheInstalls, 1, "site_cache_installs",
     "Verdicts installed into the per-site cache."},
    {OptiStats::kSiteCacheInvalidations, 1, "site_cache_invalidations",
     "Cached verdicts evicted after a refuting episode outcome."},
    {OptiStats::kOccFallbacks, 1, "occ_fallbacks",
     "Episodes that exhausted the sw-OCC validation-retry budget."},
    {OptiStats::kMultiLockEpisodes, 1, "multilock_episodes",
     "WithLocks episodes over two or more distinct locks."},
    {OptiStats::kMultiLockFastCommits, 1, "multilock_fast_commits",
     "Multi-lock episodes that committed the whole set elided."},
    {OptiStats::kMultiLockSlowAcquires, 1, "multilock_slow_acquires",
     "Multi-lock episodes that ended on the sorted pessimistic path."},
    {OptiStats::kMultiLockAbortsUnattributed, 1,
     "multilock_aborts_unattributed",
     "Multi-lock aborts that no member's version word explains."},
    {OptiStats::kMultiLockAbortMemberBase, 8, "multilock_abort_member",
     "Multi-lock aborts blamed on a member, by sorted member index.",
     "member"},
    {OptiStats::kUnwindCancels, 1, "unwind_cancels",
     "Fast-path episodes cancelled because an exception unwound through."},
    {OptiStats::kUnwindSlowUnlocks, 1, "unwind_slow_unlocks",
     "Slow-path episodes whose lock was released during exception unwind."},
};

OptiStats& GlobalOptiStats();

// O(1) invalidation of every per-site cached verdict (epoch bump), so the
// next episode at each site re-derives its decision from the perceptron:
// test and benchmark isolation, as back-to-back runs start from a cold
// cache. PublishOptiConfig bumps the same epoch. Every bump also makes each
// OptiLock re-copy its config snapshot at its next episode. Perceptron
// weights are reset separately, by GlobalPerceptron().Reset().
void ResetHardeningState();

// The current decision epoch (monotone, starts at 1; test observability).
uint64_t SiteDecisionCacheEpoch();

class OptiLock {
 public:
  // Hard upper bound on a multi-lock episode's set size (after
  // deduplication). 8 covers every OLTP shape the workloads model (a
  // transfer touches 2 accounts; YCSB transactions run 2–8 keys) while
  // keeping the per-episode set state to one cache line of pointers.
  // Passing a larger set is a documented API-contract violation and
  // aborts the process — it cannot be "recovered" because the episode has
  // nowhere to record which locks it would need to release.
  static constexpr int kMaxLockSet = 8;

  // Sorts `count` (<= kMaxLockSet) mutexes into `out` in ascending address
  // order, dropping duplicates, and returns the number of distinct members.
  // Locking the same mutex twice in one episode must behave as locking it
  // once (a pessimistic acquire would self-deadlock), and one global order
  // makes concurrent sorted acquirers deadlock-free. Insertion sort: sets
  // are tiny, and ledger-style callers run this on every transaction.
  static int SortedUniqueLockSet(gosync::Mutex* const* mutexes, int count,
                                 gosync::Mutex** out) {
    int n = 0;
    for (int i = 0; i < count; ++i) {
      gosync::Mutex* m = mutexes[i];
      int j = n;
      while (j > 0 && out[j - 1] > m) {
        --j;
      }
      if (j > 0 && out[j - 1] == m) {
        continue;
      }
      for (int k = n; k > j; --k) {
        out[k] = out[k - 1];
      }
      out[j] = m;
      ++n;
    }
    return n;
  }

  // Retries after a LockHeld abort (Listing 19's MAX_ATTEMPTS).
  static constexpr int kMaxAttempts = 3;
  // Bounded pause-spin while the elided lock is held before starting a
  // transaction (Listing 19: "spin with pause till lock held").
  static constexpr int kSpinPausesWhileLocked = 512;
  // sw-OCC backend only: retries after a commit-time validation failure
  // (kOccValidateFail) before the episode pins itself to the real lock —
  // the per-site livelock guard. Each retry waits the config's jittered
  // backoff so validation storms de-synchronize instead of re-colliding.
  // 4 rides out a burst of committers on the same word, yet a persistent
  // storm reaches the lock (and trains the perceptron toward it) within a
  // few microseconds of backoff.
  static constexpr int kOccMaxRetries = 4;

  OptiLock() = default;
  OptiLock(const OptiLock&) = delete;
  OptiLock& operator=(const OptiLock&) = delete;

  // --- unlock half of the paper-textual API ---
  void FastUnlock(gosync::Mutex* m);
  // RWMutex variants: reader elision (paper §5.1: "an RWMutex is no
  // different from a Mutex, except it offers additional APIs for read-only
  // accesses").
  void FastRUnlock(gosync::RWMutex* m);
  void FastWUnlock(gosync::RWMutex* m);
  // Releases a multi-lock episode (WithLocks / OPTI_FAST_LOCK_SET): commits
  // the transaction covering the whole set, or unlocks the sorted slow-path
  // acquisitions in reverse order. The validating overload checks the
  // caller's set matches the episode's (same members, any order) and routes
  // a mismatch through the usual recovery.
  void FastUnlockSet();
  void FastUnlockSet(gosync::Mutex* const* mutexes, int count);

  // --- lambda embeddings ---
  // Strongly exception-safe: if `fn` throws, the episode is abandoned
  // (AbandonEpisode) before the exception propagates — the transaction is
  // cancelled with every buffered write rolled back (fast path) or the
  // original lock is released (slow path). Either way the caller observes
  // the mutex free and, on the fast path, a critical section that never
  // happened.
  template <typename Fn>
  void WithLock(gosync::Mutex* m, Fn&& fn);
  template <typename Fn>
  void WithRLock(gosync::RWMutex* m, Fn&& fn);
  template <typename Fn>
  void WithWLock(gosync::RWMutex* m, Fn&& fn);

  // Multi-lock transactional episode (DESIGN.md §4.12): runs `fn` with
  // every mutex in the set held, as one atomic region. The fast path opens
  // ONE transaction and subscribes every member's lock word, so the whole
  // set is elided together — mutual exclusion against each member's
  // single-lock critical sections (elided or pessimistic) is preserved
  // exactly as in the single-lock protocol, per word. When speculation is
  // declined or defeated, the slow path acquires the members pessimistically
  // in global address order (duplicates removed), which makes concurrent
  // multi-lock fallbacks deadlock-free regardless of the order the caller
  // listed the locks. Exception safety matches WithLock: a throw abandons
  // the episode (transaction cancelled, or the whole sorted set unlocked)
  // before propagating. Sets of one degrade to exactly WithLock; sets
  // larger than kMaxLockSet abort the process (documented hard limit).
  template <typename Fn>
  void WithLocks(gosync::Mutex* const* mutexes, int count, Fn&& fn);
  template <typename Fn>
  void WithLocks(std::initializer_list<gosync::Mutex*> mutexes, Fn&& fn) {
    WithLocks(mutexes.begin(), static_cast<int>(mutexes.size()),
              std::forward<Fn>(fn));
  }

  // Unwind contract for the paper-textual OPTI_FAST_* / FastUnlock pairing:
  // code between FastLock and FastUnlock that can throw must abandon the
  // episode before letting the exception escape the frame that holds it —
  //
  //   OPTI_FAST_LOCK(ol, &mu);
  //   try { ... critical section ... } catch (...) {
  //     ol.AbandonEpisode();
  //     throw;
  //   }
  //   ol.FastUnlock(&mu);
  //
  // On the fast path this cancels the transaction in place (htm::TxCancel —
  // rollback and abort accounting without the longjmp, so C++ unwinding
  // continues normally and destructors run); on the slow path it releases
  // the lock in the mode actually held. Counted in unwind_cancels /
  // unwind_slow_unlocks. No-op when no episode is in flight, so it is safe
  // in a shared cleanup path. (Double-FastLock recovery reuses this
  // teardown, so a recovered stale episode is counted here as well.) Under real RTM a throw inside a hardware
  // transaction aborts to the checkpoint at the throw itself; the episode
  // retries and the exception only reaches the catch block from the slow
  // path, where this releases the lock. The perceptron is not trained by an
  // abandoned episode (it neither committed nor completed the slow path).
  void AbandonEpisode() noexcept;

  // True when the current episode fell back to the original lock.
  bool on_slow_path() const { return HasFlag(kFlagSlowPath); }

  // --- implementation hooks for the OPTI_FAST_* macros (not public API) ---
  std::jmp_buf& CheckpointEnv() { return env_; }
  void PrepareMutex(gosync::Mutex* m);
  void PrepareRead(gosync::RWMutex* m);
  void PrepareWrite(gosync::RWMutex* m);
  // Sorts and dedupes the caller's set into the episode (degrading to
  // PrepareMutex when one distinct lock remains).
  void PrepareMutexSet(gosync::Mutex* const* mutexes, int count);
  // Runs after the checkpoint: `setjmp_code` is 0 on first entry or the
  // AbortCode delivered by a SimTM abort. Returns with either a transaction
  // open (fast path) or the original lock held (slow path).
  void FastLockStep(int setjmp_code);

 private:
  enum class Target : uint8_t { kNone, kMutex, kRWRead, kRWWrite, kMutexSet };

  void PrepareCommon();
  void AttemptLoop();
  // The first-attempt decision sequence (single-proc bypass, site cache,
  // perceptron with decay, software eligibility). Returns true
  // when the episode should speculate; false when it already took the slow
  // path.
  bool DecideElide();
  void HandleAbort(htm::AbortCode code);
  // Cold path behind the unlock-side misuse/mismatch test: classifies the
  // failure (unpaired, cross-thread, wrong target/mode) and applies the
  // §4.9 recovery. Only the wrong-target/mode case returns control to the
  // episode (via TxAbort's longjmp); the misuse cases report, recover, and
  // return so the unlock call site can bail out.
  void HandleUnlockMisuse(Target requested, void* passed);
  // Recovery for an unlock with no episode in flight: release `passed` in
  // the requested mode iff it is observably held (Go's cross-goroutine
  // handoff semantics); otherwise count-only (Go would panic).
  void RecoverUnpairedUnlock(Target requested, void* passed);
  // Jittered bounded-exponential pause-spin between conflict-class retries.
  void BackoffBeforeRetry();
  void TakeSlowPath();
  // Transactionally reads the elided lock's word (adding it to the read
  // set) and aborts with LockHeld if the lock is unavailable: the versioned
  // lock word on SimTM and sw-OCC, the Go lock word under RTM and for a
  // SimTM RWMutex write section (DESIGN.md §4.2).
  void SubscribeOrAbort();
  // Whether software backend `backend` may elide this episode's target:
  // untracked mutexes never (nothing maintains their version word), and
  // RWMutex WRITE sections under SimTM only (slow-path readers do not touch
  // the version word, and only SimTM can validate reader_count_ soundly).
  // Checked once per episode: in DecideElide, or in AttemptLoop's nested
  // branch, which skips the decision.
  bool SoftwareEligible(htm::Backend backend) const;
  bool TargetHeld() const;
  void FinishFastEpisode();
  void FinishSlowEpisode();
  void ResetEpisode();
  // --- multi-lock episode helpers (kind_ == kMutexSet only) ---
  // Transactionally subscribes every member in sorted order, recording each
  // member's subscription-time version word for commit-time attribution;
  // aborts (with the offending member blamed) when any member is
  // unavailable or the fault injector fires at kMultiLockSubscribe.
  void SubscribeSetOrAbort();
  // Sorted pessimistic acquisition of the whole set, with the
  // lock-order-inversion watermark pushed for the episode's duration.
  void AcquireSetSlow();
  // Reverse-sorted release (slow path / unwind), popping the watermark.
  void ReleaseSetSlow();
  // Names the member whose version word moved since subscription (first
  // changed wins), or -1 when no member word explains the abort. Feeds the
  // per-member abort histogram and the obs trace's blamed mutex id.
  int InferBlamedMember() const;
  // Abort-side bookkeeping shared by recorded and inferred attribution.
  void AttributeSetAbort();
  // True when the caller's (unsorted, possibly duplicated) set names
  // exactly the episode's deduplicated members.
  bool SetMatchesEpisode(gosync::Mutex* const* mutexes, int count) const;
  // Appends this episode's trace event to the calling thread's obs ring.
  // Only called when cfg_.trace_episodes is set, and always outside the
  // transaction (after TxCommit / after the slow-path unlock decision).
  void RecordEpisodeTrace(obs::Outcome outcome);

  gosync::Mutex* AsMutex() const {
    return static_cast<gosync::Mutex*>(target_);
  }
  gosync::RWMutex* AsRW() const {
    return static_cast<gosync::RWMutex*>(target_);
  }

  std::jmp_buf env_;
  void* target_ = nullptr;
  Target kind_ = Target::kNone;
  // Identity of the thread that opened the episode: the address of a
  // constant-initialized thread_local byte (unique among live threads, no
  // TLS-guard branch to read). Unlock paths compare it to detect
  // cross-thread unlocks; best-effort, since an exited thread's slot can be
  // reused by a new thread.
  const void* owner_ = nullptr;
  // Episode state booleans, fused into one flags word so the committed-
  // uncontended trajectory resets and tests them with single-word ops and
  // the guards they feed compile to predicted-not-taken branches off one
  // register (§4.11).
  //
  //  kFlagSlowPath       the paper's slowPath field: the episode fell back
  //                      to the original lock (target_ doubles as lkMutex)
  //  kFlagForceSlow      a mismatch/exhausted budget pinned this episode
  //                      to the slow path
  //  kFlagDecisionMade   the first-attempt decision sequence already ran
  //  kFlagPredictedHtm   the decision was to speculate (trains on finish)
  //  kFlagOccFallback    a sw-OCC validation-retry budget ran dry; the slow
  //                      acquire is reported as obs::Outcome::kOccFallback
  //  kFlagSiteCacheHit   the decision was served from the per-site cache
  //                      (a commit then skips the redundant re-install)
  static constexpr uint32_t kFlagSlowPath = 1u << 0;
  static constexpr uint32_t kFlagForceSlow = 1u << 1;
  static constexpr uint32_t kFlagDecisionMade = 1u << 2;
  static constexpr uint32_t kFlagPredictedHtm = 1u << 3;
  static constexpr uint32_t kFlagOccFallback = 1u << 4;
  static constexpr uint32_t kFlagSiteCacheHit = 1u << 5;

  bool HasFlag(uint32_t f) const { return (flags_ & f) != 0; }
  void SetFlag(uint32_t f) { flags_ |= f; }
  void ClearFlag(uint32_t f) { flags_ &= ~f; }

  uint32_t flags_ = 0;
  // Thread abort epoch recorded when the episode was established; a
  // mismatch at the next FastLock distinguishes episode state stranded by a
  // flat-nesting abort (normal re-execution) from double-FastLock misuse
  // (see PrepareCommon).
  uint64_t abort_epoch_ = 0;
  int attempts_left_ = 0;
  int conflict_retries_left_ = 0;
  int occ_retries_left_ = 0;
  int backoff_exponent_ = 0;
  // Episode-trace bookkeeping (only written when cfg_.trace_episodes):
  // start timestamp, abort-retry count (saturating at obs::kMaxRetries) and
  // the most recent abort code, all private members — no shared state.
  uint64_t obs_start_ticks_ = 0;
  uint32_t obs_retries_ = 0;
  htm::AbortCode obs_last_abort_ = htm::AbortCode::kNone;
  Perceptron::Indices indices_{0, 0};
  // Multi-lock episode state. Only touched on the kMutexSet paths — the
  // single-lock fast path neither resets nor reads any of it (stale values
  // from a finished set episode are harmless because every consumer is
  // guarded by kind_ == kMutexSet), so the near-zero §4.11 episode cost is
  // unchanged. set_ holds the deduplicated members in ascending address
  // order: the subscription order (stable attribution), the slow-path
  // acquisition order (deadlock freedom), and the reverse release order.
  // set_seen_ holds each member's version word (OccWord) at subscription
  // time, on every backend, for commit-time abort attribution.
  gosync::Mutex* set_[kMaxLockSet] = {};
  uint64_t set_seen_[kMaxLockSet] = {};
  int set_size_ = 0;
  // Members the current attempt has subscribed so far (attribution scans
  // only these; an abort mid-subscription leaves the tail unseen).
  int set_subscribed_ = 0;
  // Member index an abort was pinned on (-1 = none yet / unattributed):
  // written before TxAbort's longjmp by the subscription path, read by
  // HandleAbort after the checkpoint re-entry.
  int blamed_member_ = -1;
  // Previous lock-order watermark, restored when the slow-path set
  // releases (the watermark is a thread-local; nesting restores outward).
  uintptr_t saved_watermark_ = 0;
  // Decision epoch observed at episode start (0 = no episode yet; epochs
  // start at 1): keys this episode's cached-verdict lookups and installs (a
  // concurrent bump makes both dead, never wrong) and tags cfg_ below.
  uint64_t cache_epoch_ = 0;
  // Config snapshot, re-copied in PrepareCommon only when the decision
  // epoch has moved: the episode's decisions all read this copy, so a
  // concurrent publish can never be observed half-applied within one
  // episode (and the hot path re-reads no globals). The OptiLock objects
  // real workloads use are long-lived (thread_local per site), so the copy
  // amortizes to one epoch compare per episode.
  OptiConfig cfg_;
};

// The unwind protection is a try/catch rather than an RAII guard on
// purpose: a longjmp (SimTM abort) that skips a live non-trivially-
// destructible local is undefined behaviour, while a try block introduces
// no such local. The catch runs only during genuine C++ unwinding — SimTM
// aborts transfer control via the checkpoint and never enter it.

template <typename Fn>
void OptiLock::WithLock(gosync::Mutex* m, Fn&& fn) {
  PrepareMutex(m);
  {
    int checkpoint = setjmp(env_);
    FastLockStep(checkpoint);
  }
  try {
    fn();
  } catch (...) {
    AbandonEpisode();
    throw;
  }
  FastUnlock(m);
}

template <typename Fn>
void OptiLock::WithRLock(gosync::RWMutex* m, Fn&& fn) {
  PrepareRead(m);
  {
    int checkpoint = setjmp(env_);
    FastLockStep(checkpoint);
  }
  try {
    fn();
  } catch (...) {
    AbandonEpisode();
    throw;
  }
  FastRUnlock(m);
}

template <typename Fn>
void OptiLock::WithWLock(gosync::RWMutex* m, Fn&& fn) {
  PrepareWrite(m);
  {
    int checkpoint = setjmp(env_);
    FastLockStep(checkpoint);
  }
  try {
    fn();
  } catch (...) {
    AbandonEpisode();
    throw;
  }
  FastWUnlock(m);
}

template <typename Fn>
void OptiLock::WithLocks(gosync::Mutex* const* mutexes, int count, Fn&& fn) {
  PrepareMutexSet(mutexes, count);
  {
    int checkpoint = setjmp(env_);
    FastLockStep(checkpoint);
  }
  try {
    fn();
  } catch (...) {
    AbandonEpisode();
    throw;
  }
  FastUnlockSet();
}

}  // namespace gocc::optilib

// Paper-textual lock elision: replaces `m->Lock()`. Pair with
// `ol.FastUnlock(m)`. The enclosing frame must stay live until the unlock.
// If the bracketed region can throw, follow the unwind contract documented
// on OptiLock::AbandonEpisode — an exception that escapes the frame with
// the episode still open strands a transaction or a held lock.
#define OPTI_FAST_LOCK(ol, mutex_ptr)                 \
  do {                                                \
    (ol).PrepareMutex(mutex_ptr);                     \
    int gocc_checkpoint_ = setjmp((ol).CheckpointEnv()); \
    (ol).FastLockStep(gocc_checkpoint_);              \
  } while (false)

// Replaces `rw->RLock()`. Pair with `ol.FastRUnlock(rw)`.
#define OPTI_FAST_RLOCK(ol, rw_ptr)                   \
  do {                                                \
    (ol).PrepareRead(rw_ptr);                         \
    int gocc_checkpoint_ = setjmp((ol).CheckpointEnv()); \
    (ol).FastLockStep(gocc_checkpoint_);              \
  } while (false)

// Replaces `rw->Lock()`. Pair with `ol.FastWUnlock(rw)`.
#define OPTI_FAST_WLOCK(ol, rw_ptr)                   \
  do {                                                \
    (ol).PrepareWrite(rw_ptr);                        \
    int gocc_checkpoint_ = setjmp((ol).CheckpointEnv()); \
    (ol).FastLockStep(gocc_checkpoint_);              \
  } while (false)

// Paper-textual multi-lock elision: replaces an ordered sequence of
// `m->Lock()` calls with one transactional episode over the whole set.
// Pair with `ol.FastUnlockSet()` (or the validating overload). The same
// unwind contract as OPTI_FAST_LOCK applies to the bracketed region.
#define OPTI_FAST_LOCK_SET(ol, mutexes_ptr, count)    \
  do {                                                \
    (ol).PrepareMutexSet(mutexes_ptr, count);         \
    int gocc_checkpoint_ = setjmp((ol).CheckpointEnv()); \
    (ol).FastLockStep(gocc_checkpoint_);              \
  } while (false)

#endif  // GOCC_SRC_OPTILIB_OPTILOCK_H_
