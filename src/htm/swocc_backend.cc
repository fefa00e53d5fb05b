#include "src/htm/swocc_backend.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <unordered_map>
#include <vector>

#include "src/htm/config.h"
#include "src/htm/fault.h"
#include "src/htm/stats.h"
#include "src/htm/swocc.h"
#include "src/support/misuse.h"
#include "src/support/rng.h"

namespace gocc::htm {

SwOccWordStats& GlobalSwOccWordStats() {
  static SwOccWordStats stats;
  return stats;
}

void OccWordAcquireExclusive(std::atomic<uint64_t>* word) {
  uint64_t cur = word->load(std::memory_order_relaxed);
  if (!OccUnavailable(cur) &&
      word->compare_exchange_strong(cur, OccAcquired(cur),
                                    std::memory_order_seq_cst,
                                    std::memory_order_relaxed)) {
    return;  // uncontended: no OCC committer holds the word
  }
  SwOccWordStats& stats = GlobalSwOccWordStats();
  stats.writer_waits.fetch_add(1, std::memory_order_relaxed);
  bool pending_raised = false;
  int failed_rounds = 0;
  while (true) {
    if (OccIsExclusive(cur)) {
      // An OCC committer is publishing; it releases in nanoseconds unless a
      // fault-injected stall stretches it. Poison counts as exclusive here:
      // locking a destroyed mutex is already undefined, spinning forever on
      // it would only hide the destructor's misuse report.
#if defined(__x86_64__) || defined(__i386__)
      __builtin_ia32_pause();
#endif
      ++failed_rounds;
      if (!pending_raised && failed_rounds >= kOccWriterStarvationSpins) {
        // Starvation detection: raise the pending flag so new OCC episodes
        // treat the word as held and stop winning the publish race from
        // under this (state_-owning) writer. OccAcquired clears it again.
        word->fetch_or(kOccWriterPendingBit, std::memory_order_relaxed);
        stats.writer_pending_sets.fetch_add(1, std::memory_order_relaxed);
        pending_raised = true;
      }
      cur = word->load(std::memory_order_relaxed);
      continue;
    }
    if (word->compare_exchange_weak(cur, OccAcquired(cur),
                                    std::memory_order_seq_cst,
                                    std::memory_order_relaxed)) {
      return;
    }
    ++failed_rounds;
  }
}

namespace {

struct Subscription {
  const std::atomic<uint64_t>* word;
  uint64_t value;  // word value observed at subscription time
};

struct OccWrite {
  std::atomic<uint64_t>* addr;
  uint64_t value;
};

struct CommitLockedWord {
  std::atomic<uint64_t>* word;
  uint64_t pre_lock_value;
};

// Per-thread sw-OCC transaction context. Mirrors tx.cc's TxContext idiom:
// containers keep capacity across transactions, the TLS handle is a raw
// pointer so the guarded-init wrapper is paid once per thread.
struct SwOccContext {
  int depth = 0;
  std::jmp_buf* env = nullptr;

  std::vector<Subscription> subs;
  std::vector<OccWrite> writes;
  std::unordered_map<const std::atomic<uint64_t>*, size_t> write_index;
  bool writes_spilled = false;
  std::vector<CommitLockedWord> locked;

  SplitMix64 rng{0};
  bool rng_seeded = false;

  void ResetSets() {
    subs.clear();
    writes.clear();
    if (writes_spilled) {
      write_index.clear();
      writes_spilled = false;
    }
    locked.clear();
  }
};

constexpr size_t kWriteSpill = 16;

thread_local SwOccContext* tls_occ_ptr = nullptr;

[[gnu::noinline]] SwOccContext& TlsSlow() {
  thread_local SwOccContext ctx;
  tls_occ_ptr = &ctx;
  return ctx;
}

inline SwOccContext& Tls() {
  SwOccContext* p = tls_occ_ptr;
  return p != nullptr ? *p : TlsSlow();
}

inline void BumpSlot(int slot) {
  std::atomic<uint64_t>* shard = GlobalTxStats().LocalShard();
  shard[slot].store(shard[slot].load(std::memory_order_relaxed) + 1,
                    std::memory_order_relaxed);
}

OccWrite* FindWrite(SwOccContext& tx, const std::atomic<uint64_t>* addr) {
  if (!tx.writes_spilled) {
    for (OccWrite& w : tx.writes) {
      if (w.addr == addr) {
        return &w;
      }
    }
    return nullptr;
  }
  auto it = tx.write_index.find(addr);
  return it == tx.write_index.end() ? nullptr : &tx.writes[it->second];
}

void AppendWrite(SwOccContext& tx, std::atomic<uint64_t>* addr,
                 uint64_t value) {
  tx.writes.push_back({addr, value});
  if (tx.writes_spilled) {
    tx.write_index.emplace(addr, tx.writes.size() - 1);
  } else if (tx.writes.size() > kWriteSpill) {
    for (size_t i = 0; i < tx.writes.size(); ++i) {
      tx.write_index.emplace(tx.writes[i].addr, i);
    }
    tx.writes_spilled = true;
  }
}

// Rollback half of an abort: words locked by an in-progress commit go back
// to their pre-lock value (no write was published yet — publication only
// starts after every word is locked, and a locked set is released forward,
// never rolled back). Shared by AbortInternal and SwOccCancel.
void RollbackInternal(SwOccContext& tx, AbortCode code) {
  for (const CommitLockedWord& lw : tx.locked) {
    // Restore the pre-lock value, preserving a writer-pending flag raised
    // while we held the word (only that bit can change under us: the
    // exclusive flag serializes every other writer of the word).
    uint64_t cur = OccAcquired(lw.pre_lock_value);
    while (!lw.word->compare_exchange_weak(
        cur, lw.pre_lock_value | (cur & kOccWriterPendingBit),
        std::memory_order_release, std::memory_order_relaxed)) {
    }
  }
  GlobalTxStats().RecordAbort(code);
  tx.depth = 0;
  tx.env = nullptr;
  tx.ResetSets();
}

[[noreturn]] void AbortInternal(SwOccContext& tx, AbortCode code) {
  std::jmp_buf* env = tx.env;
  RollbackInternal(tx, code);
  assert(env != nullptr && "sw-OCC abort without a checkpoint");
  std::longjmp(*env, static_cast<int>(code));
}

void MaybeInjectedAbort(SwOccContext& tx, fault::Site site) {
  AbortCode code = fault::MaybeInject(site);
  if (code != AbortCode::kNone) {
    AbortInternal(tx, code);
  }
}

void MaybeSpuriousAbort(SwOccContext& tx) {
  const TxConfig& cfg = Config();
  if (cfg.spurious_abort_probability <= 0.0) {
    return;
  }
  if (!tx.rng_seeded) {
    tx.rng = SplitMix64(cfg.spurious_seed ^ reinterpret_cast<uintptr_t>(&tx));
    tx.rng_seeded = true;
  }
  if (tx.rng.NextBool(cfg.spurious_abort_probability)) {
    AbortInternal(tx, AbortCode::kSpurious);
  }
}

// Reader-side poison check (PR-4 misuse taxonomy): a subscribed word that
// turned into the destructor's poison pattern means the episode outlived its
// mutex. Report once per detection, then abort — under the recover policy
// the episode's retry loop re-subscribes, sees poison as "held", and
// degrades to the slow path, which is the same terminal state SimTM
// reaches when it sees the poisoned word.
void ReportPoisonedRead(SwOccContext& tx, const std::atomic<uint64_t>* word) {
  support::ReportMisuse(support::MisuseKind::kElidedUseAfterDestroy, word,
                        "occ-word-poisoned-mid-episode");
  AbortInternal(tx, AbortCode::kOccValidateFail);
}

// Validates every subscription against its observed value. The caller has
// already issued the acquire fence that orders the preceding data reads
// before these relaxed re-loads (Boehm's seqlock recipe, same as tx.cc).
void ValidateSubscriptionsOrAbort(SwOccContext& tx) {
  for (const Subscription& s : tx.subs) {
    const uint64_t cur = s.word->load(std::memory_order_relaxed);
    if (cur != s.value) {
      if (OccIsPoisoned(cur)) {
        ReportPoisonedRead(tx, s.word);
      }
      AbortInternal(tx, AbortCode::kOccValidateFail);
    }
  }
}

void CommitOutermost(SwOccContext& tx) {
  // Forced validation failure (chaos: models a validation step that loses
  // every race) sits before the organic check so schedules can target it
  // precisely.
  MaybeInjectedAbort(tx, fault::Site::kOccValidate);

  if (tx.writes.empty()) {
    // Read-only commit: validate and go — no shared store anywhere in the
    // whole episode.
    std::atomic_thread_fence(std::memory_order_acquire);
    ValidateSubscriptionsOrAbort(tx);
    BumpSlot(TxStats::kCommits);
    BumpSlot(TxStats::kReadOnlyCommits);
    tx.depth = 0;
    tx.env = nullptr;
    tx.ResetSets();
    return;
  }

  if (tx.writes.size() > Config().write_capacity_lines) {
    AbortInternal(tx, AbortCode::kCapacity);
  }

  // Read-write commit: lock every subscribed occ word in address order (the
  // CAS from the subscribed value *is* the validation: any intervening
  // exclusive owner changed the version). CAS failure aborts — never spins —
  // so two committers cannot hold-and-wait.
  std::sort(tx.subs.begin(), tx.subs.end(),
            [](const Subscription& a, const Subscription& b) {
              return a.word < b.word;
            });
  for (const Subscription& s : tx.subs) {
    if (!tx.locked.empty() && tx.locked.back().word == s.word) {
      continue;  // flat-nested duplicate subscription of the same word
    }
    auto* word = const_cast<std::atomic<uint64_t>*>(s.word);
    uint64_t expected = s.value;
    if (!word->compare_exchange_strong(expected, OccAcquired(s.value),
                                       std::memory_order_acq_rel,
                                       std::memory_order_relaxed)) {
      if (OccIsPoisoned(expected)) {
        ReportPoisonedRead(tx, s.word);
      }
      AbortInternal(tx, AbortCode::kOccValidateFail);
    }
    tx.locked.push_back({word, s.value});
  }

  // Publish the buffered writes, then release the words with their bumped
  // versions. A raw transaction with writes but no subscription publishes
  // unguarded (see swocc_backend.h: only subscribing episodes get isolation).
  for (const OccWrite& w : tx.writes) {
    w.addr->store(w.value, std::memory_order_relaxed);
  }
  // Chaos hooks on the publish window: a stall here is a "delayed unlock"
  // (the words stay exclusive, widening the window concurrent subscribers
  // observe); an injected code is "version skew" (the release version jumps
  // by an extra step, probing that nothing downstream assumes version
  // continuity).
  fault::MaybeStallAt(fault::Site::kOccPublish);
  const bool skew =
      fault::MaybeInject(fault::Site::kOccPublish) != AbortCode::kNone;
  for (const CommitLockedWord& lw : tx.locked) {
    const uint64_t installed = OccAcquired(lw.pre_lock_value);
    uint64_t release = installed & ~kOccExclusiveBit;
    if (skew) {
      release = OccAcquired(release) & ~kOccExclusiveBit;
    }
    // Release with the new version, preserving a writer-pending flag raised
    // while we held the word (the starving writer acquires next and clears
    // it; losing the flag here could let another committer cut the line).
    uint64_t cur = installed;
    while (!lw.word->compare_exchange_weak(
        cur, release | (cur & kOccWriterPendingBit),
        std::memory_order_release, std::memory_order_relaxed)) {
    }
  }
  GlobalSwOccWordStats().occ_publishes.fetch_add(1, std::memory_order_relaxed);

  BumpSlot(TxStats::kCommits);
  tx.depth = 0;
  tx.env = nullptr;
  tx.ResetSets();
}

}  // namespace

bool SwOccInTx() { return Tls().depth > 0; }

int SwOccDepth() { return Tls().depth; }

BeginStatus SwOccBeginImpl(int setjmp_result, std::jmp_buf* env) {
  SwOccContext& tx = Tls();
  if (setjmp_result != 0) {
    return BeginStatus{false, static_cast<AbortCode>(setjmp_result)};
  }
  if (tx.depth > 0) {
    // Flat nesting, as in the other backends: the nested transaction
    // subsumes into the outermost one.
    ++tx.depth;
    return BeginStatus{true, AbortCode::kNone};
  }
  {
    AbortCode injected = fault::MaybeInject(fault::Site::kBegin);
    if (injected != AbortCode::kNone) {
      GlobalTxStats().RecordAbort(injected);
      return BeginStatus{false, injected};
    }
  }
  tx.depth = 1;
  tx.env = env;
  BumpSlot(TxStats::kBegins);
  return BeginStatus{true, AbortCode::kNone};
}

void SwOccCommit() {
  SwOccContext& tx = Tls();
  if (tx.depth == 0) {
    // Misuse-recovered episode committing at depth zero (same defensive
    // contract as tx.cc): committing nothing is the defined recovery.
    return;
  }
  if (--tx.depth > 0) {
    return;
  }
  tx.depth = 1;  // CommitOutermost may abort; keep state coherent until done
  MaybeInjectedAbort(tx, fault::Site::kCommit);
  CommitOutermost(tx);
}

void SwOccAbort(AbortCode code) {
  SwOccContext& tx = Tls();
  assert(tx.depth > 0 && "sw-OCC TxAbort outside a transaction");
  AbortInternal(tx, code);
  std::abort();  // unreachable
}

void SwOccCancel(AbortCode code) {
  SwOccContext& tx = Tls();
  if (tx.depth == 0) {
    return;
  }
  RollbackInternal(tx, code);
}

uint64_t SwOccLoad(const std::atomic<uint64_t>* addr) {
  SwOccContext& tx = Tls();
  if (tx.depth == 0) {
    // Non-transactional read. sw-OCC is weakly atomic here (unlike SimTM's
    // wait on the cell's version lock): a read racing an in-flight publish
    // can observe a partial write set. Data protected by a lock must be
    // read under that lock — exactly Go's contract — and unprotected data
    // never conflicts.
    return addr->load(std::memory_order_acquire);
  }
  if (const OccWrite* w = FindWrite(tx, addr)) {
    return w->value;
  }
  // Invisible read with per-access revalidation (opacity): load the data,
  // fence, then re-check every subscribed word. If any exclusive owner
  // intervened since subscription, this read may be torn — abort before the
  // critical section can act on it.
  const uint64_t value = addr->load(std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_acquire);
  ValidateSubscriptionsOrAbort(tx);
  MaybeInjectedAbort(tx, fault::Site::kLoad);
  MaybeSpuriousAbort(tx);
  return value;
}

void SwOccStore(std::atomic<uint64_t>* addr, uint64_t value) {
  SwOccContext& tx = Tls();
  if (tx.depth == 0) {
    addr->store(value, std::memory_order_release);
    return;
  }
  if (OccWrite* w = FindWrite(tx, addr)) {
    w->value = value;
  } else {
    if (tx.writes.size() >= Config().write_capacity_lines) {
      AbortInternal(tx, AbortCode::kCapacity);
    }
    AppendWrite(tx, addr, value);
  }
  MaybeInjectedAbort(tx, fault::Site::kStore);
  MaybeSpuriousAbort(tx);
}

uint64_t SwOccSubscribe(const std::atomic<uint64_t>* addr) {
  SwOccContext& tx = Tls();
  if (tx.depth == 0) {
    return addr->load(std::memory_order_acquire);  // mirrors the RTM backend
  }
  const uint64_t cur = addr->load(std::memory_order_acquire);
  if (OccIsPoisoned(cur)) {
    // Subscribing a destroyed mutex's word: report, then deliver the abort
    // the caller's lock-held check would anyway (the poison pattern reads
    // as exclusive+pending).
    ReportPoisonedRead(tx, addr);
  }
  for (const Subscription& s : tx.subs) {
    if (s.word == addr) {
      if (s.value != cur) {
        // Re-subscription of a word that changed since first observed
        // (flat-nested episode racing an exclusive owner): the snapshot is
        // already inconsistent.
        AbortInternal(tx, AbortCode::kOccValidateFail);
      }
      return cur;
    }
  }
  tx.subs.push_back({addr, cur});
  MaybeInjectedAbort(tx, fault::Site::kLoad);
  MaybeSpuriousAbort(tx);
  return cur;
}

uint64_t SwOccFetchAdd(std::atomic<uint64_t>* addr, uint64_t delta) {
  SwOccContext& tx = Tls();
  if (tx.depth == 0) {
    return addr->fetch_add(delta, std::memory_order_acq_rel) + delta;
  }
  if (OccWrite* w = FindWrite(tx, addr)) {
    w->value += delta;
    MaybeInjectedAbort(tx, fault::Site::kStore);
    MaybeSpuriousAbort(tx);
    return w->value;
  }
  const uint64_t value = addr->load(std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_acquire);
  ValidateSubscriptionsOrAbort(tx);
  if (tx.writes.size() >= Config().write_capacity_lines) {
    AbortInternal(tx, AbortCode::kCapacity);
  }
  AppendWrite(tx, addr, value + delta);
  MaybeInjectedAbort(tx, fault::Site::kLoad);
  MaybeInjectedAbort(tx, fault::Site::kStore);
  MaybeSpuriousAbort(tx);
  return value + delta;
}

}  // namespace gocc::htm
