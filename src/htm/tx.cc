#include "src/htm/tx.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/htm/fault.h"
#include "src/htm/rtm_backend.h"
#include "src/htm/stats.h"
#include "src/htm/stripe_table.h"
#include "src/htm/swocc_backend.h"
#include "src/support/rng.h"
#include "src/support/strings.h"

namespace gocc::htm {
namespace {

constexpr int kStripeLockSpins = 256;

inline uintptr_t CacheLineOf(const void* addr) {
  return reinterpret_cast<uintptr_t>(addr) >> 6;
}

// A read-set entry: a stripe, or a subscribed lock word (TxSubscribe),
// and the value it held when first read. Both kinds validate by value
// equality.
struct ReadEntry {
  const std::atomic<uint64_t>* word;
  uint64_t seen;
};

struct WriteEntry {
  std::atomic<uint64_t>* addr;
  uint64_t value;
};

struct LockedStripe {
  std::atomic<uint64_t>* stripe;
  uint64_t pre_lock_word;  // unlocked word the commit's CAS replaced
};

// Dedup set tuned for SimTM's common case: a transformed critical section
// touches a handful of addresses, so membership is a linear scan over a
// reused flat vector — no hashing, no node allocation, and clear() is a
// size reset. Transactions that outgrow kSpill migrate into the hash set
// once and keep O(1) membership from then on (read/write capacity limits
// are in the hundreds of lines, where the scan would be quadratic).
template <typename T>
class SmallSet {
 public:
  static constexpr size_t kSpill = 16;

  // Returns true when `v` was newly inserted.
  bool insert(T v) {
    if (!spilled_) {
      for (const T& x : vec_) {
        if (x == v) {
          return false;
        }
      }
      vec_.push_back(v);
      if (vec_.size() > kSpill) {
        spill_.insert(vec_.begin(), vec_.end());
        spilled_ = true;
      }
      return true;
    }
    return spill_.insert(v).second;
  }

  size_t size() const { return spilled_ ? spill_.size() : vec_.size(); }

  void clear() {
    vec_.clear();
    if (spilled_) {
      spill_.clear();
      spilled_ = false;
    }
  }

 private:
  std::vector<T> vec_;
  std::unordered_set<T> spill_;
  bool spilled_ = false;
};

// Per-thread SimTM transaction context. Containers keep their capacity
// across transactions, so steady-state operation allocates nothing.
struct TxContext {
  int depth = 0;
  std::jmp_buf* env = nullptr;

  // One entry per distinct stripe or lock word read (RecheckReads dedups).
  std::vector<ReadEntry> reads;
  std::vector<WriteEntry> writes;
  // Populated only once the write set spills past SmallSet::kSpill entries;
  // below that, write lookups linear-scan `writes` directly.
  std::unordered_map<const std::atomic<uint64_t>*, size_t> write_index;
  bool writes_spilled = false;
  SmallSet<uintptr_t> read_lines;
  SmallSet<uintptr_t> write_lines;

  // Stripes locked during an in-progress commit; released on abort.
  std::vector<LockedStripe> locked;
  // Scratch for CommitOutermost's sorted stripe list (reused capacity —
  // a per-commit local vector would malloc/free every episode).
  std::vector<std::atomic<uint64_t>*> commit_stripes;

  SplitMix64 rng{0};
  bool rng_seeded = false;

  void ResetSets() {
    reads.clear();
    writes.clear();
    if (writes_spilled) {
      write_index.clear();
      writes_spilled = false;
    }
    read_lines.clear();
    write_lines.clear();
    locked.clear();
  }
};

// The write-set entry for `addr`, or nullptr. Linear scan below the spill
// threshold, hash lookup above it.
WriteEntry* FindWrite(TxContext& tx, const std::atomic<uint64_t>* addr) {
  if (!tx.writes_spilled) {
    for (WriteEntry& w : tx.writes) {
      if (w.addr == addr) {
        return &w;
      }
    }
    return nullptr;
  }
  auto it = tx.write_index.find(addr);
  return it == tx.write_index.end() ? nullptr : &tx.writes[it->second];
}

// TxContext has vector members, so a plain `thread_local TxContext` would
// pay the guarded-initialization wrapper on every access — and tx.cc
// touches the context several times per episode. The raw pointer below is
// trivially initialized (direct TLS load, no guard); the owning object is
// materialized once per thread in TlsSlow.
thread_local TxContext* tls_tx_ptr = nullptr;

[[gnu::noinline]] TxContext& TlsSlow() {
  thread_local TxContext ctx;
  tls_tx_ptr = &ctx;
  return ctx;
}

inline TxContext& Tls() {
  TxContext* p = tls_tx_ptr;
  return p != nullptr ? *p : TlsSlow();
}

TxStats g_stats;

// Single-writer bump of the calling thread's stat shard (see sharded.h).
inline void BumpSlot(std::atomic<uint64_t>* shard, int slot) {
  shard[slot].store(shard[slot].load(std::memory_order_relaxed) + 1,
                    std::memory_order_relaxed);
}
inline void BumpSlot(int slot) { BumpSlot(g_stats.LocalShard(), slot); }

// Rollback half of an abort: releases stripes held by an in-progress
// commit, records the abort, and clears all transaction state. Shared by
// AbortInternal (which then long-jumps) and TxCancel (which returns so a
// C++ exception can keep unwinding).
void RollbackInternal(TxContext& tx, AbortCode code) {
  for (const LockedStripe& ls : tx.locked) {
    ls.stripe->store(ls.pre_lock_word, std::memory_order_release);
  }
  g_stats.RecordAbort(code);
  tx.depth = 0;
  tx.env = nullptr;
  tx.ResetSets();
}

[[noreturn]] void AbortInternal(TxContext& tx, AbortCode code) {
  std::jmp_buf* env = tx.env;
  RollbackInternal(tx, code);
  assert(env != nullptr && "SimTM abort without a checkpoint");
  std::longjmp(*env, static_cast<int>(code));
}

// Fault-injection hook for in-transaction accesses: an injected code aborts
// through the normal rollback path, exactly like an organic abort.
void MaybeInjectedAbort(TxContext& tx, fault::Site site) {
  AbortCode code = fault::MaybeInject(site);
  if (code != AbortCode::kNone) {
    AbortInternal(tx, code);
  }
}

void MaybeSpuriousAbort(TxContext& tx) {
  const TxConfig& cfg = Config();
  if (cfg.spurious_abort_probability <= 0.0) {
    return;
  }
  if (!tx.rng_seeded) {
    tx.rng = SplitMix64(cfg.spurious_seed ^
                        reinterpret_cast<uintptr_t>(&tx));
    tx.rng_seeded = true;
  }
  if (tx.rng.NextBool(cfg.spurious_abort_probability)) {
    AbortInternal(tx, AbortCode::kSpurious);
  }
}

// Locks `stripe` for commit; returns false after bounded spinning. The CAS
// is seq_cst: it and the seq_cst validation loads that follow are all that
// orders this commit against another thread's stripe lock and later loads
// (the Dekker pairs of DESIGN.md §4.2).
bool LockStripeForCommit(TxContext& tx, std::atomic<uint64_t>* stripe) {
  for (int spin = 0; spin < kStripeLockSpins; ++spin) {
    uint64_t word = stripe->load(std::memory_order_relaxed);
    if (!StripeIsLocked(word)) {
      if (stripe->compare_exchange_weak(word, word | kStripeLockedBit,
                                        std::memory_order_seq_cst,
                                        std::memory_order_relaxed)) {
        tx.locked.push_back({stripe, word});
        return true;
      }
    }
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
  }
  return false;
}

void CommitOutermost(TxContext& tx) {
  if (tx.writes.empty()) {
    // Read-only transaction: every read already re-validated all earlier
    // ones, so the reads were consistent at the last read — the
    // transaction serializes there. Nothing to validate or publish.
    std::atomic<uint64_t>* shard = g_stats.LocalShard();
    BumpSlot(shard, TxStats::kCommits);
    BumpSlot(shard, TxStats::kReadOnlyCommits);
    tx.depth = 0;
    tx.env = nullptr;
    tx.ResetSets();
    return;
  }

  // Lock the stripes covering the write set in address order (prevents
  // deadlock between committers). A single write — the common transformed
  // critical section — has nothing to sort.
  if (tx.writes.size() == 1) {
    if (!LockStripeForCommit(tx, StripeFor(tx.writes[0].addr))) {
      AbortInternal(tx, AbortCode::kConflict);
    }
  } else {
    std::vector<std::atomic<uint64_t>*>& stripes = tx.commit_stripes;
    stripes.clear();
    for (const WriteEntry& w : tx.writes) {
      stripes.push_back(StripeFor(w.addr));
    }
    std::sort(stripes.begin(), stripes.end());
    stripes.erase(std::unique(stripes.begin(), stripes.end()), stripes.end());
    for (std::atomic<uint64_t>* stripe : stripes) {
      if (!LockStripeForCommit(tx, stripe)) {
        AbortInternal(tx, AbortCode::kConflict);
      }
    }
  }

  // Validate the read set: every entry must still hold the value first
  // observed (a stripe: unlocked at that version; a lock word: no holder
  // since) — or be a stripe this commit locked at that version. A
  // write-only stripe may carry any version (we hold its lock).
  for (const ReadEntry& r : tx.reads) {
    const uint64_t now = r.word->load(std::memory_order_seq_cst);
    if (now == r.seen) {
      continue;
    }
    auto it = std::find_if(
        tx.locked.begin(), tx.locked.end(),
        [&](const LockedStripe& ls) { return ls.stripe == r.word; });
    if (it == tx.locked.end() || it->pre_lock_word != r.seen) {
      AbortInternal(tx, AbortCode::kConflict);
    }
  }

  // Publish the buffered writes, then release each stripe at its own next
  // version. The release fence orders the stripe locks before the value
  // stores for ValidatedRead's seqlock-style readers.
  std::atomic_thread_fence(std::memory_order_release);
  for (const WriteEntry& w : tx.writes) {
    w.addr->store(w.value, std::memory_order_relaxed);
  }
  for (const LockedStripe& ls : tx.locked) {
    ls.stripe->store(StripeBumped(ls.pre_lock_word),
                     std::memory_order_release);
  }

  BumpSlot(TxStats::kCommits);
  tx.depth = 0;
  tx.env = nullptr;
  tx.ResetSets();
}

// Re-checks every earlier read-set entry against the value it recorded,
// then records `word` at `seen` unless it is already an entry (the scan is
// the dedup). Passing means every value read so far was current together
// at this read, so a doomed transaction never computes on an inconsistent
// snapshot (opacity, at O(k) for the k-th entry).
void RecheckReads(TxContext& tx, const std::atomic<uint64_t>* word,
                  uint64_t seen) {
  bool recorded = false;
  for (const ReadEntry& r : tx.reads) {
    const bool same = r.word == word;
    const uint64_t now = same ? seen : r.word->load(std::memory_order_acquire);
    if (now != r.seen) [[unlikely]] {
      AbortInternal(tx, AbortCode::kConflict);
    }
    recorded |= same;
  }
  if (!recorded) {
    tx.reads.push_back({word, seen});
  }
}

// Counts `addr`'s line against the read capacity.
void AccountReadLine(TxContext& tx, const void* addr) {
  if (tx.read_lines.insert(CacheLineOf(addr)) &&
      tx.read_lines.size() > Config().read_capacity_lines) {
    AbortInternal(tx, AbortCode::kCapacity);
  }
}

// Validated read of `addr`, the core of every transactional data load. The
// w1/value/fence/w2 sequence returns a value that was current while the
// stripe sat unlocked at one version; RecheckReads then makes it current
// together with every earlier read.
uint64_t ValidatedRead(TxContext& tx, const std::atomic<uint64_t>* addr) {
  std::atomic<uint64_t>* stripe = StripeFor(addr);
  const uint64_t w1 = stripe->load(std::memory_order_acquire);
  if (StripeIsLocked(w1)) [[unlikely]] {
    AbortInternal(tx, AbortCode::kConflict);
  }
  const uint64_t value = addr->load(std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_acquire);
  if (stripe->load(std::memory_order_relaxed) != w1) [[unlikely]] {
    AbortInternal(tx, AbortCode::kConflict);
  }
  RecheckReads(tx, stripe, w1);
  return value;
}

// Non-transactional read with strong atomicity: a committer publishes its
// write set while holding the stripes, so waiting for an unlocked stripe
// guarantees we read the final committed value, never an in-flight one.
// (Real RTM commits atomically at xend, making this window impossible in
// hardware.) The wait load is seq_cst: a pessimistic lock holder's
// version-word RMW and this load pair with a committer's stripe-lock CAS
// and validation load (DESIGN.md §4.2).
uint64_t NonTxLoad(const std::atomic<uint64_t>* addr) {
  const std::atomic<uint64_t>* stripe = StripeFor(addr);
  while (StripeIsLocked(stripe->load(std::memory_order_seq_cst))) {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
  }
  return addr->load(std::memory_order_acquire);
}

// The one non-transactional write protocol — TxStore/TxFetchAdd outside a
// transaction and StripeGuardedUpdate: lock `stripe`, run `fn`, release
// the stripe at its own next version, so every transaction that read the
// stripe fails its next validation. The seq_cst CAS is this side of the
// Dekker pairs LockStripeForCommit describes; the release fence orders the
// lock before `fn`'s stores, as in LockStripeForCommit's publish.
template <typename Fn>
void UnderStripeLock(std::atomic<uint64_t>* stripe, Fn&& fn) {
  uint64_t word = stripe->load(std::memory_order_relaxed);
  while (StripeIsLocked(word) ||
         !stripe->compare_exchange_weak(word, word | kStripeLockedBit,
                                        std::memory_order_seq_cst,
                                        std::memory_order_relaxed)) {
    word = stripe->load(std::memory_order_relaxed);
  }
  std::atomic_thread_fence(std::memory_order_release);
  fn();
  stripe->store(StripeBumped(word), std::memory_order_release);
}

// Appends a new write-set entry, indexing the set once it spills.
void AppendWrite(TxContext& tx, std::atomic<uint64_t>* addr, uint64_t value) {
  tx.writes.push_back({addr, value});
  if (tx.writes_spilled) {
    tx.write_index.emplace(addr, tx.writes.size() - 1);
  } else if (tx.writes.size() > SmallSet<uintptr_t>::kSpill) {
    for (size_t i = 0; i < tx.writes.size(); ++i) {
      tx.write_index.emplace(tx.writes[i].addr, i);
    }
    tx.writes_spilled = true;
  }
}

// SimTM subscription: the lock word itself is the read-set entry. No
// lock-bit test (the caller classifies the value) and no write-set lookup
// (lock words are never written transactionally).
uint64_t SimSubscribe(TxContext& tx, const std::atomic<uint64_t>* word) {
  if (tx.depth == 0) [[unlikely]] {
    return word->load(std::memory_order_acquire);
  }
  const uint64_t value = word->load(std::memory_order_acquire);
  RecheckReads(tx, word, value);
  AccountReadLine(tx, word);
  MaybeInjectedAbort(tx, fault::Site::kLoad);
  MaybeSpuriousAbort(tx);
  return value;
}

}  // namespace

TxStats& GlobalTxStats() { return g_stats; }

std::string TxStats::ToString() const {
  return StrFormat(
      "begins=%llu commits=%llu (ro=%llu) aborts{conflict=%llu capacity=%llu "
      "explicit=%llu lock_held=%llu mismatch=%llu spurious=%llu "
      "occ_validate=%llu}",
      static_cast<unsigned long long>(begins.load(std::memory_order_relaxed)),
      static_cast<unsigned long long>(commits.load(std::memory_order_relaxed)),
      static_cast<unsigned long long>(
          read_only_commits.load(std::memory_order_relaxed)),
      static_cast<unsigned long long>(
          aborts_conflict.load(std::memory_order_relaxed)),
      static_cast<unsigned long long>(
          aborts_capacity.load(std::memory_order_relaxed)),
      static_cast<unsigned long long>(
          aborts_explicit.load(std::memory_order_relaxed)),
      static_cast<unsigned long long>(
          aborts_lock_held.load(std::memory_order_relaxed)),
      static_cast<unsigned long long>(
          aborts_mutex_mismatch.load(std::memory_order_relaxed)),
      static_cast<unsigned long long>(
          aborts_spurious.load(std::memory_order_relaxed)),
      static_cast<unsigned long long>(
          aborts_occ_validate.load(std::memory_order_relaxed)));
}

bool InTx() {
  switch (CurrentBackend()) {
    case Backend::kRtm:
      return RtmInTx();
    case Backend::kSwOcc:
      return SwOccInTx();
    case Backend::kSim:
      break;
  }
  return Tls().depth > 0;
}

int TxDepth() {
  if (CurrentBackend() == Backend::kSwOcc) {
    return SwOccDepth();
  }
  return Tls().depth;
}

BeginStatus TxBeginImpl(int setjmp_result, std::jmp_buf* env) {
  if (CurrentBackend() == Backend::kSwOcc) {
    return SwOccBeginImpl(setjmp_result, env);
  }
  if (CurrentBackend() == Backend::kRtm) {
    // Pre-RTM decision path: an injected code is reported exactly like an
    // xbegin that aborted before the transaction ran (models best-effort
    // refusal and TSX being disabled mid-run by microcode).
    if (!RtmInTx()) {
      AbortCode injected = fault::MaybeInject(fault::Site::kBegin);
      if (injected != AbortCode::kNone) {
        g_stats.RecordAbort(injected);
        return BeginStatus{false, injected};
      }
    }
    BeginStatus status = RtmBegin();
    if (status.started) {
      g_stats.begins.fetch_add(1, std::memory_order_relaxed);
    } else {
      g_stats.RecordAbort(status.abort_code);
    }
    return status;
  }

  TxContext& tx = Tls();
  if (setjmp_result != 0) {
    // An abort long-jumped back to the checkpoint; report it like xbegin
    // reporting the abort status in EAX.
    return BeginStatus{false, static_cast<AbortCode>(setjmp_result)};
  }
  if (tx.depth > 0) {
    // Flat nesting (RTM semantics): the nested transaction subsumes into the
    // outermost one; aborts roll back to the outermost checkpoint.
    ++tx.depth;
    return BeginStatus{true, AbortCode::kNone};
  }
  {
    // Outermost SimTM begin: an injected failure is reported through the
    // BeginStatus (no checkpoint exists yet to long-jump to).
    AbortCode injected = fault::MaybeInject(fault::Site::kBegin);
    if (injected != AbortCode::kNone) {
      g_stats.RecordAbort(injected);
      return BeginStatus{false, injected};
    }
  }
  tx.depth = 1;
  tx.env = env;
  // No ResetSets here: every transaction exit (commit or abort) clears the
  // sets, so they are already clean on entry.
  BumpSlot(TxStats::kBegins);
  return BeginStatus{true, AbortCode::kNone};
}

void TxCommit() {
  if (CurrentBackend() == Backend::kSwOcc) {
    SwOccCommit();
    return;
  }
  if (CurrentBackend() == Backend::kRtm) {
    RtmCommit();
    g_stats.commits.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  TxContext& tx = Tls();
  if (tx.depth == 0) {
    // Defensive (DESIGN.md §4.9): a misuse-recovered episode — e.g. an
    // unpaired FastUnlock cancelled via TxCancel inside flat nesting — can
    // leave an enclosing FastUnlock committing at depth zero. That flow has
    // already been counted as misuse; committing nothing is the defined
    // recovery, not UB.
    return;
  }
  if (--tx.depth > 0) {
    return;  // nested commit defers to the outermost (RTM behaviour)
  }
  tx.depth = 1;  // CommitOutermost may abort; keep state coherent until done
  MaybeInjectedAbort(tx, fault::Site::kCommit);
  CommitOutermost(tx);
}

void TxAbort(AbortCode code) {
  if (CurrentBackend() == Backend::kSwOcc) {
    SwOccAbort(code);
  }
  if (CurrentBackend() == Backend::kRtm) {
    RtmAbort(code);
  }
  TxContext& tx = Tls();
  assert(tx.depth > 0 && "TxAbort outside a transaction");
  AbortInternal(tx, code);
  // AbortInternal does not return.
  std::abort();
}

void TxCancel(AbortCode code) {
  if (CurrentBackend() == Backend::kSwOcc) {
    SwOccCancel(code);
    return;
  }
  if (CurrentBackend() == Backend::kRtm) {
    // An exception unwind cannot reach software with a hardware transaction
    // still open: the first unwind step aborts it back to xbegin
    // ("unwind-is-abort"). Nothing to cancel here.
    return;
  }
  TxContext& tx = Tls();
  if (tx.depth == 0) {
    return;
  }
  RollbackInternal(tx, code);
}

uint64_t TxLoad(const std::atomic<uint64_t>* addr) {
  if (CurrentBackend() == Backend::kSwOcc) {
    return SwOccLoad(addr);
  }
  if (CurrentBackend() == Backend::kRtm) {
    // Inside an RTM transaction the hardware versions this load; outside,
    // it is a plain shared read.
    return addr->load(std::memory_order_acquire);
  }
  TxContext& tx = Tls();
  if (tx.depth == 0) {
    return NonTxLoad(addr);
  }
  if (const WriteEntry* w = FindWrite(tx, addr)) {
    return w->value;
  }
  const uint64_t value = ValidatedRead(tx, addr);
  AccountReadLine(tx, addr);
  MaybeInjectedAbort(tx, fault::Site::kLoad);
  MaybeSpuriousAbort(tx);
  return value;
}

void TxStore(std::atomic<uint64_t>* addr, uint64_t value) {
  if (CurrentBackend() == Backend::kSwOcc) {
    SwOccStore(addr, value);
    return;
  }
  if (CurrentBackend() == Backend::kRtm) {
    if (RtmInTx()) {
      addr->store(value, std::memory_order_relaxed);
    } else {
      addr->store(value, std::memory_order_release);
    }
    return;
  }
  TxContext& tx = Tls();
  if (tx.depth == 0) {
    // Strong atomicity: the stripe bump makes the non-transactional store
    // visible to concurrent transactions' validation.
    UnderStripeLock(StripeFor(addr),
                    [&] { addr->store(value, std::memory_order_relaxed); });
    return;
  }

  if (tx.write_lines.insert(CacheLineOf(addr)) &&
      tx.write_lines.size() > Config().write_capacity_lines) {
    AbortInternal(tx, AbortCode::kCapacity);
  }
  if (WriteEntry* w = FindWrite(tx, addr)) {
    w->value = value;
  } else {
    AppendWrite(tx, addr, value);
  }
  MaybeInjectedAbort(tx, fault::Site::kStore);
  MaybeSpuriousAbort(tx);
}

uint64_t TxSubscribe(const std::atomic<uint64_t>* word) {
  const Backend backend = CurrentBackend();
  if (backend == Backend::kSwOcc) [[unlikely]] {
    return SwOccSubscribe(word);
  }
  if (backend == Backend::kRtm) [[unlikely]] {
    return word->load(std::memory_order_acquire);
  }
  return SimSubscribe(Tls(), word);
}

uint64_t TxFetchAdd(std::atomic<uint64_t>* addr, uint64_t delta) {
  if (CurrentBackend() == Backend::kSwOcc) {
    return SwOccFetchAdd(addr, delta);
  }
  if (CurrentBackend() == Backend::kRtm) {
    if (RtmInTx()) {
      uint64_t next = addr->load(std::memory_order_relaxed) + delta;
      addr->store(next, std::memory_order_relaxed);
      return next;
    }
    return addr->fetch_add(delta, std::memory_order_acq_rel) + delta;
  }
  TxContext& tx = Tls();
  if (tx.depth == 0) {
    // Non-transactional RMW under the stripe lock: strongly atomic against
    // both committing transactions and other non-transactional updaters.
    uint64_t next = 0;
    UnderStripeLock(StripeFor(addr), [&] {
      next = addr->load(std::memory_order_relaxed) + delta;
      addr->store(next, std::memory_order_relaxed);
    });
    return next;
  }

  if (WriteEntry* w = FindWrite(tx, addr)) {
    // The cell is already ours: the buffered value is the transaction-local
    // truth, no stripe validation or set accounting is needed.
    w->value += delta;
    MaybeInjectedAbort(tx, fault::Site::kStore);
    MaybeSpuriousAbort(tx);
    return w->value;
  }

  uint64_t value = ValidatedRead(tx, addr);
  AccountReadLine(tx, addr);
  if (tx.write_lines.insert(CacheLineOf(addr)) &&
      tx.write_lines.size() > Config().write_capacity_lines) {
    AbortInternal(tx, AbortCode::kCapacity);
  }
  value += delta;
  AppendWrite(tx, addr, value);
  MaybeInjectedAbort(tx, fault::Site::kLoad);
  MaybeInjectedAbort(tx, fault::Site::kStore);
  MaybeSpuriousAbort(tx);
  return value;
}

void StripeGuardedUpdate(const void* addr, void (*fn)(void*), void* arg) {
  const Backend backend = CurrentBackend();
  if (backend == Backend::kRtm || backend == Backend::kSwOcc) {
    // Real RTM gets strong atomicity from cache coherence. Under sw-OCC
    // nothing validates against the stripes, so the guarded update is just
    // the update.
    fn(arg);
    return;
  }
  UnderStripeLock(StripeFor(addr), [&] { fn(arg); });
}

}  // namespace gocc::htm
