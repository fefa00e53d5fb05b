#include "src/htm/tx.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <functional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/htm/fault.h"
#include "src/htm/rtm_backend.h"
#include "src/htm/stats.h"
#include "src/htm/swocc_backend.h"
#include "src/support/rng.h"

namespace gocc::htm {
namespace {

constexpr int kCommitLockSpins = 256;

inline uintptr_t CacheLineOf(const void* addr) {
  return reinterpret_cast<uintptr_t>(addr) >> 6;
}

// The unlocked word that releases a cell locked from `unlocked_word` after
// a write under its lock: the cell's own next version.
inline uint64_t Bumped(uint64_t unlocked_word) {
  return (CellVersion(unlocked_word) + 1) << 1;
}

// A read-set entry: a cell's version word, or a subscribed lock word
// (TxSubscribe), and the value it held when first read. Both kinds
// validate by value equality.
struct ReadEntry {
  const std::atomic<uint64_t>* word;
  uint64_t seen;
};

struct WriteEntry {
  TxCell* cell;
  uint64_t value;
  uint64_t pre_lock_word;  // once the commit holds the cell: the unlocked
                           // version word its lock CAS replaced
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

  // One entry per distinct version or lock word read (RecheckReads dedups).
  std::vector<ReadEntry> reads;
  // One entry per distinct cell written.
  std::vector<WriteEntry> writes;
  // Populated only once the write set spills past SmallSet::kSpill entries;
  // below that, write lookups linear-scan `writes` directly.
  std::unordered_map<const TxCell*, size_t> write_index;
  bool writes_spilled = false;
  SmallSet<uintptr_t> read_lines;
  SmallSet<uintptr_t> write_lines;

  // During a commit, writes[0, locked) are the cells it holds (released on
  // abort).
  size_t locked = 0;

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
    locked = 0;
  }
};

// The write-set entry for `cell`, or nullptr. Linear scan below the spill
// threshold, hash lookup above it.
WriteEntry* FindWrite(TxContext& tx, const TxCell* cell) {
  if (!tx.writes_spilled) {
    for (WriteEntry& w : tx.writes) {
      if (w.cell == cell) {
        return &w;
      }
    }
    return nullptr;
  }
  auto it = tx.write_index.find(cell);
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

// Rollback half of an abort: releases cells held by an in-progress commit,
// records the abort, and clears all transaction state. Shared by
// AbortInternal (which then long-jumps) and TxCancel (which returns so a
// C++ exception can keep unwinding).
void RollbackInternal(TxContext& tx, AbortCode code) {
  for (size_t i = 0; i < tx.locked; ++i) {
    tx.writes[i].cell->version.store(tx.writes[i].pre_lock_word,
                                     std::memory_order_release);
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

// Locks `w`'s cell for commit; returns false after bounded spinning. The
// CAS is seq_cst: it and the seq_cst validation loads that follow are all
// that orders this commit against another thread's cell lock and later
// loads (the Dekker pairs of DESIGN.md §4.2).
bool LockCellForCommit(WriteEntry& w) {
  std::atomic<uint64_t>& version = w.cell->version;
  for (int spin = 0; spin < kCommitLockSpins; ++spin) {
    uint64_t word = version.load(std::memory_order_relaxed);
    if (!CellIsLocked(word) &&
        version.compare_exchange_weak(word, word | kCellLockedBit,
                                      std::memory_order_seq_cst,
                                      std::memory_order_relaxed)) {
      w.pre_lock_word = word;
      return true;
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

  // Lock the written cells in address order (prevents deadlock between
  // committers). The write set holds each cell once, so ordering it is the
  // whole job; a single write has nothing to sort. The sort leaves
  // write_index stale, which is harmless: the transaction ends here.
  if (tx.writes.size() > 1) {
    std::sort(tx.writes.begin(), tx.writes.end(),
              [](const WriteEntry& a, const WriteEntry& b) {
                return std::less<>{}(a.cell, b.cell);
              });
  }
  for (WriteEntry& w : tx.writes) {
    if (!LockCellForCommit(w)) {
      AbortInternal(tx, AbortCode::kConflict);
    }
    ++tx.locked;
  }

  // Validate the read set: every entry must still hold the value first
  // observed (a cell: unlocked at that version; a lock word: no holder
  // since) — or be a cell this commit locked at that version. A write-only
  // cell may carry any version (we hold its lock).
  for (const ReadEntry& r : tx.reads) {
    const uint64_t now = r.word->load(std::memory_order_seq_cst);
    if (now == r.seen) {
      continue;
    }
    auto it = std::find_if(
        tx.writes.begin(), tx.writes.end(),
        [&](const WriteEntry& w) { return &w.cell->version == r.word; });
    if (it == tx.writes.end() || it->pre_lock_word != r.seen) {
      AbortInternal(tx, AbortCode::kConflict);
    }
  }

  // Publish each buffered write and release its cell at the cell's own next
  // version. The release fence orders the cell locks before the value
  // stores for ValidatedRead's seqlock-style readers.
  std::atomic_thread_fence(std::memory_order_release);
  for (const WriteEntry& w : tx.writes) {
    w.cell->value.store(w.value, std::memory_order_relaxed);
    w.cell->version.store(Bumped(w.pre_lock_word), std::memory_order_release);
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

// Validated read of `cell`, the core of every transactional data load. The
// w1/value/fence/w2 sequence returns a value that was current while the
// cell sat unlocked at one version; RecheckReads then makes it current
// together with every earlier read.
uint64_t ValidatedRead(TxContext& tx, const TxCell* cell) {
  const uint64_t w1 = cell->version.load(std::memory_order_acquire);
  if (CellIsLocked(w1)) [[unlikely]] {
    AbortInternal(tx, AbortCode::kConflict);
  }
  const uint64_t value = cell->value.load(std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_acquire);
  if (cell->version.load(std::memory_order_relaxed) != w1) [[unlikely]] {
    AbortInternal(tx, AbortCode::kConflict);
  }
  RecheckReads(tx, &cell->version, w1);
  return value;
}

// Non-transactional read with strong atomicity: a committer publishes its
// write set while holding the written cells, so waiting for an unlocked
// cell guarantees we read the final committed value, never an in-flight
// one. (Real RTM commits atomically at xend, making this window impossible
// in hardware.) The wait load is seq_cst: a pessimistic lock holder's
// version-word RMW and this load pair with a committer's cell-lock CAS and
// validation load (DESIGN.md §4.2).
uint64_t NonTxLoad(const TxCell* cell) {
  while (CellIsLocked(cell->version.load(std::memory_order_seq_cst))) {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
  }
  return cell->value.load(std::memory_order_acquire);
}

// The one non-transactional write protocol — TxStore/TxFetchAdd outside a
// transaction and CellGuardedUpdate: lock `cell`'s version word, run
// `fn`, release the word at the cell's next version, so every transaction
// that read the cell fails its next validation. The seq_cst CAS is this
// side of the Dekker pairs LockCellForCommit describes; the release fence
// orders the lock before `fn`'s stores, as in CommitOutermost's publish.
template <typename Fn>
void UnderCellLock(TxCell* cell, Fn&& fn) {
  std::atomic<uint64_t>& version = cell->version;
  uint64_t word = version.load(std::memory_order_relaxed);
  while (CellIsLocked(word) ||
         !version.compare_exchange_weak(word, word | kCellLockedBit,
                                        std::memory_order_seq_cst,
                                        std::memory_order_relaxed)) {
    word = version.load(std::memory_order_relaxed);
  }
  std::atomic_thread_fence(std::memory_order_release);
  fn();
  version.store(Bumped(word), std::memory_order_release);
}

// Appends a new write-set entry, indexing the set once it spills.
void AppendWrite(TxContext& tx, TxCell* cell, uint64_t value) {
  tx.writes.push_back({cell, value, 0});
  if (tx.writes_spilled) {
    tx.write_index.emplace(cell, tx.writes.size() - 1);
  } else if (tx.writes.size() > SmallSet<uintptr_t>::kSpill) {
    for (size_t i = 0; i < tx.writes.size(); ++i) {
      tx.write_index.emplace(tx.writes[i].cell, i);
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
  return support::RenderCounters(kTxStatsRows, Counts());
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

uint64_t TxLoad(const TxCell* cell) {
  if (CurrentBackend() == Backend::kSwOcc) {
    return SwOccLoad(&cell->value);
  }
  if (CurrentBackend() == Backend::kRtm) {
    // Inside an RTM transaction the hardware versions this load; outside,
    // it is a plain shared read.
    return cell->value.load(std::memory_order_acquire);
  }
  TxContext& tx = Tls();
  if (tx.depth == 0) {
    return NonTxLoad(cell);
  }
  if (const WriteEntry* w = FindWrite(tx, cell)) {
    return w->value;
  }
  const uint64_t value = ValidatedRead(tx, cell);
  AccountReadLine(tx, cell);
  MaybeInjectedAbort(tx, fault::Site::kLoad);
  MaybeSpuriousAbort(tx);
  return value;
}

void TxStore(TxCell* cell, uint64_t value) {
  if (CurrentBackend() == Backend::kSwOcc) {
    SwOccStore(&cell->value, value);
    return;
  }
  if (CurrentBackend() == Backend::kRtm) {
    if (RtmInTx()) {
      cell->value.store(value, std::memory_order_relaxed);
    } else {
      cell->value.store(value, std::memory_order_release);
    }
    return;
  }
  TxContext& tx = Tls();
  if (tx.depth == 0) {
    // Strong atomicity: the version bump makes the non-transactional store
    // visible to concurrent transactions' validation.
    UnderCellLock(cell,
                  [&] { cell->value.store(value, std::memory_order_relaxed); });
    return;
  }

  if (tx.write_lines.insert(CacheLineOf(cell)) &&
      tx.write_lines.size() > Config().write_capacity_lines) {
    AbortInternal(tx, AbortCode::kCapacity);
  }
  if (WriteEntry* w = FindWrite(tx, cell)) {
    w->value = value;
  } else {
    AppendWrite(tx, cell, value);
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

uint64_t TxFetchAdd(TxCell* cell, uint64_t delta) {
  std::atomic<uint64_t>& word = cell->value;
  if (CurrentBackend() == Backend::kSwOcc) {
    return SwOccFetchAdd(&word, delta);
  }
  if (CurrentBackend() == Backend::kRtm) {
    if (RtmInTx()) {
      uint64_t next = word.load(std::memory_order_relaxed) + delta;
      word.store(next, std::memory_order_relaxed);
      return next;
    }
    return word.fetch_add(delta, std::memory_order_acq_rel) + delta;
  }
  TxContext& tx = Tls();
  if (tx.depth == 0) {
    // Non-transactional RMW under the cell's lock: strongly atomic against
    // both committing transactions and other non-transactional updaters.
    uint64_t next = 0;
    UnderCellLock(cell, [&] {
      next = word.load(std::memory_order_relaxed) + delta;
      word.store(next, std::memory_order_relaxed);
    });
    return next;
  }

  if (WriteEntry* w = FindWrite(tx, cell)) {
    // The cell is already ours: the buffered value is the transaction-local
    // truth, no validation or set accounting is needed.
    w->value += delta;
    MaybeInjectedAbort(tx, fault::Site::kStore);
    MaybeSpuriousAbort(tx);
    return w->value;
  }

  uint64_t value = ValidatedRead(tx, cell);
  AccountReadLine(tx, cell);
  if (tx.write_lines.insert(CacheLineOf(cell)) &&
      tx.write_lines.size() > Config().write_capacity_lines) {
    AbortInternal(tx, AbortCode::kCapacity);
  }
  value += delta;
  AppendWrite(tx, cell, value);
  MaybeInjectedAbort(tx, fault::Site::kLoad);
  MaybeInjectedAbort(tx, fault::Site::kStore);
  MaybeSpuriousAbort(tx);
  return value;
}

void CellGuardedUpdate(TxCell* cell, void (*fn)(void*), void* arg) {
  const Backend backend = CurrentBackend();
  if (backend == Backend::kRtm || backend == Backend::kSwOcc) {
    // Real RTM gets strong atomicity from cache coherence. Under sw-OCC
    // nothing validates against cell version words, so the guarded update
    // is just the update.
    fn(arg);
    return;
  }
  UnderCellLock(cell, [&] { fn(arg); });
}

}  // namespace gocc::htm
