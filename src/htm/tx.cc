#include "src/htm/tx.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/htm/fault.h"
#include "src/htm/rtm_backend.h"
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

constexpr int kCommitLockSpins = 256;

inline uintptr_t CacheLineOf(const void* addr) {
  return reinterpret_cast<uintptr_t>(addr) >> 6;
}

// The unlocked word that releases a cell locked from `unlocked_word` after
// a write under its lock: the cell's own next version.
inline uint64_t Bumped(uint64_t unlocked_word) {
  return (CellVersion(unlocked_word) + 1) << 1;
}

// A read-set entry: a word and the value it held when first read. SimTM
// records cell version words and subscribed lock words, sw-OCC only its
// subscribed lock words; every entry validates by value equality.
struct ReadEntry {
  const std::atomic<uint64_t>* word;
  uint64_t seen;
};

struct WriteEntry {
  TxCell* cell;
  uint64_t value;
};

// A word a writing commit holds — a SimTM written cell's version word or a
// lock word sw-OCC subscribed — and the unlocked value its lock CAS
// replaced (released on abort).
struct HeldWord {
  std::atomic<uint64_t>* word;
  uint64_t pre;
};

// Write lookups linear-scan the write set up to this many entries; a
// larger set is indexed by a hash map (FindWrite), where the scan would be
// quadratic.
constexpr size_t kWriteIndexSpill = 16;

// Per-thread transaction context of both software backends (the backend is
// fixed while any transaction is open, config.h). Containers keep their
// capacity across transactions, so steady-state operation allocates nothing.
struct TxContext {
  int depth = 0;
  std::jmp_buf* env = nullptr;

  // One entry per distinct word read (RecheckReads and OccSubscribe dedup).
  std::vector<ReadEntry> reads;
  // One entry per distinct cell written.
  std::vector<WriteEntry> writes;
  // Populated only once the write set spills past kWriteIndexSpill entries;
  // below that, write lookups linear-scan `writes` directly.
  std::unordered_map<const TxCell*, size_t> write_index;
  bool writes_spilled = false;
  // SimTM's capacity accounting: the distinct lines read and written.
  // Distinct lines never outnumber entries, so each set stays empty until
  // its entries pass the capacity (AccountReadLine, WriteLinesOverflow); a
  // transaction below both capacities keeps no line set at all.
  std::unordered_set<uintptr_t> read_lines;
  std::unordered_set<uintptr_t> write_lines;
  // During a writing commit, the words it holds.
  std::vector<HeldWord> held;

  SplitMix64 rng{0};
  bool rng_seeded = false;

  // Ends the transaction: no depth, no checkpoint, empty sets.
  void Clear() {
    depth = 0;
    env = nullptr;
    reads.clear();
    writes.clear();
    if (writes_spilled) {
      write_index.clear();
      writes_spilled = false;
    }
    // clear() zeroes the bucket array even when the set is empty, and the
    // array keeps the size a built set grew it to.
    if (!read_lines.empty()) {
      read_lines.clear();
    }
    if (!write_lines.empty()) {
      write_lines.clear();
    }
    held.clear();
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

// Moves a sw-OCC word this commit holds to `to`, keeping a writer-pending
// flag raised while it was held (only that bit can change under us: the
// exclusive flag serializes every other writer of the word).
void ReleaseOccWord(const HeldWord& h, uint64_t to) {
  uint64_t cur = OccAcquired(h.pre);
  while (!h.word->compare_exchange_weak(cur, to | (cur & kOccWriterPendingBit),
                                        std::memory_order_release,
                                        std::memory_order_relaxed)) {
  }
}

// Rollback half of an abort: returns the words an in-progress commit holds
// to their pre-lock values (no write was published yet: publication starts
// only once every word is held), records the abort, and ends the
// transaction. Shared by AbortInternal (which then long-jumps) and TxCancel
// (which returns so a C++ exception can keep unwinding).
void RollbackInternal(TxContext& tx, AbortCode code) {
  const bool occ = ActiveBackend() == Backend::kSwOcc;
  for (const HeldWord& h : tx.held) {
    if (occ) {
      ReleaseOccWord(h, h.pre);
    } else {
      h.word->store(h.pre, std::memory_order_release);
    }
  }
  g_stats.RecordAbort(code);
  tx.Clear();
}

[[noreturn]] void AbortInternal(TxContext& tx, AbortCode code) {
  std::jmp_buf* env = tx.env;
  RollbackInternal(tx, code);
  assert(env != nullptr && "software-TM abort without a checkpoint");
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

// Reader-side poison check (misuse taxonomy): a subscribed word that turned
// into the destructor's poison pattern means the episode outlived its
// mutex. Report once per detection, then abort — under the recover policy
// the episode's retry loop re-subscribes, sees poison as "held", and
// degrades to the slow path, which is the same terminal state SimTM
// reaches when it sees the poisoned word.
[[noreturn]] void ReportPoisonedRead(TxContext& tx,
                                     const std::atomic<uint64_t>* word) {
  support::ReportMisuse(support::MisuseKind::kElidedUseAfterDestroy, word,
                        "occ-word-poisoned-mid-episode");
  AbortInternal(tx, AbortCode::kOccValidateFail);
}

// sw-OCC validation: every subscribed word must still hold its subscribed
// value. The loads are relaxed: every caller has just made an acquire load
// (of a value or a word), which keeps them after it.
void ValidateSubscriptions(TxContext& tx) {
  for (const ReadEntry& r : tx.reads) {
    const uint64_t cur = r.word->load(std::memory_order_relaxed);
    if (cur != r.seen) {
      if (OccIsPoisoned(cur)) {
        ReportPoisonedRead(tx, r.word);
      }
      AbortInternal(tx, AbortCode::kOccValidateFail);
    }
  }
}

// Stores `value` into a cell the caller holds locked from `pre`, then
// releases the cell at its next version. The value store is a release (the
// writer half of Boehm's fence-free seqlock): a reader whose acquire load
// of the value sees it also sees the locked or bumped word at its next
// version-word load, so ReadCell needs no fence.
void PublishCell(TxCell* cell, uint64_t value, uint64_t pre) {
  cell->value.store(value, std::memory_order_release);
  cell->version.store(Bumped(pre), std::memory_order_release);
}

// Locks `cell` for commit, recording it as held; returns false after
// bounded spinning. The CAS is seq_cst: it and the seq_cst validation loads
// that follow are all that orders this commit against another thread's
// cell lock and later loads (the Dekker pairs of DESIGN.md §4.2).
bool LockCellForCommit(TxContext& tx, TxCell* cell) {
  std::atomic<uint64_t>& version = cell->version;
  for (int spin = 0; spin < kCommitLockSpins; ++spin) {
    uint64_t word = version.load(std::memory_order_relaxed);
    if (!CellIsLocked(word) &&
        version.compare_exchange_weak(word, word | kCellLockedBit,
                                      std::memory_order_seq_cst,
                                      std::memory_order_relaxed)) {
      tx.held.push_back({&version, word});
      return true;
    }
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
  }
  return false;
}

// SimTM's writing commit: lock the written cells, validate the read set,
// publish. held[i] is writes[i]'s version word.
void CommitSimWrites(TxContext& tx) {
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
  for (const WriteEntry& w : tx.writes) {
    if (!LockCellForCommit(tx, w.cell)) {
      AbortInternal(tx, AbortCode::kConflict);
    }
  }

  // Validate the read set: every entry must still hold the value first
  // observed (a cell: unlocked at that version; a lock word: no holder
  // since) — or be a cell this commit locked at that version. A write-only
  // cell may carry any version (we hold its lock). An entry that moved is a
  // conflict or a cell read and then written, now locked by this commit;
  // binary search finds the latter in the address-sorted write set (a
  // cell's version word is its first member, so both sort alike).
  for (const ReadEntry& r : tx.reads) {
    const uint64_t now = r.word->load(std::memory_order_seq_cst);
    if (now == r.seen) {
      continue;
    }
    auto it = std::lower_bound(
        tx.writes.begin(), tx.writes.end(), r.word,
        [](const WriteEntry& w, const std::atomic<uint64_t>* word) {
          return std::less<>{}(&w.cell->version, word);
        });
    if (it == tx.writes.end() || &it->cell->version != r.word ||
        tx.held[static_cast<size_t>(it - tx.writes.begin())].pre != r.seen) {
      AbortInternal(tx, AbortCode::kConflict);
    }
  }

  for (size_t i = 0; i < tx.writes.size(); ++i) {
    PublishCell(tx.writes[i].cell, tx.writes[i].value, tx.held[i].pre);
  }
}

// sw-OCC's writing commit: CAS every subscribed word from its subscribed
// value to its bumped exclusive successor, in address order (the CAS *is*
// the validation: any intervening exclusive owner changed the version; a
// failure aborts and never spins, so two committers cannot hold-and-wait),
// publish the buffered writes, then release the words at the new version.
void CommitOccWrites(TxContext& tx) {
  std::sort(tx.reads.begin(), tx.reads.end(),
            [](const ReadEntry& a, const ReadEntry& b) {
              return std::less<>{}(a.word, b.word);
            });
  for (const ReadEntry& r : tx.reads) {
    auto* word = const_cast<std::atomic<uint64_t>*>(r.word);
    uint64_t expected = r.seen;
    if (!word->compare_exchange_strong(expected, OccAcquired(r.seen),
                                       std::memory_order_acq_rel,
                                       std::memory_order_relaxed)) {
      if (OccIsPoisoned(expected)) {
        ReportPoisonedRead(tx, r.word);
      }
      AbortInternal(tx, AbortCode::kOccValidateFail);
    }
    tx.held.push_back({word, r.seen});
  }

  // Release stores: a reader whose acquire load sees a published value
  // also sees its subscribed word exclusive (or bumped) at its next
  // validation. A raw transaction with writes but no subscription publishes
  // unguarded (only subscribing episodes get isolation, DESIGN.md §4.10).
  for (const WriteEntry& w : tx.writes) {
    w.cell->value.store(w.value, std::memory_order_release);
  }
  // Chaos hooks on the publish window: a stall here is a "delayed unlock"
  // (the words stay exclusive, widening the window concurrent subscribers
  // observe); an injected code is "version skew" (the release version jumps
  // by an extra step, probing that nothing downstream assumes version
  // continuity).
  fault::MaybeStallAt(fault::Site::kOccPublish);
  const bool skew =
      fault::MaybeInject(fault::Site::kOccPublish) != AbortCode::kNone;
  for (const HeldWord& h : tx.held) {
    uint64_t release = OccAcquired(h.pre) & ~kOccExclusiveBit;
    if (skew) {
      release = OccAcquired(release) & ~kOccExclusiveBit;
    }
    ReleaseOccWord(h, release);
  }
  GlobalSwOccWordStats().occ_publishes.fetch_add(1, std::memory_order_relaxed);
}

void CommitOutermost(TxContext& tx, Backend backend) {
  const bool occ = backend == Backend::kSwOcc;
  if (occ) {
    // Forced validation failure (chaos: models a validation step that
    // loses every race) sits before the organic check so schedules can
    // target it precisely.
    MaybeInjectedAbort(tx, fault::Site::kOccValidate);
  }
  if (tx.writes.empty()) {
    // Read-only transaction: SimTM's reads each re-validated all earlier
    // ones, so they were consistent at the last read — the transaction
    // serializes there; sw-OCC re-validates its subscriptions once more.
    // Neither stores to shared memory.
    if (occ) {
      ValidateSubscriptions(tx);
    }
    std::atomic<uint64_t>* shard = g_stats.LocalShard();
    BumpSlot(shard, TxStats::kCommits);
    BumpSlot(shard, TxStats::kReadOnlyCommits);
    tx.Clear();
    return;
  }
  if (occ) {
    CommitOccWrites(tx);
  } else {
    CommitSimWrites(tx);
  }
  BumpSlot(TxStats::kCommits);
  tx.Clear();
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

// Counts the line of the read just recorded at `addr` against SimTM's read
// capacity. The reads cannot span more lines than they have entries, so
// nothing is counted until the entries first pass the capacity; then the
// line set is built from every entry, this one included, and it grows with
// each later read. The abort fires at the same read as a count kept from
// the first access would.
void AccountReadLine(TxContext& tx, const void* addr) {
  const size_t capacity = Config().read_capacity_lines;
  if (tx.reads.size() <= capacity) [[likely]] {
    return;
  }
  if (tx.read_lines.empty()) {
    for (const ReadEntry& r : tx.reads) {
      tx.read_lines.insert(CacheLineOf(r.word));
    }
  } else {
    tx.read_lines.insert(CacheLineOf(addr));
  }
  if (tx.read_lines.size() > capacity) {
    AbortInternal(tx, AbortCode::kCapacity);
  }
}

// SimTM's write capacity counts distinct lines, which never outnumber
// entries: the line set is built from the write set the first time the
// entries reach the capacity, then grows with each new entry. True when
// `cell`'s line takes the set past the capacity.
[[gnu::noinline]] bool WriteLinesOverflow(TxContext& tx, const TxCell* cell,
                                          size_t capacity) {
  if (tx.write_lines.empty()) {
    for (const WriteEntry& w : tx.writes) {
      tx.write_lines.insert(CacheLineOf(w.cell));
    }
  }
  tx.write_lines.insert(CacheLineOf(cell));
  return tx.write_lines.size() > capacity;
}

// The transactional read of `cell`'s committed value, the one access step
// where the backends differ.
//  * SimTM: the w1 / acquire value load / w2 sequence (Boehm's fence-free
//    seqlock reader) returns a value that was current while the cell sat
//    unlocked at one version; RecheckReads then makes it current together
//    with every earlier read, and the line counts against read capacity.
//  * sw-OCC: an invisible read. The acquire value load keeps the re-check
//    of every subscribed word after it, so a value a commit published
//    while holding a subscribed word fails the check (the commit's release
//    stores guarantee the reader sees that word exclusive or bumped).
// Forced inline, like AppendWrite: both sit on every transactional access,
// and GCC keeps them out of line once they hold both backends' branches,
// which cost perfbench ledger-hot about 3 % of its ops/s (4-vCPU x86-64).
[[gnu::always_inline]] inline uint64_t ReadCell(TxContext& tx,
                                                Backend backend,
                                                const TxCell* cell) {
  if (backend == Backend::kSwOcc) {
    const uint64_t value = cell->value.load(std::memory_order_acquire);
    ValidateSubscriptions(tx);
    return value;
  }
  const uint64_t w1 = cell->version.load(std::memory_order_acquire);
  if (CellIsLocked(w1)) [[unlikely]] {
    AbortInternal(tx, AbortCode::kConflict);
  }
  const uint64_t value = cell->value.load(std::memory_order_acquire);
  if (cell->version.load(std::memory_order_relaxed) != w1) [[unlikely]] {
    AbortInternal(tx, AbortCode::kConflict);
  }
  RecheckReads(tx, &cell->version, w1);
  AccountReadLine(tx, cell);
  return value;
}

// Appends a new write-set entry after charging it to the write capacity —
// SimTM counts distinct lines, sw-OCC distinct cells — and indexes the set
// once it spills. Below the capacity in entries neither count can be full.
[[gnu::always_inline]] inline void AppendWrite(TxContext& tx,
                                               Backend backend, TxCell* cell,
                                               uint64_t value) {
  const size_t capacity = Config().write_capacity_lines;
  if (tx.writes.size() >= capacity) [[unlikely]] {
    if (backend == Backend::kSwOcc ||
        WriteLinesOverflow(tx, cell, capacity)) {
      AbortInternal(tx, AbortCode::kCapacity);
    }
  }
  tx.writes.push_back({cell, value});
  if (tx.writes_spilled) {
    tx.write_index.emplace(cell, tx.writes.size() - 1);
  } else if (tx.writes.size() > kWriteIndexSpill) {
    for (size_t i = 0; i < tx.writes.size(); ++i) {
      tx.write_index.emplace(tx.writes[i].cell, i);
    }
    tx.writes_spilled = true;
  }
}

// Records a sw-OCC subscription. A poisoned word reports use-after-destroy;
// a word already subscribed must still hold its first value (a flat-nested
// episode racing an exclusive owner has an inconsistent snapshot). Returns
// false for such a repeat, which records nothing.
bool OccSubscribe(TxContext& tx, const std::atomic<uint64_t>* word,
                  uint64_t value) {
  if (OccIsPoisoned(value)) {
    ReportPoisonedRead(tx, word);
  }
  for (const ReadEntry& r : tx.reads) {
    if (r.word == word) {
      if (r.seen != value) {
        AbortInternal(tx, AbortCode::kOccValidateFail);
      }
      return false;
    }
  }
  tx.reads.push_back({word, value});
  return true;
}

// SimTM's non-transactional read with strong atomicity: a committer
// publishes its write set while holding the written cells, so waiting for
// an unlocked cell guarantees we read the final committed value, never an
// in-flight one. (Real RTM commits atomically at xend, making this window
// impossible in hardware.) The wait load is seq_cst: a pessimistic lock
// holder's version-word RMW and this load pair with a committer's cell-lock
// CAS and validation load (DESIGN.md §4.2).
uint64_t NonTxLoad(const TxCell* cell) {
  while (CellIsLocked(cell->version.load(std::memory_order_seq_cst))) {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
  }
  return cell->value.load(std::memory_order_acquire);
}

// Locks `cell`'s version word for a SimTM non-transactional write and
// returns the unlocked word it replaced; PublishCell releases it, so every
// transaction that read the cell fails its next validation. The seq_cst
// CAS is this side of the Dekker pairs LockCellForCommit describes.
uint64_t LockCell(TxCell* cell) {
  std::atomic<uint64_t>& version = cell->version;
  uint64_t word = version.load(std::memory_order_relaxed);
  while (CellIsLocked(word) ||
         !version.compare_exchange_weak(word, word | kCellLockedBit,
                                        std::memory_order_seq_cst,
                                        std::memory_order_relaxed)) {
    word = version.load(std::memory_order_relaxed);
  }
  return word;
}

// A store outside any transaction. SimTM makes it under the cell's lock
// (strong atomicity: the version bump makes it visible to concurrent
// transactions' validation). Real RTM gets strong atomicity from cache
// coherence, and sw-OCC validates no cell version words, so there it is a
// plain release store.
void StoreOutsideTx(Backend backend, TxCell* cell, uint64_t value) {
  if (backend == Backend::kSim) {
    PublishCell(cell, value, LockCell(cell));
  } else {
    cell->value.store(value, std::memory_order_release);
  }
}

}  // namespace

TxStats& GlobalTxStats() { return g_stats; }

std::string TxStats::ToString() const {
  return support::RenderCounters(kTxStatsRows, Counts());
}

bool InTx() {
  if (ActiveBackend() == Backend::kRtm) {
    return RtmInTx();
  }
  return Tls().depth > 0;
}

int TxDepth() { return Tls().depth; }

BeginStatus TxBeginImpl(int setjmp_result, std::jmp_buf* env) {
  if (ActiveBackend() == Backend::kRtm) {
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
    // Outermost software begin: an injected failure is reported through
    // the BeginStatus (no checkpoint exists yet to long-jump to).
    AbortCode injected = fault::MaybeInject(fault::Site::kBegin);
    if (injected != AbortCode::kNone) {
      g_stats.RecordAbort(injected);
      return BeginStatus{false, injected};
    }
  }
  tx.depth = 1;
  tx.env = env;
  // No reset here: every transaction exit (commit or abort) clears the
  // context, so it is already clean on entry.
  BumpSlot(TxStats::kBegins);
  return BeginStatus{true, AbortCode::kNone};
}

void TxCommit() {
  const Backend backend = ActiveBackend();
  if (backend == Backend::kRtm) {
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
  CommitOutermost(tx, backend);
}

void TxAbort(AbortCode code) {
  if (ActiveBackend() == Backend::kRtm) {
    RtmAbort(code);
  }
  TxContext& tx = Tls();
  assert(tx.depth > 0 && "TxAbort outside a transaction");
  AbortInternal(tx, code);
}

void TxCancel(AbortCode code) {
  if (ActiveBackend() == Backend::kRtm) {
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
  const Backend backend = ActiveBackend();
  if (backend == Backend::kRtm) {
    // Inside an RTM transaction the hardware versions this load; outside,
    // it is a plain shared read.
    return cell->value.load(std::memory_order_acquire);
  }
  TxContext& tx = Tls();
  if (tx.depth == 0) {
    // sw-OCC is weakly atomic here (unlike SimTM's wait on the cell's
    // lock): a read racing an in-flight publish can observe a partial
    // write set. Data protected by a lock must be read under that lock —
    // exactly Go's contract — and unprotected data never conflicts.
    return backend == Backend::kSim
               ? NonTxLoad(cell)
               : cell->value.load(std::memory_order_acquire);
  }
  if (const WriteEntry* w = FindWrite(tx, cell)) {
    return w->value;
  }
  const uint64_t value = ReadCell(tx, backend, cell);
  MaybeInjectedAbort(tx, fault::Site::kLoad);
  MaybeSpuriousAbort(tx);
  return value;
}

void TxStore(TxCell* cell, uint64_t value) {
  const Backend backend = ActiveBackend();
  if (backend == Backend::kRtm) {
    if (RtmInTx()) {
      cell->value.store(value, std::memory_order_relaxed);
    } else {
      cell->value.store(value, std::memory_order_release);
    }
    return;
  }
  TxContext& tx = Tls();
  if (tx.depth == 0) {
    StoreOutsideTx(backend, cell, value);
    return;
  }
  if (WriteEntry* w = FindWrite(tx, cell)) {
    w->value = value;
  } else {
    AppendWrite(tx, backend, cell, value);
  }
  MaybeInjectedAbort(tx, fault::Site::kStore);
  MaybeSpuriousAbort(tx);
}

uint64_t TxSubscribe(const std::atomic<uint64_t>* word) {
  const Backend backend = ActiveBackend();
  const uint64_t value = word->load(std::memory_order_acquire);
  if (backend == Backend::kRtm) [[unlikely]] {
    return value;
  }
  TxContext& tx = Tls();
  if (tx.depth == 0) [[unlikely]] {
    return value;
  }
  if (backend == Backend::kSwOcc) {
    if (!OccSubscribe(tx, word, value)) {
      return value;
    }
  } else {
    // SimTM: the lock word itself is the read-set entry. No lock-bit test
    // (the caller classifies the value) and no write-set lookup (lock words
    // are never written transactionally).
    RecheckReads(tx, word, value);
    AccountReadLine(tx, word);
  }
  MaybeInjectedAbort(tx, fault::Site::kLoad);
  MaybeSpuriousAbort(tx);
  return value;
}

uint64_t TxFetchAdd(TxCell* cell, uint64_t delta) {
  std::atomic<uint64_t>& word = cell->value;
  const Backend backend = ActiveBackend();
  if (backend == Backend::kRtm) {
    if (RtmInTx()) {
      uint64_t next = word.load(std::memory_order_relaxed) + delta;
      word.store(next, std::memory_order_relaxed);
      return next;
    }
    return word.fetch_add(delta, std::memory_order_acq_rel) + delta;
  }
  TxContext& tx = Tls();
  if (tx.depth == 0) {
    if (backend == Backend::kSwOcc) {
      return word.fetch_add(delta, std::memory_order_acq_rel) + delta;
    }
    // Non-transactional RMW under the cell's lock: strongly atomic against
    // both committing transactions and other non-transactional updaters.
    const uint64_t pre = LockCell(cell);
    const uint64_t next = word.load(std::memory_order_relaxed) + delta;
    PublishCell(cell, next, pre);
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

  const uint64_t value = ReadCell(tx, backend, cell) + delta;
  AppendWrite(tx, backend, cell, value);
  MaybeInjectedAbort(tx, fault::Site::kLoad);
  MaybeInjectedAbort(tx, fault::Site::kStore);
  MaybeSpuriousAbort(tx);
  return value;
}

void CellGuardedUpdate(TxCell* cell, uint64_t value) {
  StoreOutsideTx(ActiveBackend(), cell, value);
}

}  // namespace gocc::htm
