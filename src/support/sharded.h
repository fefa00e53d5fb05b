// Per-thread sharded statistics counters.
//
// The runtime's observability counters (optilib::OptiStats, htm::TxStats)
// are bumped on the episode fast path. As single global atomics they cost a
// lock-prefixed RMW each and — worse — every thread writes the same handful
// of cache lines, so a workload taking *disjoint* locks still ping-pongs
// stat lines between cores (TL2-style STMs treat exactly this metadata
// false sharing as a first-order scalability limit). Here each thread owns
// a cache-line-padded shard of plain relaxed atomics; reads aggregate over
// all shards.
//
// Write discipline: a shard is written only by its owning thread (relaxed
// load+store, exact because single-writer, cheaper than a lock-prefixed
// RMW, and race-free under TSan because the cells are atomics). Readers sum
// shards under the registry mutex; a sum taken while writers run is
// approximately consistent — the same contract the previous global relaxed
// atomics offered. Reset() stores zero into every shard and therefore
// requires writer quiescence for exactness — also the old contract (tests
// and benches reset between phases, never mid-run).
//
// Thread churn (DESIGN.md §4.9): when a thread exits, its shards are
// *retired* — each slot's value is folded into a per-domain retired
// accumulator (so sums never go backwards), the slots are zeroed, and the
// shard goes on a free list for the next thread to claim. Memory under a
// thread creation/exit storm is therefore bounded by the peak number of
// concurrently registered threads, not by the total ever created.
// Registration is O(1) amortized per thread; lookup on the hot path is one
// thread-local array index plus a null check.
//
// Domain overflow: the thread-local lookup table is a flat array of
// kMaxDomains entries. A domain constructed past that cap does NOT index
// the array (that write was out of bounds before this guard existed) —
// it degrades to a single process-shared fallback shard, warns once on
// stderr, and serves Incr via fetch_add so counts stay exact (at global-
// atomic cost). LocalShard()'s single-writer store discipline is only
// guaranteed for non-overflow domains; overflow callers that bypass Incr
// may lose updates but never touch out-of-bounds memory.

#ifndef GOCC_SRC_SUPPORT_SHARDED_H_
#define GOCC_SRC_SUPPORT_SHARDED_H_

#include <array>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <vector>

namespace gocc::support {

class ShardedCounters {
 public:
  // Process-wide cap on distinct counter domains (one per stats singleton;
  // currently optiLib + TM use two). The cap keeps the thread-local lookup
  // table a flat array.
  static constexpr int kMaxDomains = 8;

  explicit ShardedCounters(int counters)
      : id_(next_domain_id().fetch_add(1, std::memory_order_relaxed)),
        count_(counters),
        retired_(new uint64_t[counters]()) {
    if (id_ < kMaxDomains) {
      domain_registry().slots[id_].store(this, std::memory_order_release);
    } else {
      // Out-of-cap domain: degrade to one shared shard instead of writing
      // past the flat TLS table (the pre-guard behaviour in Release builds).
      std::fprintf(stderr,
                   "[gocc-sharded] domain_id=%d exceeds kMaxDomains=%d; "
                   "degrading to a shared global shard (counts stay exact "
                   "via fetch_add, per-thread isolation is lost)\n",
                   id_, kMaxDomains);
      overflow_shard_ = std::make_unique<Shard>(count_);
    }
  }

  ~ShardedCounters() {
    if (id_ < kMaxDomains) {
      // Unregister so per-thread retirers never touch a dead domain. Stale
      // tls_slots entries for this id are never dereferenced afterwards:
      // domain ids are unique for the process lifetime, so only this
      // (destroyed) instance could have read them.
      domain_registry().slots[id_].store(nullptr, std::memory_order_release);
    }
  }

  ShardedCounters(const ShardedCounters&) = delete;
  ShardedCounters& operator=(const ShardedCounters&) = delete;

  int count() const { return count_; }

  // True when this domain was constructed past kMaxDomains and degraded to
  // the shared fallback shard.
  bool overflowed() const { return overflow_shard_ != nullptr; }

  // The calling thread's private slot array, registered on first use. Slots
  // are alignas(64) padded per shard, so no two threads' counters share a
  // cache line. The pointer stays valid until the calling thread exits
  // (then the shard is retired and may be recycled to a new thread).
  // Overflow domains return the shared fallback shard — see header comment.
  std::atomic<uint64_t>* Local() {
    if (overflow_shard_ != nullptr) {
      return overflow_shard_->slots.get();
    }
    std::atomic<uint64_t>* slots = tls_slots()[id_];
    if (slots == nullptr) {
      slots = RegisterShard();
    }
    return slots;
  }

  // Increment of the calling thread's slot `idx`: single-writer relaxed
  // load+store normally, a real fetch_add on the shared overflow shard.
  void Incr(int idx, uint64_t delta = 1) {
    std::atomic<uint64_t>* slot = Local() + idx;
    if (overflow_shard_ != nullptr) {
      slot->fetch_add(delta, std::memory_order_relaxed);
      return;
    }
    slot->store(slot->load(std::memory_order_relaxed) + delta,
                std::memory_order_relaxed);
  }

  // Sums slot `idx` across every live shard plus the retired accumulator
  // (counts folded out of exited threads' shards), so totals are monotone
  // across thread churn.
  uint64_t Sum(int idx) const {
    std::lock_guard<std::mutex> lock(mu_);
    uint64_t total = retired_[idx];
    for (const auto& shard : shards_) {
      total += shard->slots[idx].load(std::memory_order_relaxed);
    }
    if (overflow_shard_ != nullptr) {
      total += overflow_shard_->slots[idx].load(std::memory_order_relaxed);
    }
    return total;
  }

  // Sum(idx) of every slot, indexed by slot.
  std::vector<uint64_t> Sums() const {
    std::vector<uint64_t> totals(count_);
    for (int i = 0; i < count_; ++i) {
      totals[i] = Sum(i);
    }
    return totals;
  }

  // Zeroes every slot of every shard and the retired accumulator. Exact
  // only at writer quiescence (see header comment).
  void ResetAll() {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& shard : shards_) {
      for (int i = 0; i < count_; ++i) {
        shard->slots[i].store(0, std::memory_order_relaxed);
      }
    }
    for (int i = 0; i < count_; ++i) {
      retired_[i] = 0;
    }
    if (overflow_shard_ != nullptr) {
      for (int i = 0; i < count_; ++i) {
        overflow_shard_->slots[i].store(0, std::memory_order_relaxed);
      }
    }
  }

  // Number of shards currently allocated (live + free-listed). Bounded by
  // peak concurrent threads, not total threads ever (test observability).
  size_t ShardCount() const {
    std::lock_guard<std::mutex> lock(mu_);
    return shards_.size();
  }

  // Number of retired shards awaiting reuse (test observability).
  size_t FreeShardCount() const {
    std::lock_guard<std::mutex> lock(mu_);
    return free_.size();
  }

  // Number of thread-exit retirements performed (test observability).
  uint64_t RetiredShardTotal() const {
    std::lock_guard<std::mutex> lock(mu_);
    return retire_count_;
  }

 private:
  struct alignas(64) Shard {
    explicit Shard(int n) : slots(new std::atomic<uint64_t>[n]) {
      for (int i = 0; i < n; ++i) {
        slots[i].store(0, std::memory_order_relaxed);
      }
    }
    std::unique_ptr<std::atomic<uint64_t>[]> slots;
  };

  static std::atomic<int>& next_domain_id() {
    static std::atomic<int> id{0};
    return id;
  }

  // Live-domain registry for the per-thread retirer: slot id -> instance,
  // nulled by the destructor so retirers skip dead domains.
  struct DomainRegistry {
    std::atomic<ShardedCounters*> slots[kMaxDomains] = {};
  };
  static DomainRegistry& domain_registry() {
    static DomainRegistry registry;
    return registry;
  }

  using TlsTable = std::atomic<uint64_t>*[kMaxDomains];
  static TlsTable& tls_slots() {
    thread_local TlsTable table = {};
    return table;
  }

  // Thread-exit hook: retires the calling thread's shard in every live
  // domain. Materialized (once per thread) by RegisterShard, so only
  // threads that actually own shards pay for it. Runs before static
  // destruction ([basic.start.term]), so registered domains with static
  // storage are still alive here.
  struct ThreadRetirer {
    ~ThreadRetirer() {
      for (int id = 0; id < kMaxDomains; ++id) {
        std::atomic<uint64_t>* slots = tls_slots()[id];
        if (slots == nullptr) {
          continue;
        }
        ShardedCounters* domain =
            domain_registry().slots[id].load(std::memory_order_acquire);
        if (domain != nullptr) {
          domain->RetireShard(slots);
        }
        tls_slots()[id] = nullptr;
      }
    }
  };

  std::atomic<uint64_t>* RegisterShard() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      std::atomic<uint64_t>* slots;
      if (!free_.empty()) {
        slots = free_.back();  // recycled shard: already zeroed at retire
        free_.pop_back();
      } else {
        shards_.push_back(std::make_unique<Shard>(count_));
        slots = shards_.back()->slots.get();
      }
      tls_slots()[id_] = slots;
    }
    // Outside mu_: constructing the retirer may (first thread use) touch
    // other domains' registration paths via TLS destruction ordering.
    thread_local ThreadRetirer retirer;
    (void)retirer;
    return tls_slots()[id_];
  }

  // Folds the exiting thread's slot values into the retired accumulator,
  // zeroes the slots, and free-lists the shard for the next thread. A
  // concurrent Sum (under mu_) sees the counts exactly once: either still
  // in the slots or already folded.
  void RetireShard(std::atomic<uint64_t>* slots) {
    std::lock_guard<std::mutex> lock(mu_);
    for (int i = 0; i < count_; ++i) {
      retired_[i] += slots[i].load(std::memory_order_relaxed);
      slots[i].store(0, std::memory_order_relaxed);
    }
    free_.push_back(slots);
    ++retire_count_;
  }

  const int id_;
  const int count_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Shard>> shards_;
  // Retired shards' slot arrays awaiting reuse (pointers into shards_).
  std::vector<std::atomic<uint64_t>*> free_;
  // Per-slot counts folded out of retired shards; read/written under mu_.
  std::unique_ptr<uint64_t[]> retired_;
  uint64_t retire_count_ = 0;
  // Shared fallback for domains past kMaxDomains (null otherwise).
  std::unique_ptr<Shard> overflow_shard_;
};

// Drop-in stand-in for the `std::atomic<uint64_t>` counter members the
// stats structs used to expose: `load()` aggregates across shards,
// `fetch_add()` bumps the calling thread's shard. Default-constructed
// handles are unbound until ShardedCounterRange binds them.
class ShardedCounter {
 public:
  ShardedCounter() = default;
  ShardedCounter(ShardedCounters* domain, int idx)
      : domain_(domain), idx_(idx) {}

  uint64_t load(std::memory_order = std::memory_order_relaxed) const {
    assert(domain_ != nullptr);
    return domain_->Sum(idx_);
  }

  void fetch_add(uint64_t delta,
                 std::memory_order = std::memory_order_relaxed) {
    assert(domain_ != nullptr);
    domain_->Incr(idx_, delta);
  }

 private:
  ShardedCounters* domain_ = nullptr;
  int idx_ = 0;
};

// Handles for the `N` consecutive slots from `first` (one histogram's
// buckets), for an in-class member initializer.
template <size_t N>
std::array<ShardedCounter, N> ShardedCounterRange(ShardedCounters* domain,
                                                  int first) {
  std::array<ShardedCounter, N> handles;
  for (size_t i = 0; i < N; ++i) {
    handles[i] = ShardedCounter(domain, first + static_cast<int>(i));
  }
  return handles;
}

}  // namespace gocc::support

#endif  // GOCC_SRC_SUPPORT_SHARDED_H_
