// Process-wide transactional-memory statistics.
//
// Counters are sharded per thread (support/sharded.h): TxBegin/TxCommit sit
// on the elision fast path, and as single global atomics these counters
// made every committing thread write the same cache line — metadata false
// sharing that a disjoint-lock workload cannot avoid. Each thread now bumps
// its own padded shard with a relaxed load+store; reads sum the shards.
// Same "racy-but-fast, approximately consistent" reporting contract as
// before (the paper's perceptron takes the same stance for its weights).

#ifndef GOCC_SRC_HTM_STATS_H_
#define GOCC_SRC_HTM_STATS_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "src/htm/abort.h"
#include "src/support/counter_table.h"
#include "src/support/sharded.h"

namespace gocc::htm {

struct TxStats {
  // Slot layout inside each per-thread shard; abort slots are indexed by
  // AbortCode so RecordAbort is branch-free.
  enum Slot : int {
    kBegins = 0,
    kCommits,
    kReadOnlyCommits,
    kAbortsBase,  // + AbortCode, kNumAbortCodes slots (kNone unused)
    kNumSlots = kAbortsBase + kNumAbortCodes,
  };

  support::ShardedCounter begins{&shards_, kBegins};
  support::ShardedCounter commits{&shards_, kCommits};
  support::ShardedCounter read_only_commits{&shards_, kReadOnlyCommits};

  // Substrate aborts recorded for one code.
  uint64_t Aborts(AbortCode code) const {
    if (code == AbortCode::kNone) {
      return 0;
    }
    return shards_.Sum(kAbortsBase + static_cast<int>(code));
  }

  uint64_t TotalAborts() const {
    uint64_t total = 0;
    for (int i = 1; i < kNumAbortCodes; ++i) {
      total += shards_.Sum(kAbortsBase + i);
    }
    return total;
  }

  void RecordAbort(AbortCode code) {
    if (code == AbortCode::kNone) {
      return;
    }
    shards_.Incr(kAbortsBase + static_cast<int>(code));
  }

  // The calling thread's private slot array (single-writer; index with
  // Slot). The TM hot path bumps this directly.
  std::atomic<uint64_t>* LocalShard() { return shards_.Local(); }

  // Every slot's count, indexed by Slot (the values kTxStatsRows reads).
  std::vector<uint64_t> Counts() const { return shards_.Sums(); }

  void Reset() { shards_.ResetAll(); }

  std::string ToString() const;

 private:
  support::ShardedCounters shards_{kNumSlots};
};

// Counter row of an abort-code histogram whose kNone slot is `none_slot`:
// kNone is never recorded, so the row starts at kConflict.
constexpr support::CounterRow AbortCodeRow(int none_slot, const char* name,
                                           const char* help) {
  return {none_slot + 1, kNumAbortCodes - 1, name, help, "code",
          [](int bucket) {
            return AbortCodeName(static_cast<AbortCode>(bucket + 1));
          }};
}

inline constexpr support::CounterRow kTxStatsRows[] = {
    {TxStats::kBegins, 1, "begins", "Transactions begun (outermost only)."},
    {TxStats::kCommits, 1, "commits", "Transactions committed."},
    {TxStats::kReadOnlyCommits, 1, "read_only_commits",
     "Commits whose write set was empty."},
    AbortCodeRow(TxStats::kAbortsBase, "aborts",
                 "Substrate aborts, by abort code."),
};

// Global statistics instance.
TxStats& GlobalTxStats();

}  // namespace gocc::htm

#endif  // GOCC_SRC_HTM_STATS_H_
