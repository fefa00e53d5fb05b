// Lock-free per-thread episode trace recorder (DESIGN.md §4.8).
//
// When OptiConfig::trace_episodes is on, OptiLock appends one Event per
// completed episode to the calling thread's fixed-capacity ring buffer.
// The design constraints come straight from the PR 2 fast-path cost model:
//
//  * Recording writes only the calling thread's cache-line-aligned ring
//    (three relaxed atomic stores + a release count bump) — no shared
//    cache line, no lock-prefixed RMW, no allocation. A disjoint-lock
//    workload with tracing on still shares nothing between threads.
//  * With tracing off (the default) the recorder costs nothing: the
//    OptiLock hook is a branch on the episode's config snapshot, and no
//    ring is ever created.
//  * Rings are fixed capacity and overwrite oldest-first: a saturating
//    workload loses the oldest events, never blocks, and counts what it
//    dropped (`recorded` is total-ever, so dropped = recorded - capacity).
//
// Draining walks every ring ever registered, decodes the surviving events,
// and resets the counts. Like support/sharded.h, reads are approximately
// consistent while writers run and exact at writer quiescence — tests and
// exporters drain after joining workers, the same contract stats Reset()
// already imposes. A ring whose thread exited keeps its undrained events
// until the next drain and is recycled to the next new thread (see
// TraceRingCount below), so thread churn does not grow the registry.
//
// Site registry: workloads attribute episodes to the paper's per-function
// keys ("Set.Len", "Cache.Get") by registering a site once and setting it —
// via ScopedSite — around calls whose critical sections they want
// attributed. The self-profiler (self_profile.h) aggregates by site name;
// unattributed episodes (site 0) are still traced and counted.

#ifndef GOCC_SRC_OBS_RECORDER_H_
#define GOCC_SRC_OBS_RECORDER_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/obs/event.h"

namespace gocc::obs {

// --- site registry ---------------------------------------------------------

// Interns `func_key` and returns its stable site id (same key -> same id).
// Site ids fit the event encoding (kMaxSiteId); registration past that cap
// returns the overflow bucket id kMaxSiteId. Thread-safe; O(1) amortized.
uint32_t RegisterSite(std::string_view func_key);

// Name for a site id ("" for 0/unknown). The reference stays valid for the
// process lifetime.
const std::string& SiteName(uint32_t site_id);

// Number of registered sites (id 0, the unattributed site, not counted).
size_t SiteCount();

// The calling thread's current site (0 = unattributed).
uint32_t CurrentSite();
void SetCurrentSite(uint32_t site_id);

// RAII site attribution: sets the calling thread's site for the duration of
// a scope. Two thread-local writes; safe to use on hot paths.
class ScopedSite {
 public:
  explicit ScopedSite(uint32_t site_id) : prev_(CurrentSite()) {
    SetCurrentSite(site_id);
  }
  ~ScopedSite() { SetCurrentSite(prev_); }
  ScopedSite(const ScopedSite&) = delete;
  ScopedSite& operator=(const ScopedSite&) = delete;

 private:
  uint32_t prev_;
};

// 32-bit mixer of a mutex address — distinguishes locks in a trace without
// leaking raw pointers into exported artifacts.
inline uint32_t MutexId(const void* mutex) {
  uint64_t h = reinterpret_cast<uintptr_t>(mutex);
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  return static_cast<uint32_t>(h);
}

// --- recording (called by optilib with tracing enabled) --------------------

// Appends one event to the calling thread's ring, creating and registering
// the ring on first use. Single-writer per ring; wait-free after creation.
void RecordEpisode(uint32_t site_id, uint32_t mutex_id, Outcome outcome,
                   htm::AbortCode last_abort, uint32_t retries,
                   uint64_t start_ticks, uint64_t duration_ticks);

// --- draining and introspection -------------------------------------------

struct DrainStats {
  uint64_t recorded = 0;  // events recorded since the last drain
  uint64_t drained = 0;   // events returned (surviving in the rings)
  uint64_t dropped = 0;   // overwritten before the drain (recorded - drained)
  size_t rings = 0;       // per-thread rings ever registered
};

// Returns every surviving event (per-ring oldest-first) and resets every
// ring to empty. Exact at writer quiescence (header comment).
std::vector<Event> DrainTrace(DrainStats* stats = nullptr);

// DrainTrace without materializing events (test/bench isolation).
void DiscardTrace();

// Sum of per-ring recorded counts since the last drain (includes events
// already overwritten). At quiescence with tracing on, this equals the
// number of completed episodes.
uint64_t TraceEventsRecorded();

// Number of per-thread rings ever allocated. Bounded by peak thread
// concurrency, not by threads ever created: a thread that exits returns its
// ring (events and count intact — nothing is lost) to a free list, and the
// next new thread adopts it, continuing to append where the previous owner
// stopped. A reused ring keeps its tid, so the event `tid` field is a
// ring-slot ordinal — successive owners of a slot share it in exported
// traces.
size_t TraceRingCount();

// Retired rings currently waiting for reuse (gauge).
size_t TraceRingFreeCount();

// Rings ever retired by an exiting thread (monotone counter).
uint64_t TraceRingsRetired();

// Events one thread's ring holds (a power of two); the oldest are
// overwritten once it is full.
inline constexpr size_t kRingCapacity = 8192;

}  // namespace gocc::obs

#endif  // GOCC_SRC_OBS_RECORDER_H_
