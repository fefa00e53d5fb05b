#include "src/obs/recorder.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace gocc::obs {
namespace {

// --- site registry ---------------------------------------------------------

struct SiteRegistry {
  std::mutex mu;
  // id -> name; slot 0 reserved for the unattributed site.
  std::vector<std::unique_ptr<std::string>> names;
  std::unordered_map<std::string_view, uint32_t> ids;

  SiteRegistry() { names.push_back(std::make_unique<std::string>()); }
};

SiteRegistry& Sites() {
  static SiteRegistry* registry = new SiteRegistry;
  return *registry;
}

thread_local uint32_t t_current_site = 0;

// --- ring registry ---------------------------------------------------------

static_assert(std::has_single_bit(kRingCapacity));
constexpr size_t kRingMask = kRingCapacity - 1;

// One per-thread ring of kRingCapacity events. The header (count + tid) and
// the slot words are owned by a single writer thread; the drainer reads
// them under the registry mutex. alignas(64) keeps one thread's header off
// every other thread's ring header.
struct alignas(64) Ring {
  explicit Ring(int tid_in) : tid(tid_in) {}

  const int tid;
  // Total events ever recorded since the last drain. Written by the owner
  // (release) and zeroed by the drainer; slot (recorded & kRingMask) is the
  // next write position.
  std::atomic<uint64_t> recorded{0};
  std::atomic<uint64_t> words[kRingCapacity * kWordsPerEvent] = {};
};

struct RingRegistry {
  mutable std::mutex mu;
  std::vector<std::unique_ptr<Ring>> rings;
  // Rings whose owner thread exited, available for reuse (thread-churn
  // safety, DESIGN.md §4.9). A retired ring keeps its undrained events and
  // its count — retirement loses nothing — and a thread that adopts it
  // keeps appending where the previous owner stopped (adoption skips rings
  // backlogged past half capacity; see RegisterRing). The registry mutex
  // orders the old owner's final stores before the new owner's first.
  std::vector<Ring*> free_rings;
  uint64_t retired_count = 0;  // rings ever pushed to free_rings (monotone)
};

RingRegistry& Rings() {
  static RingRegistry* registry = new RingRegistry;
  return *registry;
}

thread_local Ring* t_ring = nullptr;

// Returns the calling thread's ring to the free list at thread exit so a
// churny workload (worker pools spawning short-lived threads) reuses a
// bounded set of rings instead of growing the registry forever.
struct RingRetirer {
  ~RingRetirer() {
    Ring* ring = t_ring;
    if (ring == nullptr) {
      return;
    }
    t_ring = nullptr;
    RingRegistry& registry = Rings();
    std::lock_guard<std::mutex> lock(registry.mu);
    registry.free_rings.push_back(ring);
    ++registry.retired_count;
  }
};

Ring* RegisterRing() {
  RingRegistry& registry = Rings();
  {
    std::lock_guard<std::mutex> lock(registry.mu);
    // Prefer a retired ring. Its tid is thereby a ring-slot ordinal, not a
    // thread identity: events recorded by successive owners of the same
    // slot share a tid in exported traces.
    //
    // Adoption appends after the previous owner's backlog, so pick the
    // emptiest candidate and skip any ring holding at least half a ring of
    // undrained events: adopting it would let the new owner wrap over data
    // a pending drain still expects (a staggered thread pool can retire a
    // full ring while its sibling is still starting up). A backlogged ring
    // stays on the free list — still drained in place — and becomes
    // adoptable again once a drain or discard empties it. The ring pool is
    // therefore bounded by peak concurrency for any consumer that drains
    // at least once per churn generation; with tracing left on and never
    // drained, backlogged rings pin memory instead of silently losing
    // events.
    Ring* reused = nullptr;
    for (Ring* candidate : registry.free_rings) {
      if (reused == nullptr ||
          candidate->recorded.load(std::memory_order_relaxed) <
              reused->recorded.load(std::memory_order_relaxed)) {
        reused = candidate;
      }
    }
    if (reused != nullptr &&
        reused->recorded.load(std::memory_order_relaxed) >=
            kRingCapacity / 2) {
      reused = nullptr;
    }
    if (reused != nullptr) {
      registry.free_rings.erase(
          std::find(registry.free_rings.begin(), registry.free_rings.end(),
                    reused));
    }
    if (reused != nullptr) {
      t_ring = reused;
    } else {
      registry.rings.push_back(
          std::make_unique<Ring>(static_cast<int>(registry.rings.size())));
      t_ring = registry.rings.back().get();
    }
  }
  // Materialized outside the registry lock: the retirer's destructor locks
  // the same mutex at thread exit.
  thread_local RingRetirer retirer;
  return t_ring;
}

}  // namespace

uint32_t RegisterSite(std::string_view func_key) {
  if (func_key.empty()) {
    return 0;
  }
  SiteRegistry& sites = Sites();
  std::lock_guard<std::mutex> lock(sites.mu);
  auto it = sites.ids.find(func_key);
  if (it != sites.ids.end()) {
    return it->second;
  }
  if (sites.names.size() > kMaxSiteId) {
    return kMaxSiteId;  // overflow bucket; events stay countable
  }
  auto id = static_cast<uint32_t>(sites.names.size());
  sites.names.push_back(std::make_unique<std::string>(func_key));
  sites.ids.emplace(*sites.names.back(), id);
  return id;
}

const std::string& SiteName(uint32_t site_id) {
  SiteRegistry& sites = Sites();
  std::lock_guard<std::mutex> lock(sites.mu);
  if (site_id >= sites.names.size()) {
    return *sites.names[0];
  }
  return *sites.names[site_id];
}

size_t SiteCount() {
  SiteRegistry& sites = Sites();
  std::lock_guard<std::mutex> lock(sites.mu);
  return sites.names.size() - 1;
}

uint32_t CurrentSite() { return t_current_site; }
void SetCurrentSite(uint32_t site_id) { t_current_site = site_id; }

void RecordEpisode(uint32_t site_id, uint32_t mutex_id, Outcome outcome,
                   htm::AbortCode last_abort, uint32_t retries,
                   uint64_t start_ticks, uint64_t duration_ticks) {
  Ring* ring = t_ring;
  if (ring == nullptr) {
    ring = RegisterRing();
  }
  const uint64_t n = ring->recorded.load(std::memory_order_relaxed);
  const size_t base = (n & kRingMask) * kWordsPerEvent;
  ring->words[base + 0].store(
      PackMeta(site_id, mutex_id, outcome, last_abort, retries),
      std::memory_order_relaxed);
  ring->words[base + 1].store(start_ticks, std::memory_order_relaxed);
  ring->words[base + 2].store(duration_ticks, std::memory_order_relaxed);
  // Release-publish the slot: a drainer that acquires `recorded` sees the
  // three words of every event below it.
  ring->recorded.store(n + 1, std::memory_order_release);
}

std::vector<Event> DrainTrace(DrainStats* stats) {
  RingRegistry& registry = Rings();
  std::lock_guard<std::mutex> lock(registry.mu);
  DrainStats local;
  local.rings = registry.rings.size();
  std::vector<Event> events;
  for (const auto& ring : registry.rings) {
    const uint64_t n = ring->recorded.load(std::memory_order_acquire);
    const uint64_t from = n > kRingCapacity ? n - kRingCapacity : 0;
    local.recorded += n;
    local.dropped += from;
    for (uint64_t k = from; k < n; ++k) {
      const size_t base = (k & kRingMask) * kWordsPerEvent;
      Event event;
      UnpackMeta(ring->words[base + 0].load(std::memory_order_relaxed),
                 &event);
      event.start_ticks =
          ring->words[base + 1].load(std::memory_order_relaxed);
      event.duration_ticks =
          ring->words[base + 2].load(std::memory_order_relaxed);
      event.tid = ring->tid;
      events.push_back(event);
    }
    ring->recorded.store(0, std::memory_order_relaxed);
  }
  local.drained = events.size();
  if (stats != nullptr) {
    *stats = local;
  }
  return events;
}

void DiscardTrace() {
  RingRegistry& registry = Rings();
  std::lock_guard<std::mutex> lock(registry.mu);
  for (const auto& ring : registry.rings) {
    ring->recorded.store(0, std::memory_order_relaxed);
  }
}

uint64_t TraceEventsRecorded() {
  RingRegistry& registry = Rings();
  std::lock_guard<std::mutex> lock(registry.mu);
  uint64_t total = 0;
  for (const auto& ring : registry.rings) {
    total += ring->recorded.load(std::memory_order_relaxed);
  }
  return total;
}

size_t TraceRingCount() {
  RingRegistry& registry = Rings();
  std::lock_guard<std::mutex> lock(registry.mu);
  return registry.rings.size();
}

size_t TraceRingFreeCount() {
  RingRegistry& registry = Rings();
  std::lock_guard<std::mutex> lock(registry.mu);
  return registry.free_rings.size();
}

uint64_t TraceRingsRetired() {
  RingRegistry& registry = Rings();
  std::lock_guard<std::mutex> lock(registry.mu);
  return registry.retired_count;
}

}  // namespace gocc::obs
