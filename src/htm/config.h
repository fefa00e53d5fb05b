// Global configuration of the transactional-memory substrate.
//
// The capacity limits model the cache structures that bound real RTM
// transactions: the write set is limited by L1D (32 KiB / 64 B = 512 lines on
// the paper's Coffee Lake; we default slightly lower, as measured capacities
// are), while the read set can spill to L2/L3 tracking structures and is much
// larger. `spurious_abort_probability` models TSX's best-effort nature
// (transactions may abort with no architectural cause); it is zero by default
// and enabled by fault-injection tests.

#ifndef GOCC_SRC_HTM_CONFIG_H_
#define GOCC_SRC_HTM_CONFIG_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace gocc::htm {

// Which mechanism enforces transactional semantics.
enum class Backend {
  // Software transactional backend with per-stripe versions (default; runs
  // anywhere).
  kSim,
  // Real Intel RTM via xbegin/xend (requires hardware support; selected only
  // after a successful runtime probe).
  kRtm,
  // Software OCC on the mutexes' versioned lock words (swocc_backend.h):
  // invisible reads, thread-local write buffering, commit-time validation.
  // Runs anywhere; selected via GOCC_BACKEND=swocc, per-episode by
  // OptiLock's backend chooser, or as the demotion target when RTM dies
  // mid-run.
  kSwOcc,
};

// Stable lowercase name ("sim" / "rtm" / "swocc"), matching the GOCC_BACKEND
// values; used in bench metadata and reports.
const char* BackendName(Backend backend);

struct TxConfig {
  // Maximum distinct 64-byte lines a transaction may read before a capacity
  // abort. Models L2/L3-assisted read-set tracking.
  size_t read_capacity_lines = 8192;
  // Maximum distinct 64-byte lines a transaction may write before a capacity
  // abort. Models L1D write-set tracking.
  size_t write_capacity_lines = 448;
  // Probability that any transactional access spuriously aborts the
  // transaction (fault injection; 0 disables).
  double spurious_abort_probability = 0.0;
  // Seed for the per-thread RNG driving spurious aborts.
  uint64_t spurious_seed = 0x9e3779b97f4a7c15ULL;
};

namespace internal {
// Storage for the inline accessors below (they sit on the per-access SimTM
// fast path, where an out-of-line getter call is measurable).
extern TxConfig g_config;
extern std::atomic<Backend> g_backend;
// Per-thread backend pin (sentinel kUnpinned = follow g_backend). OptiLock
// pins the backend it chose for the episode so every Tx* call inside —
// including flat-nested critical sections — dispatches consistently even if
// the global backend switches mid-episode (RTM demotion). Constant-
// initialized: reads are a guard-free TLS load.
inline constexpr int kUnpinned = -1;
extern constinit thread_local int t_backend_pin;
}  // namespace internal

// Returns the mutable global configuration. Not thread-safe against
// concurrent transactions; set it up before starting workers (tests do).
inline TxConfig& MutableConfig() { return internal::g_config; }

// Read-only accessor.
inline const TxConfig& Config() { return internal::g_config; }

// Active global backend (the GOCC_BACKEND-resolved software backend unless
// EnableRtmIfSupported succeeded).
inline Backend ActiveBackend() {
  return internal::g_backend.load(std::memory_order_relaxed);
}

// The backend the *calling thread's* Tx* operations dispatch to: the
// episode pin when one is set, the global backend otherwise. Every Tx*
// entry point routes through this, so an episode begun on one backend
// commits on it even across a concurrent global switch.
inline Backend CurrentBackend() {
  const int pin = internal::t_backend_pin;
  return pin == internal::kUnpinned
             ? internal::g_backend.load(std::memory_order_relaxed)
             : static_cast<Backend>(pin);
}

// Pins/unpins the calling thread's Tx* dispatch (OptiLock episode scope
// only). Must not change while the thread has an open transaction.
inline void PinThreadBackend(Backend backend) {
  internal::t_backend_pin = static_cast<int>(backend);
}
inline void UnpinThreadBackend() {
  internal::t_backend_pin = internal::kUnpinned;
}
inline bool ThreadBackendPinned() {
  return internal::t_backend_pin != internal::kUnpinned;
}

// Probes the CPU for usable RTM and, if transactions actually commit,
// switches the backend to kRtm. Returns true when RTM is now active.
// Compiled to `return false` when the toolchain lacks -mrtm. A GOCC_BACKEND
// pin to a software backend ("sim" / "swocc") refuses the switch.
bool EnableRtmIfSupported();

// Forces the software backend (used by tests and by the benchmark harness to
// make runs reproducible across hosts).
void ForceSimBackend();

// Forces the sw-OCC backend.
void ForceSwOccBackend();

// Forces the software backend GOCC_BACKEND selects (kSwOcc for "swocc",
// kSim otherwise) — the env-respecting form of ForceSimBackend that the
// chaos/soak suites and the bench harness use, so one binary covers every
// software backend.
void ForceSoftwareBackend();

// The software backend GOCC_BACKEND resolves to (no side effects).
Backend ResolvedSoftwareBackend();

// Re-probe hook for a latched RTM verdict (satellite of DESIGN.md §4.10):
// when the active backend is kRtm and a breaker cooldown or watchdog trip
// suggests the hardware may have died (VM migration, microcode update),
// re-run the probe; on failure demote the global backend to sw-OCC (or to
// the GOCC_BACKEND-pinned software backend) instead of stranding every call
// site on dead hardware. Returns true when a demotion happened. In-flight
// episodes are safe: they run on their thread's pinned backend.
bool ReprobeRtmHealth();

}  // namespace gocc::htm

#endif  // GOCC_SRC_HTM_CONFIG_H_
