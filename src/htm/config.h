// Global configuration of the transactional-memory substrate: the backend
// every transaction runs on and the capacities the software backends abort
// at.
//
// The capacities model the cache structures that bound real RTM
// transactions: the write set is limited by L1D (32 KiB / 64 B = 512 lines on
// the paper's Coffee Lake; the constant is slightly lower, as measured
// capacities are), while the read set can spill to L2/L3 tracking structures
// and is much larger. They are constants: a test that needs a capacity abort
// touches more lines than the capacity, and every other abort a test needs
// (spurious aborts included, TSX being best-effort) comes from an armed
// fault plan (fault.h).

#ifndef GOCC_SRC_HTM_CONFIG_H_
#define GOCC_SRC_HTM_CONFIG_H_

#include <atomic>
#include <cstddef>

namespace gocc::htm {

// Which mechanism enforces transactional semantics.
enum class Backend {
  // Software transactional backend with per-cell version words (default;
  // runs anywhere).
  kSim,
  // Real Intel RTM via xbegin/xend (requires hardware support; selected only
  // after a successful runtime probe).
  kRtm,
  // Software OCC on the mutexes' versioned lock words (swocc.h; the engine
  // it shares with SimTM is tx.cc): invisible reads, thread-local write
  // buffering, commit-time validation. Runs anywhere; selected via
  // GOCC_BACKEND=swocc or ForceSwOccBackend.
  kSwOcc,
};

// Stable lowercase name ("sim" / "rtm" / "swocc"), matching the GOCC_BACKEND
// values; used in bench metadata and reports.
const char* BackendName(Backend backend);

// Distinct 64-byte lines a SimTM transaction may read before a capacity
// abort. Models L2/L3-assisted read-set tracking. sw-OCC has no read
// capacity.
inline constexpr size_t kReadCapacityLines = 8192;
// Write capacity: distinct 64-byte lines on SimTM, distinct cells on
// sw-OCC. Models L1D write-set tracking.
inline constexpr size_t kWriteCapacityLines = 448;

namespace internal {
// Storage for ActiveBackend (inline: it sits on every transactional
// access, where an out-of-line getter call is measurable).
extern std::atomic<Backend> g_backend;
}  // namespace internal

// The process-wide backend every Tx* operation dispatches to (the
// GOCC_BACKEND-resolved software backend unless EnableRtmIfSupported
// succeeded). One backend for the whole process: the four switches below
// may run only while no episode or transaction is in flight on any thread
// (at program start, in a test fixture's SetUp, between benchmark cells),
// so an episode begins, runs and commits on the backend it started on.
inline Backend ActiveBackend() {
  return internal::g_backend.load(std::memory_order_relaxed);
}

// Probes the CPU for usable RTM and, if transactions actually commit,
// switches the backend to kRtm. Returns true when RTM is now active.
// Compiled to `return false` when the toolchain lacks -mrtm. A GOCC_BACKEND
// pin to a software backend ("sim" / "swocc") refuses the switch. Call only
// while no episode or transaction is in flight.
bool EnableRtmIfSupported();

// Forces the software backend (used by tests and by the benchmark harness to
// make runs reproducible across hosts). Call only while no episode or
// transaction is in flight.
void ForceSimBackend();

// Forces the sw-OCC backend. Call only while no episode or transaction is
// in flight.
void ForceSwOccBackend();

// Forces the software backend GOCC_BACKEND selects (kSwOcc for "swocc",
// kSim otherwise) — the env-respecting form of ForceSimBackend that the
// chaos/soak suites and the bench harness use, so one binary covers every
// software backend. Call only while no episode or transaction is in flight.
void ForceSoftwareBackend();

// The software backend GOCC_BACKEND resolves to (no side effects).
Backend ResolvedSoftwareBackend();

}  // namespace gocc::htm

#endif  // GOCC_SRC_HTM_CONFIG_H_
