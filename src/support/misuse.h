// Lock-API misuse taxonomy, policy, and counters (DESIGN.md §4.9).
//
// The paper's transformer only emits well-formed FastLock/FastUnlock pairs,
// but a production library is also called by hand-written code, by buggy
// transformers, and during teardown. Every way a real program can mis-pair
// or tear down the elision runtime is classified here and routed through
// ReportMisuse, which turns would-be undefined behaviour into a *defined*,
// counted, reported event:
//
//   * kDoubleFastLock      — FastLock on an OptiLock whose previous episode
//                            never reached FastUnlock.
//   * kUnpairedUnlock      — FastUnlock on an OptiLock with no episode in
//                            flight.
//   * kCrossThreadUnlock   — FastUnlock from a different thread than the
//                            FastLock (episode state is goroutine-local).
//   * kWrongModeUnlock     — slow-path RWMutex unlock through the wrong
//                            mode API (RLock released via FastWUnlock).
//   * kMutexDestroyedInUse — gosync::Mutex destroyed while locked or with
//                            waiters parked.
//   * kRWMutexDestroyedInUse — gosync::RWMutex destroyed with readers or a
//                            writer active/pending.
//   * kElidedUseAfterDestroy — a sw-OCC transactional read subscribed a
//                            mutex whose occ word carries the destructor
//                            poison: the elided critical section outlived
//                            its lock's storage. Recovery: the episode
//                            aborts (kOccValidateFail) and re-runs on the
//                            slow path, where the pessimistic acquire hits
//                            the ordinary destroyed-mutex detection.
//   * kLockOrderInversion  — a slow-path acquisition of a tracked mutex
//                            whose address is *below* the high-water mark
//                            of locks already slow-held by an in-flight
//                            multi-lock episode on the same thread. The
//                            multi-lock slow path acquires in global
//                            address order precisely so such nests cannot
//                            deadlock; a nested FastLock that breaks the
//                            order re-introduces the cyclic-wait risk.
//                            Recovery: report, then acquire in the
//                            requested order anyway (the untransformed
//                            program's behaviour — the inversion is a
//                            latent application bug, not a runtime fault).
//
// Policy: under kAbortProcess (the default in debug builds) any misuse
// prints its report and calls std::abort() — a crash at the first
// mis-pairing is the debuggable outcome. Under kRecoverAndCount (release
// default) the caller applies its documented per-kind recovery (DESIGN.md
// §4.9 recovery matrix), the counter increments, and a one-line structured
// report lands on stderr (rate-limited per kind so a misuse storm cannot
// flood logs). The GOCC_MISUSE_POLICY environment variable (abort|recover)
// overrides the build-type default.
//
// This module lives in support/ (below gosync and optilib) so mutex
// destructors and OptiLock episode code can share one policy, one counter
// set, and one report format. None of it is on the episode fast path:
// detection branches live in the callers; only *detected* misuse reaches
// these functions.

#ifndef GOCC_SRC_SUPPORT_MISUSE_H_
#define GOCC_SRC_SUPPORT_MISUSE_H_

#include <cstdint>
#include <vector>

#include "src/support/counter_table.h"

namespace gocc::support {

enum class MisuseKind : int {
  kDoubleFastLock = 0,
  kUnpairedUnlock = 1,
  kCrossThreadUnlock = 2,
  kWrongModeUnlock = 3,
  kMutexDestroyedInUse = 4,
  kRWMutexDestroyedInUse = 5,
  kElidedUseAfterDestroy = 6,
  kLockOrderInversion = 7,
};
inline constexpr int kNumMisuseKinds = 8;

// Stable kebab-case name used in reports and metrics.
const char* MisuseKindName(MisuseKind kind);

enum class MisusePolicy : int {
  // Print the report, then std::abort(). Debug default: the first
  // mis-pairing is a bug worth a core dump.
  kAbortProcess = 0,
  // Count, report (rate-limited), and let the caller apply its documented
  // recovery. Release default: production traffic survives the misuse.
  kRecoverAndCount = 1,
};

// The process-wide policy every misuse report reads. Until a
// SetMisusePolicy call it is the build-type default (NDEBUG ->
// kRecoverAndCount) with the GOCC_MISUSE_POLICY=abort|recover override
// applied, resolved once.
MisusePolicy GetMisusePolicy();
void SetMisusePolicy(MisusePolicy policy);

// Counts the misuse, prints one structured line to stderr —
//   [gocc-misuse] kind=<kind> policy=<abort|recover> object=<ptr> detail=<s>
// — and aborts the process when the policy is kAbortProcess. Returns only
// under kRecoverAndCount (the caller then applies its recovery). Reports
// are rate-limited to kMisuseReportLimit lines per kind per process;
// counters keep exact totals regardless.
void ReportMisuse(MisuseKind kind, const void* object, const char* detail);

inline constexpr uint64_t kMisuseReportLimit = 16;

// Exact per-kind and total counters (plain shared atomics — misuse is never
// on the uncontended fast path).
uint64_t MisuseCount(MisuseKind kind);
uint64_t TotalMisuse();
void ResetMisuseCounters();

// Every kind's count, indexed by kind: the slots of kMisuseRows.
std::vector<uint64_t> MisuseCounts();

// The misuse family's one row (OptiStats::ToString and /metrics print it).
inline constexpr CounterRow kMisuseRows[] = {
    {0, kNumMisuseKinds, "misuse",
     "API misuse occurrences detected and recovered, by kind.", "kind",
     [](int kind) { return MisuseKindName(static_cast<MisuseKind>(kind)); }},
};

}  // namespace gocc::support

#endif  // GOCC_SRC_SUPPORT_MISUSE_H_
