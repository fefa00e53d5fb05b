// Episode time base for the trace recorder.
//
// NowTicks() must be cheap enough to bracket a critical section (it runs
// twice per traced episode), monotonic enough for durations, and consistent
// across threads for the Chrome-trace timeline. On x86 that is rdtsc
// (modern TSCs are invariant and core-synchronized); elsewhere we fall back
// to the steady clock in nanoseconds. TicksPerMicrosecond() calibrates the
// tick rate once per process against the steady clock; callers read it
// once and keep it (the trace exporters, and the service router, which
// times its requests in ticks), never per event.

#ifndef GOCC_SRC_OBS_TICKS_H_
#define GOCC_SRC_OBS_TICKS_H_

#include <cstdint>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

namespace gocc::obs {

// Fallback tick source: steady-clock nanoseconds (ticks.cc).
uint64_t SteadyNowNanos();

inline uint64_t NowTicks() {
#if defined(__x86_64__) || defined(__i386__)
  return __rdtsc();
#else
  return SteadyNowNanos();
#endif
}

// Calibrated tick rate, cached after the first call (which blocks for a few
// milliseconds to measure). On an invariant TSC it reads within a hundredth
// of a percent of a 300-ms reference (EXPERIMENTS E-router) — plenty for
// trace timelines and the service's deadlines and latency samples;
// self-profile fractions are tick-ratio based and never need it.
double TicksPerMicrosecond();

}  // namespace gocc::obs

#endif  // GOCC_SRC_OBS_TICKS_H_
