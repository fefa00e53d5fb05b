// Spans for the traced run, recorded from the benchmark's side of each
// layer boundary.
//
// The workloads are templated on their lock policy, so the traced run
// instantiates them with TracedElided: a copy of workloads::Elided whose
// critical sections also stamp the OptiLock episode (the With* call) and
// the critical-section body. The client loop stamps the call into the
// workload or service around them, so one request yields three nested
// spans: request/op -> optilib episode -> workloads critical section.
//
// Under a SimTM abort the body re-runs from the episode's checkpoint. The
// stamps below are plain thread-local stores, which SimTM does not roll
// back, so the body counts each entry and times only the run that
// completed; earlier runs are optilib's (wasted) self time.

#ifndef GOCC_PERFBENCH_TRACE_H_
#define GOCC_PERFBENCH_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/host.h"
#include "src/gosync/mutex.h"
#include "src/gosync/rwmutex.h"
#include "src/optilib/optilock.h"

namespace gocc::perfbench {

// The current request's spans on the calling thread. The client loop
// clears it before each call and reads it after the call returns.
struct OpSpans {
  uint64_t episode_ticks = 0;  // summed over the request's episodes
  uint64_t body_ticks = 0;     // completed body run of each episode
  uint32_t episodes = 0;
  uint32_t body_runs = 0;      // body entries, aborted runs included
  // Raw stamps of the request's last episode (sampled Chrome trace).
  uint64_t episode_start = 0;
  uint64_t episode_end = 0;
  uint64_t body_start = 0;
  uint64_t body_end = 0;
};

inline thread_local OpSpans t_spans;

struct TracedElided {
  static constexpr bool kElided = true;
  static constexpr gosync::ElisionTracking kTracking =
      gosync::ElisionTracking::kEnabled;

  // As in workloads::Elided, the thread_local OptiLock is per call site:
  // each lambda type instantiates its own.
  template <typename Fn>
  static void Lock(gosync::Mutex& mu, Fn&& fn) {
    thread_local optilib::OptiLock opti_lock;
    OpSpans& s = t_spans;
    const uint64_t start = Ticks();
    opti_lock.WithLock(&mu, [&] { Body(s, fn); });
    EndEpisode(s, start);
  }
  template <typename Fn>
  static void RLock(gosync::RWMutex& mu, Fn&& fn) {
    thread_local optilib::OptiLock opti_lock;
    OpSpans& s = t_spans;
    const uint64_t start = Ticks();
    opti_lock.WithRLock(&mu, [&] { Body(s, fn); });
    EndEpisode(s, start);
  }
  template <typename Fn>
  static void WLock(gosync::RWMutex& mu, Fn&& fn) {
    thread_local optilib::OptiLock opti_lock;
    OpSpans& s = t_spans;
    const uint64_t start = Ticks();
    opti_lock.WithWLock(&mu, [&] { Body(s, fn); });
    EndEpisode(s, start);
  }
  template <typename Fn>
  static void LockSet(gosync::Mutex* const* mutexes, int count, Fn&& fn) {
    thread_local optilib::OptiLock opti_lock;
    OpSpans& s = t_spans;
    const uint64_t start = Ticks();
    opti_lock.WithLocks(mutexes, count, [&] { Body(s, fn); });
    EndEpisode(s, start);
  }

 private:
  template <typename Fn>
  static void Body(OpSpans& s, Fn& fn) {
    ++s.body_runs;
    s.body_start = Ticks();
    fn();
    s.body_end = Ticks();
  }
  static void EndEpisode(OpSpans& s, uint64_t start) {
    s.episode_start = start;
    s.episode_end = Ticks();
    s.episode_ticks += s.episode_end - start;
    s.body_ticks += s.body_end - s.body_start;
    ++s.episodes;
  }
};

// One sampled request, kept in memory until the run ends.
struct SampledOp {
  uint64_t id = 0;  // client << 40 | sequence number
  int client = 0;
  uint64_t op_start = 0;
  uint64_t op_end = 0;
  OpSpans spans;
};

// Chrome trace JSON (the trace_event object format obs::ChromeTraceJson
// emits): one complete event per span, nested on the client's track, with
// the shared request id in args.
std::string ChromeTraceJson(const std::vector<SampledOp>& ops,
                            const char* op_span_name, double ns_per_tick);

}  // namespace gocc::perfbench

#endif  // GOCC_PERFBENCH_TRACE_H_
