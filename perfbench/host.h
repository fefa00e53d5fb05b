// Clock, CPU-time and host-noise probes for the benchmark harness.

#ifndef GOCC_PERFBENCH_HOST_H_
#define GOCC_PERFBENCH_HOST_H_

#include <sched.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "src/obs/ticks.h"

namespace gocc::perfbench {

// The per-op time stamp: the TSC on x86 (one ~20-ns read, no syscall). The
// harness converts tick counts to nanoseconds with a rate it measures over
// each timed window against the steady clock, so no calibration constant
// moves between runs.
inline uint64_t Ticks() { return obs::NowTicks(); }

inline uint64_t SteadyNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// A (steady ns, ticks) pair; two of them give the tick rate of the interval.
struct Stamp {
  uint64_t ns = 0;
  uint64_t ticks = 0;
  static Stamp Now() { return Stamp{SteadyNs(), Ticks()}; }
};

inline double NsPerTick(const Stamp& a, const Stamp& b) {
  return b.ticks > a.ticks ? static_cast<double>(b.ns - a.ns) /
                                 static_cast<double>(b.ticks - a.ticks)
                           : 1.0;
}

inline uint64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<uint64_t>(ts.tv_nsec);
}

// CPUs this process may run on (what nproc prints).
inline int AllowedCpuCount() {
  cpu_set_t set;
  CPU_ZERO(&set);
  return sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : 1;
}

// Stolen time since boot, summed over the host's CPUs, in seconds: the
// "steal" column of /proc/stat's all-CPU line, time the hypervisor ran
// something else while a vCPU was runnable. 0 when unavailable.
inline double StealSeconds() {
  double seconds = 0.0;
  if (std::FILE* f = std::fopen("/proc/stat", "r")) {
    unsigned long long v[8];
    if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                    &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
      seconds = static_cast<double>(v[7]) /
                static_cast<double>(sysconf(_SC_CLK_TCK));
    }
    std::fclose(f);
  }
  return seconds;
}

// Resident memory the program under test adds on top of the harness: the
// process's peak RSS since construction minus its RSS at construction.
// Construct it after the harness's own buffers (op streams, histograms)
// are allocated, so they are not counted.
class ProgramRss {
 public:
  ProgramRss() {
    // Writing "5" resets the peak (VmHWM) to the current RSS; see proc(5),
    // /proc/<pid>/clear_refs.
    if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
      std::fputs("5", f);
      std::fclose(f);
    }
    base_kib_ = StatusKib("VmRSS:");
  }

  double PeakMib() const { return (StatusKib("VmHWM:") - base_kib_) / 1024.0; }

 private:
  // A "<key> <n> kB" line of /proc/self/status, in KiB; 0 when absent.
  static double StatusKib(const char* key) {
    double kib = 0.0;
    if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
      char line[256];
      while (std::fgets(line, sizeof(line), f) != nullptr) {
        if (std::strncmp(line, key, std::strlen(key)) == 0) {
          kib = std::strtod(line + std::strlen(key), nullptr);
          break;
        }
      }
      std::fclose(f);
    }
    return kib;
  }

  double base_kib_ = 0.0;
};

inline double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace gocc::perfbench

#endif  // GOCC_PERFBENCH_HOST_H_
