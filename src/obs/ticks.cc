#include "src/obs/ticks.h"

#include <chrono>

namespace gocc::obs {

uint64_t SteadyNowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

namespace {

[[gnu::cold]] double Calibrate() {
#if defined(__x86_64__) || defined(__i386__)
  using Clock = std::chrono::steady_clock;
  const auto wall_start = Clock::now();
  const uint64_t tick_start = NowTicks();
  // Spin ~2 ms: long enough to swamp clock-read latency, short enough that
  // a one-off calibration is unnoticeable.
  while (Clock::now() - wall_start < std::chrono::milliseconds(2)) {
  }
  const uint64_t ticks = NowTicks() - tick_start;
  const double micros =
      std::chrono::duration_cast<std::chrono::duration<double, std::micro>>(
          Clock::now() - wall_start)
          .count();
  if (micros <= 0.0 || ticks == 0) {
    return 1000.0;  // nonsense measurement; pretend 1 GHz
  }
  return static_cast<double>(ticks) / micros;
#else
  return 1000.0;  // ticks are nanoseconds on the fallback path
#endif
}

}  // namespace

// Cold, like the calibration: callers read the rate once and keep it, and
// in .text.unlikely the code sits beside the start-up code instead of in a
// text page a process would first map when it builds its first service.
[[gnu::cold]] double TicksPerMicrosecond() {
  static const double rate = Calibrate();
  return rate;
}

}  // namespace gocc::obs
