// The chaos suites' replay seed. GOCC_CHAOS_SEED selects it (decimal, or
// hex with a 0x prefix; unset or empty means 1), through the same parser as
// every other GOCC_* variable: a negative or malformed value warns on
// stderr and replays seed 1. `ctest -L chaos` runs each suite under several.
// Every call echoes "[chaos] GOCC_CHAOS_SEED=<n>" on stdout, so a failing
// run names the seed that replays it: `GOCC_CHAOS_SEED=<n> ./tests/<binary>`.

#ifndef GOCC_TESTS_CHAOS_SEED_H_
#define GOCC_TESTS_CHAOS_SEED_H_

#include <cstdint>
#include <cstdio>

#include "src/support/env.h"

namespace gocc {

inline uint64_t ChaosSeed() {
  const uint64_t seed =
      support::EnvUint64("GOCC_CHAOS_SEED", 1, 0, UINT64_MAX);
  std::printf("[chaos] GOCC_CHAOS_SEED=%llu\n",
              static_cast<unsigned long long>(seed));
  return seed;
}

}  // namespace gocc

#endif  // GOCC_TESTS_CHAOS_SEED_H_
