// The chaos suites' replay seed. GOCC_CHAOS_SEED selects it (decimal, or
// hex with a 0x prefix; unset or empty means 1, garbage parses as 0), and
// `ctest -L chaos` runs each suite under several. Every call echoes
// "[chaos] GOCC_CHAOS_SEED=<n>" on stdout, so a failing run names the seed
// that replays it: `GOCC_CHAOS_SEED=<n> ./tests/<binary>`.

#ifndef GOCC_TESTS_CHAOS_SEED_H_
#define GOCC_TESTS_CHAOS_SEED_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>

namespace gocc {

inline uint64_t ChaosSeed() {
  const char* env = std::getenv("GOCC_CHAOS_SEED");
  const uint64_t seed =
      env != nullptr && *env != '\0'
          ? static_cast<uint64_t>(std::strtoull(env, nullptr, 0))
          : 1;
  std::printf("[chaos] GOCC_CHAOS_SEED=%llu\n",
              static_cast<unsigned long long>(seed));
  return seed;
}

}  // namespace gocc

#endif  // GOCC_TESTS_CHAOS_SEED_H_
