// Cross-validation between the static lint taxonomy and the runtime misuse
// taxonomy: the lock-order-inversion hazard gocc-lint reports statically on
// corpus/misuse/order_inversion.go is the *same* hazard the multi-lock
// runtime detects (and neutralizes via sorted 2PL) dynamically — same
// kebab-case name in both layers, so a report from either side greps to
// the other.

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "bench/corpus_util.h"
#include "src/analysis/fusion.h"
#include "src/analysis/lint.h"
#include "src/gosync/mutex.h"
#include "src/gosync/runtime.h"
#include "src/htm/config.h"
#include "src/htm/shared.h"
#include "src/optilib/optilock.h"
#include "src/support/misuse.h"

namespace gocc {
namespace {

using support::MisuseCount;
using support::MisuseKind;
using support::MisusePolicy;

// The analyzer's fusion width cap must equal the runtime's set capacity:
// the transformer only emits FastLockSet calls the runtime can admit.
static_assert(analysis::kMaxFusedLockSet == optilib::OptiLock::kMaxLockSet,
              "fusion width cap out of sync with the runtime set capacity");

// One taxonomy name across layers: a static lock-order-inversion finding
// and a runtime lock-order-inversion misuse report use the same string.
TEST(LintRuntimeCrosscheck, TaxonomyNamesAgree) {
  EXPECT_STREQ(
      analysis::LintKindName(analysis::LintKind::kLockOrderInversion),
      support::MisuseKindName(MisuseKind::kLockOrderInversion));
  EXPECT_STREQ(
      analysis::LintKindName(analysis::LintKind::kLockOrderInversion),
      "lock-order-inversion");
}

// Static side: the ABBA fixture produces exactly one lock-order-inversion
// finding whose witnesses name both inverted paths.
TEST(LintRuntimeCrosscheck, StaticLintFlagsTheAbbaFixture) {
  bench::CorpusRepo repo;
  repo.name = "misuse/order_inversion";
  repo.go_files = {bench::DefaultCorpusDir() + "/misuse/order_inversion.go"};
  auto output = bench::RunOnRepo(repo, /*use_profile=*/false);
  ASSERT_TRUE(output.ok()) << output.status().ToString();
  int inversions = 0;
  for (const auto& finding : output->lint.findings) {
    if (finding.kind == analysis::LintKind::kLockOrderInversion) {
      ++inversions;
      EXPECT_NE(finding.message.find("LockAB"), std::string::npos)
          << finding.message;
      EXPECT_NE(finding.message.find("LockBA"), std::string::npos)
          << finding.message;
    }
  }
  EXPECT_EQ(inversions, 1);
}

// Dynamic side: executing the same inverted-order shape under the runtime
// increments the lock-order-inversion misuse counter — and running both
// paths as *fused sets* (what the transformer emits for the fixture's
// LockAB/LockBA nests) neutralizes the inversion entirely, because the
// slow path acquires every set in global address order.
TEST(LintRuntimeCrosscheck, RuntimeCountsTheSameHazardAndSortedSetsFixIt) {
  htm::ForceSoftwareBackend();
  optilib::PublishOptiConfig(optilib::OptiConfig{});
  support::SetMisusePolicy(MisusePolicy::kRecoverAndCount);
  support::ResetMisuseCounters();
  int prev_procs = gosync::SetMaxProcs(1);  // every episode slow-held

  gosync::Mutex pools[3];  // array layout fixes the address order

  // Untransformed LockBA shape: hold a multi-lock set, then acquire a
  // mutex below its watermark — the runtime flags the inversion and
  // recovers by acquiring in the requested order anyway.
  {
    optilib::OptiLock outer;
    outer.WithLocks({&pools[1], &pools[2]}, [&] {
      optilib::OptiLock inner;
      inner.WithLock(&pools[0], [] {});
    });
  }
  EXPECT_EQ(MisuseCount(MisuseKind::kLockOrderInversion), 1u);

  // Fused LockAB and LockBA: both become one sorted set acquisition, so
  // the acquisition order is identical regardless of the textual order
  // and no inversion is ever reported.
  support::ResetMisuseCounters();
  {
    optilib::OptiLock ab;
    ab.WithLocks({&pools[0], &pools[1]}, [] {});
    optilib::OptiLock ba;
    ba.WithLocks({&pools[1], &pools[0]}, [] {});
  }
  EXPECT_EQ(MisuseCount(MisuseKind::kLockOrderInversion), 0u);
  EXPECT_EQ(support::TotalMisuse(), 0u);

  for (auto& m : pools) {
    EXPECT_FALSE(m.IsLocked());
  }
  gosync::SetMaxProcs(prev_procs);
}

}  // namespace
}  // namespace gocc
