#include <gtest/gtest.h>

#include "src/optilib/perceptron.h"

namespace gocc::optilib {
namespace {

class PerceptronTest : public ::testing::Test {
 protected:
  Perceptron p_;
  int mutex_site_ = 0;
  int lock_site_ = 0;
  Perceptron::Indices idx_ =
      Perceptron::IndicesFor(&mutex_site_, &lock_site_);
};

TEST_F(PerceptronTest, OptimisticByDefault) {
  // Zero weights sum to 0, and >= 0 predicts HTM — fresh sites try HTM.
  EXPECT_TRUE(p_.Predict(idx_));
}

TEST_F(PerceptronTest, PenaltiesFlipPredictionToLock) {
  p_.PenalizeHtm(idx_);
  EXPECT_FALSE(p_.Predict(idx_));  // sum = -2 after one penalty on each table
}

TEST_F(PerceptronTest, RewardsReinforceHtm) {
  p_.PenalizeHtm(idx_);
  p_.RewardHtm(idx_);
  EXPECT_TRUE(p_.Predict(idx_));  // back to 0
  p_.RewardHtm(idx_);
  EXPECT_EQ(p_.WeightSum(idx_), 2);
}

TEST_F(PerceptronTest, WeightsSaturate) {
  for (int i = 0; i < 100; ++i) {
    p_.PenalizeHtm(idx_);
  }
  EXPECT_EQ(p_.WeightSum(idx_), 2 * Perceptron::kWeightMin);
  for (int i = 0; i < 100; ++i) {
    p_.RewardHtm(idx_);
  }
  EXPECT_EQ(p_.WeightSum(idx_), 2 * Perceptron::kWeightMax);
}

TEST_F(PerceptronTest, DecayResetsAfterThresholdSlowDecisions) {
  // Drive the predictor negative.
  for (int i = 0; i < 4; ++i) {
    p_.PenalizeHtm(idx_);
  }
  EXPECT_FALSE(p_.Predict(idx_));
  // Record slow-path decisions; the cell must reset at the threshold so HTM
  // gets re-probed after a phase change.
  bool reset = false;
  for (uint32_t i = 0; i < Perceptron::kDecayThreshold; ++i) {
    reset |= p_.NoteSlowDecision(idx_);
  }
  EXPECT_TRUE(reset);
  EXPECT_TRUE(p_.Predict(idx_));
  EXPECT_EQ(p_.WeightSum(idx_), 0);
}

TEST_F(PerceptronTest, RewardClearsSlowStreak) {
  for (uint32_t i = 0; i < Perceptron::kDecayThreshold - 1; ++i) {
    p_.NoteSlowDecision(idx_);
  }
  p_.RewardHtm(idx_);  // paper: lockCounter = 0 on fast-path success
  // The next slow decision starts a fresh streak: no reset yet.
  EXPECT_FALSE(p_.NoteSlowDecision(idx_));
}

TEST_F(PerceptronTest, XorFeatureSeparatesGoroutineContexts) {
  // Same mutex, different OptiLock (different goroutine stack / call site):
  // the mutex-feature cells must differ so updates do not collide.
  Perceptron p;
  auto* mutex_addr = reinterpret_cast<void*>(uintptr_t{0x1230});
  auto* lock_a = reinterpret_cast<void*>(uintptr_t{0x4560});
  auto* lock_b = reinterpret_cast<void*>(uintptr_t{0x7890});
  auto idx_a = Perceptron::IndicesFor(mutex_addr, lock_a);
  auto idx_b = Perceptron::IndicesFor(mutex_addr, lock_b);
  EXPECT_NE(idx_a.mutex_cell, idx_b.mutex_cell);
  EXPECT_NE(idx_a.context_cell, idx_b.context_cell);
  p.PenalizeHtm(idx_a);
  p.PenalizeHtm(idx_a);
  // Training one site must not flip the other.
  EXPECT_TRUE(p.Predict(idx_b));
}

TEST_F(PerceptronTest, IndicesStayInRange) {
  for (uintptr_t i = 0; i < 10000; ++i) {
    auto idx = Perceptron::IndicesFor(reinterpret_cast<void*>(i * 64 + 8),
                                      reinterpret_cast<void*>(i * 16));
    EXPECT_LT(idx.mutex_cell, Perceptron::kTableSize);
    EXPECT_LT(idx.context_cell, Perceptron::kTableSize);
  }
}

TEST_F(PerceptronTest, ResetZeroesEverything) {
  p_.PenalizeHtm(idx_);
  p_.Reset();
  EXPECT_EQ(p_.WeightSum(idx_), 0);
  EXPECT_TRUE(p_.Predict(idx_));
}

// Reset skips cells that already read zero, so it must still clear every
// dirtied one: each cell's weight and slow streak, in both tables.
TEST_F(PerceptronTest, ResetZeroesEveryCell) {
  for (uint32_t i = 0; i < Perceptron::kTableSize; ++i) {
    if (i % 3 != 0) {  // leave some cells clean
      p_.PenalizeHtm({i, i});
      p_.NoteSlowDecision({i, i});
    }
  }
  p_.Reset();
  for (uint32_t i = 0; i < Perceptron::kTableSize; ++i) {
    ASSERT_EQ(p_.WeightSum({i, i}), 0) << "cell " << i;
    // A streak left at 1 would reach the threshold one decision early.
    bool reset = false;
    for (uint32_t n = 0; n + 1 < Perceptron::kDecayThreshold; ++n) {
      reset |= p_.NoteSlowDecision({i, i});
    }
    ASSERT_FALSE(reset) << "cell " << i << " kept its slow streak";
  }
}

// Learning dynamics: under a workload where HTM fails p fraction of the
// time, the predictor must converge to "lock" for high p and stay at "HTM"
// for low p.
class PerceptronConvergence : public ::testing::TestWithParam<int> {};

TEST_P(PerceptronConvergence, ConvergesWithFailureRate) {
  Perceptron p;
  int mu = 0;
  int site = 0;
  auto idx = Perceptron::IndicesFor(&mu, &site);
  const int failures_per_16 = GetParam();
  // Simulate 160 episodes with the given failure density.
  for (int i = 0; i < 160; ++i) {
    if (!p.Predict(idx)) {
      p.NoteSlowDecision(idx);
      continue;
    }
    // Rewards lead each 16-episode block; failures trail. (A failure-first
    // pattern legitimately parks the predictor on the lock until weight
    // decay re-probes — the single-penalty-flips-to-lock behaviour is by
    // design, tested above.)
    if (i % 16 >= 16 - failures_per_16) {
      p.PenalizeHtm(idx);
    } else {
      p.RewardHtm(idx);
    }
  }
  if (failures_per_16 >= 12) {
    EXPECT_FALSE(p.Predict(idx)) << "mostly-failing HTM must fall to lock";
  }
  if (failures_per_16 <= 4) {
    EXPECT_TRUE(p.Predict(idx)) << "mostly-successful HTM must stay on HTM";
  }
}

INSTANTIATE_TEST_SUITE_P(FailureRates, PerceptronConvergence,
                         ::testing::Values(0, 2, 4, 12, 14, 16));

}  // namespace
}  // namespace gocc::optilib
