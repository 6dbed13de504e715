#include "blocked_tsallis_inf.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "util/rng.h"

namespace cea::core {
namespace {

bandit::PolicyContext make_context(std::size_t num_models, double u,
                                   std::uint64_t seed = 1) {
  bandit::PolicyContext context;
  context.num_models = num_models;
  context.switching_cost = u;
  context.seed = seed;
  return context;
}

TEST(BlockedTsallis, HoldsArmWithinBlock) {
  BlockedTsallisInfPolicy policy(make_context(4, 3.0));
  const std::size_t first_len = policy.schedule().block_length(1);
  const std::size_t arm0 = policy.select(0);
  policy.feedback(0, arm0, 0.5);
  for (std::size_t t = 1; t < first_len; ++t) {
    EXPECT_EQ(policy.select(t), arm0);
    policy.feedback(t, arm0, 0.5);
  }
}

TEST(BlockedTsallis, SwitchesOnlyAtBlockBoundaries) {
  BlockedTsallisInfPolicy policy(make_context(4, 2.0, 3));
  std::size_t prev = SIZE_MAX;
  std::vector<std::size_t> switch_slots;
  std::size_t expected_boundary = 0;
  std::vector<std::size_t> boundaries;
  for (std::size_t k = 1; expected_boundary < 500; ++k) {
    boundaries.push_back(expected_boundary);
    expected_boundary += policy.schedule().block_length(k);
  }
  for (std::size_t t = 0; t < 500; ++t) {
    const std::size_t arm = policy.select(t);
    if (arm != prev) switch_slots.push_back(t);
    prev = arm;
    policy.feedback(t, arm, 0.5);
  }
  for (std::size_t s : switch_slots) {
    EXPECT_NE(std::find(boundaries.begin(), boundaries.end(), s),
              boundaries.end())
        << "switch at non-boundary slot " << s;
  }
}

TEST(BlockedTsallis, SwitchCountBoundedByBlockCount) {
  BlockedTsallisInfPolicy policy(make_context(6, 1.5, 5));
  const std::size_t horizon = 1000;
  std::size_t switches = 0;
  std::size_t prev = SIZE_MAX;
  Rng noise(9);
  for (std::size_t t = 0; t < horizon; ++t) {
    const std::size_t arm = policy.select(t);
    if (arm != prev) ++switches;
    prev = arm;
    policy.feedback(t, arm, 0.5 + noise.uniform(-0.1, 0.1));
  }
  EXPECT_LE(switches, policy.schedule().blocks_for_horizon(horizon));
}

TEST(BlockedTsallis, ConvergesToBestArm) {
  BlockedTsallisInfPolicy policy(make_context(4, 1.0, 7));
  Rng noise(11);
  std::vector<int> late_counts(4, 0);
  const std::size_t horizon = 6000;
  for (std::size_t t = 0; t < horizon; ++t) {
    const std::size_t arm = policy.select(t);
    const double mean = arm == 1 ? 0.2 : 0.8;
    policy.feedback(t, arm, mean + noise.uniform(-0.1, 0.1));
    if (t >= horizon / 2) ++late_counts[arm];
  }
  EXPECT_GT(late_counts[1], late_counts[0]);
  EXPECT_GT(late_counts[1], late_counts[2]);
  EXPECT_GT(late_counts[1], late_counts[3]);
  EXPECT_GT(late_counts[1],
            static_cast<int>(horizon / 2) * 6 / 10);  // >60% exploitation
}

TEST(BlockedTsallis, ImportanceWeightedEstimatesUnbiasedDirectionally) {
  // After many blocks the cumulative loss estimate of the worst arm must
  // exceed that of the best arm.
  BlockedTsallisInfPolicy policy(make_context(2, 1.0, 13));
  Rng noise(17);
  for (std::size_t t = 0; t < 3000; ++t) {
    const std::size_t arm = policy.select(t);
    policy.feedback(t, arm, (arm == 0 ? 0.2 : 1.0) + noise.uniform(-0.05, 0.05));
  }
  const auto& estimates = policy.cumulative_loss_estimates();
  EXPECT_GT(estimates[1], estimates[0]);
}

TEST(BlockedTsallis, ProbabilitiesFormDistribution) {
  BlockedTsallisInfPolicy policy(make_context(5, 2.0, 19));
  policy.select(0);
  const auto& p = policy.current_probabilities();
  double total = 0.0;
  for (double v : p) {
    EXPECT_GT(v, 0.0);
    total += v;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(BlockedTsallis, FirstBlockIsUniform) {
  BlockedTsallisInfPolicy policy(make_context(4, 2.0, 23));
  policy.select(0);
  for (double v : policy.current_probabilities()) EXPECT_NEAR(v, 0.25, 1e-9);
}

TEST(BlockedTsallis, CompletedBlocksAdvance) {
  BlockedTsallisInfPolicy policy(make_context(3, 1.0, 29));
  const std::size_t len1 = policy.schedule().block_length(1);
  for (std::size_t t = 0; t < len1; ++t) {
    const auto arm = policy.select(t);
    policy.feedback(t, arm, 0.4);
  }
  EXPECT_EQ(policy.completed_blocks(), 1u);
}

TEST(BlockedTsallis, DeterministicGivenSeed) {
  BlockedTsallisInfPolicy a(make_context(4, 1.5, 31));
  BlockedTsallisInfPolicy b(make_context(4, 1.5, 31));
  for (std::size_t t = 0; t < 200; ++t) {
    const auto arm_a = a.select(t);
    const auto arm_b = b.select(t);
    EXPECT_EQ(arm_a, arm_b);
    a.feedback(t, arm_a, 0.3);
    b.feedback(t, arm_b, 0.3);
  }
}

TEST(BlockedTsallis, DiscountedEstimatesStayBounded) {
  // With discount < 1 the cumulative table is a geometric series: bounded,
  // unlike the undiscounted table which grows with time.
  BlockedTsallisInfPolicy policy(make_context(3, 1.0, 43), 0.9);
  for (std::size_t t = 0; t < 5000; ++t) {
    const auto arm = policy.select(t);
    policy.feedback(t, arm, 1.0);
  }
  for (double c : policy.cumulative_loss_estimates()) {
    EXPECT_LT(c, 1e4);  // undiscounted would reach ~importance-weighted 5e3+
  }
}

TEST(BlockedTsallis, DiscountedTracksArmSwap) {
  // Arm qualities swap mid-stream: the discounted policy must host the new
  // best arm most of the time in the final stretch.
  BlockedTsallisInfPolicy policy(make_context(2, 1.0, 47), 0.9);
  Rng noise(53);
  const std::size_t horizon = 6000, swap = 2000;
  std::vector<int> late(2, 0);
  for (std::size_t t = 0; t < horizon; ++t) {
    const auto arm = policy.select(t);
    const std::size_t best = t < swap ? 0u : 1u;
    policy.feedback(t, arm,
                    (arm == best ? 0.2 : 0.9) + noise.uniform(-0.05, 0.05));
    if (t >= horizon - 1500) ++late[arm];
  }
  EXPECT_GT(late[1], late[0]);
}

TEST(BlockedTsallis, DiscountOneMatchesBaseAlgorithm) {
  BlockedTsallisInfPolicy base(make_context(4, 1.5, 59));
  BlockedTsallisInfPolicy discounted(make_context(4, 1.5, 59), 1.0);
  for (std::size_t t = 0; t < 300; ++t) {
    const auto a = base.select(t);
    const auto b = discounted.select(t);
    EXPECT_EQ(a, b);
    base.feedback(t, a, 0.4);
    discounted.feedback(t, b, 0.4);
  }
}

TEST(BlockedTsallis, HigherSwitchingCostFewerSwitches) {
  auto count_switches = [](double u) {
    BlockedTsallisInfPolicy policy(make_context(4, u, 37));
    std::size_t switches = 0;
    std::size_t prev = SIZE_MAX;
    Rng noise(41);
    for (std::size_t t = 0; t < 2000; ++t) {
      const auto arm = policy.select(t);
      if (arm != prev) ++switches;
      prev = arm;
      policy.feedback(t, arm, 0.5 + noise.uniform(-0.2, 0.2));
    }
    return switches;
  };
  EXPECT_GT(count_switches(0.2), count_switches(8.0));
}

}  // namespace
}  // namespace cea::core
