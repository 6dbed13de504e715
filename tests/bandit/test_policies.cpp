#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "bandit/greedy_policy.h"
#include "bandit/policy.h"
#include "bandit/random_policy.h"
#include "bandit/tsallis_inf.h"
#include "bandit/ucb2.h"

namespace cea::bandit {
namespace {

PolicyContext make_context(std::size_t num_models, std::uint64_t seed = 1) {
  PolicyContext context;
  context.num_models = num_models;
  context.switching_cost = 1.0;
  context.seed = seed;
  context.energy_per_sample.resize(num_models);
  for (std::size_t n = 0; n < num_models; ++n)
    context.energy_per_sample[n] = 1.0 + static_cast<double>(n);
  return context;
}

TEST(ArmStats, MeansAndBest) {
  ArmStats stats(3);
  stats.observe(0, 2.0);
  stats.observe(0, 4.0);
  stats.observe(1, 1.0);
  EXPECT_DOUBLE_EQ(stats.mean(0), 3.0);
  EXPECT_DOUBLE_EQ(stats.mean(1), 1.0);
  EXPECT_EQ(stats.count(0), 2u);
  EXPECT_EQ(stats.total_count(), 3u);
  // Arm 2 unplayed -> preferred by best_arm.
  EXPECT_EQ(stats.best_arm(), 2u);
  stats.observe(2, 10.0);
  EXPECT_EQ(stats.best_arm(), 1u);
}

TEST(RandomPolicy, SelectsAllArmsEventually) {
  RandomPolicy policy(make_context(4));
  std::set<std::size_t> seen;
  for (std::size_t t = 0; t < 200; ++t) seen.insert(policy.select(t));
  EXPECT_EQ(seen.size(), 4u);
}

TEST(RandomPolicy, UniformDistribution) {
  RandomPolicy policy(make_context(3, 9));
  std::vector<int> counts(3, 0);
  for (std::size_t t = 0; t < 30000; ++t) ++counts[policy.select(t)];
  for (int c : counts) EXPECT_NEAR(c / 30000.0, 1.0 / 3.0, 0.02);
}

TEST(GreedyPolicy, PicksLowestEnergyAlways) {
  auto context = make_context(5);
  context.energy_per_sample = {3.0, 0.5, 2.0, 1.0, 4.0};
  GreedyEnergyPolicy policy(context);
  for (std::size_t t = 0; t < 50; ++t) EXPECT_EQ(policy.select(t), 1u);
}

TEST(GreedyPolicy, NoEnergyTableFallsBackToZero) {
  auto context = make_context(3);
  context.energy_per_sample.clear();
  GreedyEnergyPolicy policy(context);
  EXPECT_EQ(policy.select(0), 0u);
}

TEST(GreedyPolicy, IgnoresFeedback) {
  auto context = make_context(3);
  context.energy_per_sample = {1.0, 2.0, 3.0};
  GreedyEnergyPolicy policy(context);
  policy.feedback(0, 0, 100.0);
  EXPECT_EQ(policy.select(1), 0u);
}

TEST(Ucb2, PlaysEveryArmFirst) {
  Ucb2Policy policy(make_context(4), 0.5, 1.0);
  std::set<std::size_t> first_arms;
  for (std::size_t t = 0; t < 4; ++t) {
    const std::size_t arm = policy.select(t);
    first_arms.insert(arm);
    policy.feedback(t, arm, 0.5);
  }
  EXPECT_EQ(first_arms.size(), 4u);
}

TEST(Ucb2, ConvergesToBestArm) {
  Ucb2Policy policy(make_context(3, 7), 0.5, 1.0);
  std::vector<int> counts(3, 0);
  Rng noise(11);
  for (std::size_t t = 0; t < 4000; ++t) {
    const std::size_t arm = policy.select(t);
    const double base = arm == 0 ? 0.2 : 0.8;
    policy.feedback(t, arm, base + noise.uniform(-0.05, 0.05));
    if (t >= 3000) ++counts[arm];
  }
  EXPECT_GT(counts[0], counts[1] + counts[2]);
}

TEST(Ucb2, SwitchesAreLogarithmic) {
  Ucb2Policy policy(make_context(3, 8), 0.5, 1.0);
  std::size_t switches = 0;
  std::size_t prev = SIZE_MAX;
  Rng noise(12);
  const std::size_t horizon = 5000;
  for (std::size_t t = 0; t < horizon; ++t) {
    const std::size_t arm = policy.select(t);
    if (arm != prev) ++switches;
    prev = arm;
    policy.feedback(t, arm, (arm == 1 ? 0.3 : 0.7) + noise.uniform(0.0, 0.1));
  }
  // Epoch doubling: switches should be orders of magnitude below T.
  EXPECT_LT(switches, 200u);
}

TEST(TsallisInf, ConcentratesOnBestArm) {
  TsallisInfPolicy policy(make_context(4, 9));
  std::vector<int> counts(4, 0);
  Rng noise(13);
  for (std::size_t t = 0; t < 4000; ++t) {
    const std::size_t arm = policy.select(t);
    const double base = arm == 3 ? 0.2 : 0.9;
    policy.feedback(t, arm, base + noise.uniform(-0.05, 0.05));
    if (t >= 3000) ++counts[arm];
  }
  EXPECT_GT(counts[3], 700);
}

TEST(TsallisInf, StillExploresOccasionally) {
  TsallisInfPolicy policy(make_context(2, 10));
  std::set<std::size_t> late_arms;
  for (std::size_t t = 0; t < 2000; ++t) {
    const std::size_t arm = policy.select(t);
    policy.feedback(t, arm, arm == 0 ? 0.3 : 0.7);
    if (t > 500) late_arms.insert(arm);
  }
  // Tsallis-INF keeps nonzero probability on every arm.
  EXPECT_GE(late_arms.size(), 1u);
}

TEST(Factories, ProduceWorkingPolicies) {
  const auto context = make_context(3, 21);
  std::vector<PolicyFactory> factories = {
      RandomPolicy::factory(), GreedyEnergyPolicy::factory(),
      Ucb2Policy::factory(),   TsallisInfPolicy::factory(),
  };
  for (auto& factory : factories) {
    auto policy = factory(context);
    ASSERT_NE(policy, nullptr);
    for (std::size_t t = 0; t < 10; ++t) {
      const std::size_t arm = policy->select(t);
      ASSERT_LT(arm, 3u) << policy->name();
      policy->feedback(t, arm, 0.5);
    }
    EXPECT_FALSE(policy->name().empty());
  }
}

}  // namespace
}  // namespace cea::bandit
