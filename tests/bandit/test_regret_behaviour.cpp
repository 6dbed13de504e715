// Parameterized behavioural comparison of the bandit policies on a
// controlled stochastic environment: learning policies must achieve
// sub-linear per-round regret while Random stays linear.
#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <vector>

#include "../core/blocked_tsallis_inf.h"
#include "bandit/policy.h"
#include "bandit/random_policy.h"
#include "bandit/tsallis_inf.h"
#include "bandit/ucb2.h"
#include "util/rng.h"

namespace cea::bandit {
namespace {

struct PolicyCase {
  std::string name;
  PolicyFactory factory;
  bool learns;  ///< expected to beat Random asymptotically
};

// Without a printer gtest dumps the case's raw bytes into the test ID, and
// those bytes include the std::string's heap pointer, which ASLR moves on
// every run. Print the expected regret shape instead (the name is already the
// test's suffix).
void PrintTo(const PolicyCase& c, std::ostream* os) {
  *os << (c.learns ? "sub-linear" : "linear");
}

/// Mean loss of arm n in a 4-arm testbed; arm 2 is best.
double arm_mean(std::size_t arm) {
  const double means[] = {0.8, 0.6, 0.2, 0.9};
  return means[arm];
}

double run_regret(const PolicyFactory& factory, std::size_t horizon,
                  std::uint64_t seed) {
  PolicyContext context;
  context.num_models = 4;
  context.switching_cost = 1.0;
  context.seed = seed;
  context.energy_per_sample = {1.0, 2.0, 3.0, 4.0};
  auto policy = factory(context);
  Rng noise(seed ^ 0xABCDEF);
  double total_loss = 0.0;
  for (std::size_t t = 0; t < horizon; ++t) {
    const std::size_t arm = policy->select(t);
    const double loss = arm_mean(arm) + noise.uniform(-0.1, 0.1);
    policy->feedback(t, arm, loss);
    total_loss += arm_mean(arm);
  }
  return total_loss - static_cast<double>(horizon) * arm_mean(2);
}

class RegretBehaviour : public ::testing::TestWithParam<PolicyCase> {};

TEST_P(RegretBehaviour, RegretSubLinearForLearners) {
  const auto& param = GetParam();
  const double regret_short = run_regret(param.factory, 1000, 3);
  const double regret_long = run_regret(param.factory, 4000, 3);
  if (param.learns) {
    // Sub-linear: quadrupling T must grow regret by clearly less than 4x.
    EXPECT_LT(regret_long, regret_short * 3.0 + 50.0) << param.name;
    // And the per-round regret must be small in absolute terms.
    EXPECT_LT(regret_long / 4000.0, 0.2) << param.name;
  } else {
    // Random: per-round regret stays near the mean gap (~0.43).
    EXPECT_GT(regret_long / 4000.0, 0.3) << param.name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, RegretBehaviour,
    ::testing::Values(
        PolicyCase{"Random", RandomPolicy::factory(), false},
        PolicyCase{"UCB2", Ucb2Policy::factory(), true},
        PolicyCase{"TsallisINF", TsallisInfPolicy::factory(), true},
        // Algorithm 1 through its per-edge test oracle, which the SoA
        // fleet matches bit for bit (core/test_blocked_tsallis_fleet.cpp).
        // The discounted variant is intentionally absent: its geometric
        // forgetting buys drift tracking at the price of linear stationary
        // regret (see core/test_blocked_tsallis.cpp for its contract).
        PolicyCase{"BlockedTsallisINF",
                   core::BlockedTsallisInfPolicy::factory(), true}),
    [](const ::testing::TestParamInfo<PolicyCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace cea::bandit
