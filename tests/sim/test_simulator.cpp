#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "bandit/fleet_policy.h"
#include "bandit/greedy_policy.h"
#include "bandit/random_policy.h"
#include "core/blocked_tsallis_fleet.h"
#include "core/carbon_trader.h"
#include "trading/random_trader.h"

namespace cea::sim {
namespace {

// The per-edge baselines run behind the fleet adapter.
bandit::FleetPolicyFactory random_policy() {
  return bandit::adapt_per_edge(bandit::RandomPolicy::factory());
}

bandit::FleetPolicyFactory greedy_policy() {
  return bandit::adapt_per_edge(bandit::GreedyEnergyPolicy::factory());
}

SimConfig small_config() {
  SimConfig config;
  config.num_edges = 3;
  config.horizon = 50;
  config.workload.num_slots = 50;
  config.workload.mean_samples = 300.0;
  config.loss_draw_cap = 64;
  config.seed = 11;
  return config;
}

TEST(Simulator, SeriesHaveHorizonLength) {
  const auto env = Environment::make_parametric(small_config());
  Simulator simulator(env);
  const auto result = simulator.run(random_policy(),
                                    trading::RandomTrader::factory(), 1,
                                    "Ran-Ran");
  EXPECT_EQ(result.horizon(), 50u);
  EXPECT_EQ(result.emissions.size(), 50u);
  EXPECT_EQ(result.accuracy.size(), 50u);
  EXPECT_EQ(result.selection_counts.size(), 3u);
  EXPECT_EQ(result.algorithm, "Ran-Ran");
}

TEST(Simulator, SelectionCountsSumToHorizon) {
  const auto env = Environment::make_parametric(small_config());
  Simulator simulator(env);
  const auto result = simulator.run(random_policy(),
                                    trading::RandomTrader::factory(), 2,
                                    "Ran-Ran");
  for (const auto& counts : result.selection_counts) {
    std::size_t total = 0;
    for (auto c : counts) total += c;
    EXPECT_EQ(total, 50u);
  }
}

TEST(Simulator, EmissionsPositiveAndScaleWithRate) {
  auto config = small_config();
  const auto env1 = Environment::make_parametric(config);
  config.emission_rate *= 2.0;
  const auto env2 = Environment::make_parametric(config);
  Simulator sim1(env1), sim2(env2);
  const auto r1 = sim1.run(greedy_policy(),
                           trading::RandomTrader::factory(), 3, "a");
  const auto r2 = sim2.run(greedy_policy(),
                           trading::RandomTrader::factory(), 3, "b");
  EXPECT_GT(r1.total_emissions(), 0.0);
  EXPECT_NEAR(r2.total_emissions(), 2.0 * r1.total_emissions(),
              0.05 * r2.total_emissions());
}

TEST(Simulator, GreedyNeverSwitchesAfterFirstSlot) {
  const auto env = Environment::make_parametric(small_config());
  Simulator simulator(env);
  const auto result = simulator.run(greedy_policy(),
                                    trading::RandomTrader::factory(), 4,
                                    "Greedy-Ran");
  // The initial download is not a switch: greedy holds one model forever,
  // so no slot ever charges u_i.
  EXPECT_EQ(result.total_switches, 0u);
  for (std::size_t t = 0; t < result.horizon(); ++t)
    EXPECT_DOUBLE_EQ(result.switching_cost[t], 0.0);
}

TEST(Simulator, RandomPolicySwitchesOften) {
  const auto env = Environment::make_parametric(small_config());
  Simulator simulator(env);
  const auto result = simulator.run(random_policy(),
                                    trading::RandomTrader::factory(), 5,
                                    "Ran-Ran");
  // 6 models: expect ~5/6 switch probability per slot per edge.
  EXPECT_GT(result.total_switches, 50u * 3u / 2u);
}

TEST(Simulator, AccuracyWithinUnitInterval) {
  const auto env = Environment::make_parametric(small_config());
  Simulator simulator(env);
  const auto result = simulator.run(random_policy(),
                                    trading::RandomTrader::factory(), 6,
                                    "Ran-Ran");
  for (double a : result.accuracy) {
    EXPECT_GE(a, 0.0);
    EXPECT_LE(a, 1.0);
  }
}

TEST(Simulator, DeterministicForSameRunSeed) {
  const auto env = Environment::make_parametric(small_config());
  Simulator simulator(env);
  const auto a = simulator.run(core::BlockedTsallisFleetPolicy::factory(),
                               core::OnlineCarbonTrader::factory(), 7, "Ours");
  const auto b = simulator.run(core::BlockedTsallisFleetPolicy::factory(),
                               core::OnlineCarbonTrader::factory(), 7, "Ours");
  EXPECT_EQ(a.inference_cost, b.inference_cost);
  EXPECT_EQ(a.buys, b.buys);
  EXPECT_EQ(a.total_switches, b.total_switches);
}

TEST(Simulator, DifferentRunSeedsDiffer) {
  const auto env = Environment::make_parametric(small_config());
  Simulator simulator(env);
  const auto a = simulator.run(random_policy(),
                               trading::RandomTrader::factory(), 8, "x");
  const auto b = simulator.run(random_policy(),
                               trading::RandomTrader::factory(), 9, "x");
  EXPECT_NE(a.selection_counts, b.selection_counts);
}

TEST(Simulator, RunFixedHoldsChoices) {
  const auto env = Environment::make_parametric(small_config());
  Simulator simulator(env);
  const std::vector<std::size_t> choice = {2, 2, 2};
  const auto result = simulator.run(bandit::fixed_policy(choice),
                                    trading::RandomTrader::factory(), 10,
                                    "fixed");
  for (const auto& counts : result.selection_counts) {
    EXPECT_EQ(counts[2], 50u);
  }
  // Holding a fixed model never switches; the initial download is free of
  // switching cost (it still pays transfer energy).
  EXPECT_EQ(result.total_switches, 0u);
}

TEST(Simulator, FixedPolicyRejectsMismatchedChoices) {
  const auto env = Environment::make_parametric(small_config());
  Simulator simulator(env);
  const auto trader = trading::RandomTrader::factory();
  // One choice short of the three edges.
  EXPECT_THROW(simulator.run(bandit::fixed_policy({0, 0}), trader, 1, "f"),
               std::invalid_argument);
  // A model index past the last model.
  EXPECT_THROW(simulator.run(bandit::fixed_policy({0, env.num_models(), 0}),
                             trader, 1, "f"),
               std::invalid_argument);
}

TEST(Simulator, TradingCostMatchesDecisionsAndPrices) {
  const auto env = Environment::make_parametric(small_config());
  Simulator simulator(env);
  const auto result = simulator.run(greedy_policy(),
                                    trading::RandomTrader::factory(), 11,
                                    "g");
  for (std::size_t t = 0; t < result.horizon(); ++t) {
    const double expected = result.buys[t] * env.prices().buy[t] -
                            result.sells[t] * env.prices().sell[t];
    EXPECT_NEAR(result.trading_cost[t], expected, 1e-9);
  }
}

TEST(Simulator, InferenceCostUsesExpectedLoss) {
  // With a fixed model everywhere, the inference cost per slot is exactly
  // sum_i (mean_loss + v_{i,n}).
  const auto env = Environment::make_parametric(small_config());
  Simulator simulator(env);
  const std::vector<std::size_t> choice = {1, 1, 1};
  const auto result = simulator.run(bandit::fixed_policy(choice),
                                    trading::RandomTrader::factory(), 12,
                                    "fixed");
  double expected = 0.0;
  for (std::size_t i = 0; i < 3; ++i)
    expected += env.models()[1].profile.mean_loss() +
                env.computation_cost(i, 1);
  for (std::size_t t = 0; t < result.horizon(); ++t)
    EXPECT_NEAR(result.inference_cost[t], expected, 1e-9);
}

TEST(Simulator, LossDrawCapZeroDrawsAllSamples) {
  auto config = small_config();
  config.loss_draw_cap = 0;
  config.workload.mean_samples = 50.0;  // keep it cheap
  const auto env = Environment::make_parametric(config);
  Simulator simulator(env);
  const auto result = simulator.run(greedy_policy(),
                                    trading::RandomTrader::factory(), 13,
                                    "g");
  EXPECT_EQ(result.horizon(), config.horizon);
}

}  // namespace
}  // namespace cea::sim
