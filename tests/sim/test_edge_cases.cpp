// Degenerate-scenario robustness: single edge, single model, one-slot
// horizon, zero cap, huge cap, tiny workload, sales clamping.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "bandit/fleet_policy.h"
#include "bandit/random_policy.h"
#include "core/regret.h"
#include "sim/experiment.h"
#include "sim/simulator.h"
#include "trading/random_trader.h"

namespace cea::sim {
namespace {

// Random selection runs behind the per-edge fleet adapter.
bandit::FleetPolicyFactory random_policy() {
  return bandit::adapt_per_edge(bandit::RandomPolicy::factory());
}

SimConfig tiny_config() {
  SimConfig config;
  config.num_edges = 1;
  config.horizon = 1;
  config.workload.num_slots = 1;
  config.workload.mean_samples = 5.0;
  config.seed = 3;
  return config;
}

TEST(EdgeCases, SingleSlotSingleEdge) {
  const auto env = Environment::make_parametric(tiny_config());
  Simulator simulator(env);
  const auto result = simulator.run(random_policy(),
                                    trading::RandomTrader::factory(), 1, "x");
  EXPECT_EQ(result.horizon(), 1u);
  EXPECT_EQ(result.total_switches, 0u);  // initial download is not a switch
  EXPECT_GT(result.total_inference_cost(), 0.0);
}

TEST(EdgeCases, SingleModel) {
  auto config = tiny_config();
  config.horizon = 20;
  config.workload.num_slots = 20;
  config.num_models = 1;
  const auto env = Environment::make_parametric(config);
  EXPECT_EQ(env.num_models(), 1u);
  const auto result = run_combo(env, ours_combo(), 2);
  EXPECT_EQ(result.selection_counts[0][0], 20u);
  // With one model there is nothing to switch to.
  EXPECT_EQ(result.total_switches, 0u);
}

TEST(EdgeCases, ZeroCapStillRuns) {
  auto config = tiny_config();
  config.horizon = 30;
  config.workload.num_slots = 30;
  config.carbon_cap = 0.0;
  const auto env = Environment::make_parametric(config);
  const auto result = run_combo(env, ours_combo(), 3);
  // Everything must be bought or violated; both costs are finite.
  EXPECT_TRUE(std::isfinite(result.settled_total_cost()));
  EXPECT_GE(result.violation(), 0.0);
}

TEST(EdgeCases, HugeCapMeansNoBuying) {
  auto config = tiny_config();
  config.horizon = 40;
  config.workload.num_slots = 40;
  config.carbon_cap = 1e9;
  const auto env = Environment::make_parametric(config);
  const auto result = run_combo(env, ours_combo(), 4);
  EXPECT_DOUBLE_EQ(result.violation(), 0.0);
  EXPECT_LT(result.total_buys(), 1.0);
}

TEST(EdgeCases, SalesClampedToHoldings) {
  // An always-sell trader cannot drive the allowance balance negative
  // through selling when the clamp is on.
  auto config = tiny_config();
  config.horizon = 50;
  config.workload.num_slots = 50;
  config.carbon_cap = 10.0;
  config.clamp_sales_to_holdings = true;
  const auto env = Environment::make_parametric(config);
  Simulator simulator(env);

  auto always_sell = [](const trading::TraderContext& context) {
    struct Seller final : trading::TradingPolicy {
      explicit Seller(double cap) : cap_(cap) {}
      trading::TradeDecision decide(std::size_t,
                                    const trading::TradeObservation&) override {
        return {0.0, cap_};
      }
      void feedback(std::size_t, double, const trading::TradeObservation&,
                    const trading::TradeDecision&) override {}
      std::string name() const override { return "Seller"; }
      double cap_;
    };
    return std::make_unique<Seller>(context.max_trade_per_slot);
  };
  const auto result = simulator.run(random_policy(),
                                    always_sell, 5, "seller");
  // Total sold cannot exceed initial cap (emissions only reduce holdings).
  EXPECT_LE(result.total_sells(), config.carbon_cap + 1e-9);
}

TEST(EdgeCases, UnclampedSalesAllowed) {
  auto config = tiny_config();
  config.horizon = 50;
  config.workload.num_slots = 50;
  config.carbon_cap = 10.0;
  config.clamp_sales_to_holdings = false;
  const auto env = Environment::make_parametric(config);
  Simulator simulator(env);
  auto always_sell = [](const trading::TraderContext& context) {
    struct Seller final : trading::TradingPolicy {
      explicit Seller(double cap) : cap_(cap) {}
      trading::TradeDecision decide(std::size_t,
                                    const trading::TradeObservation&) override {
        return {0.0, cap_};
      }
      void feedback(std::size_t, double, const trading::TradeObservation&,
                    const trading::TradeDecision&) override {}
      std::string name() const override { return "Seller"; }
      double cap_;
    };
    return std::make_unique<Seller>(context.max_trade_per_slot);
  };
  const auto result = simulator.run(random_policy(),
                                    always_sell, 5, "seller");
  EXPECT_GT(result.total_sells(), config.carbon_cap);
}

TEST(EdgeCases, OfflineOnTinyScenario) {
  auto config = tiny_config();
  config.horizon = 10;
  config.workload.num_slots = 10;
  const auto env = Environment::make_parametric(config);
  const auto offline = run_offline(env, 6);
  EXPECT_EQ(offline.horizon(), 10u);
  EXPECT_NEAR(core::fit(offline.emissions, offline.buys, offline.sells,
                        config.carbon_cap),
              0.0, 1e-6);
}

TEST(EdgeCases, ComparatorCostFiniteOnTinyScenario) {
  auto config = tiny_config();
  config.horizon = 5;
  config.workload.num_slots = 5;
  const auto env = Environment::make_parametric(config);
  EXPECT_TRUE(std::isfinite(comparator_cost(env, 7)));
}

}  // namespace
}  // namespace cea::sim
