// Parameterized simulator invariants across scenario regimes: accounting
// identities that must hold for every algorithm and configuration.
#include <gtest/gtest.h>

#include <cmath>
#include <ostream>
#include <string>

#include "bandit/fleet_policy.h"
#include "bandit/random_policy.h"
#include "core/blocked_tsallis_fleet.h"
#include "core/carbon_trader.h"
#include "sim/experiment.h"
#include "sim/simulator.h"
#include "trading/lyapunov_trader.h"
#include "trading/random_trader.h"

namespace cea::sim {
namespace {

struct ScenarioCase {
  std::string name;
  std::size_t edges;
  std::size_t horizon;
  double mean_samples;
  double cap;
  double emission_rate;
  double switching_weight;
  std::size_t shift_slot;
};

// Keeps the test ID free of the raw byte dump (and its ASLR-dependent heap
// pointer) that gtest prints for types without a printer.
void PrintTo(const ScenarioCase& c, std::ostream* os) { *os << c.name; }

class SimulatorInvariants : public ::testing::TestWithParam<ScenarioCase> {
 protected:
  Environment make_env() const {
    const auto& p = GetParam();
    SimConfig config;
    config.num_edges = p.edges;
    config.horizon = p.horizon;
    config.workload.num_slots = p.horizon;
    config.workload.mean_samples = p.mean_samples;
    config.carbon_cap = p.cap;
    config.emission_rate = p.emission_rate;
    config.switching_weight = p.switching_weight;
    config.loss_shift_slot = p.shift_slot;
    config.loss_draw_cap = 32;
    config.seed = 23;
    return Environment::make_parametric(config);
  }
};

TEST_P(SimulatorInvariants, AccountingIdentitiesHold) {
  const auto env = make_env();
  Simulator simulator(env);
  const std::vector<std::pair<bandit::FleetPolicyFactory,
                              trading::TraderFactory>> algos = {
      {bandit::adapt_per_edge(bandit::RandomPolicy::factory()),
       trading::RandomTrader::factory()},
      {core::BlockedTsallisFleetPolicy::factory(),
       core::OnlineCarbonTrader::factory()},
      {core::BlockedTsallisFleetPolicy::factory(),
       trading::LyapunovTrader::factory()},
  };
  for (std::size_t a = 0; a < algos.size(); ++a) {
    const auto result =
        simulator.run(algos[a].first, algos[a].second, 5 + a, "case");

    // 1. Series lengths.
    ASSERT_EQ(result.horizon(), env.horizon());

    // 2. Selection counts: every edge hosts exactly one model per slot.
    for (const auto& counts : result.selection_counts) {
      std::size_t total = 0;
      for (auto c : counts) total += c;
      EXPECT_EQ(total, env.horizon());
    }

    // 3. Workload recorded equals the trace totals.
    for (std::size_t t = 0; t < env.horizon(); ++t) {
      double expected = 0.0;
      for (std::size_t i = 0; i < env.num_edges(); ++i)
        expected += env.workload()[i][t];
      EXPECT_NEAR(result.workload[t], expected, 1e-9);
    }

    // 4. Trading cost identity per slot.
    for (std::size_t t = 0; t < env.horizon(); ++t) {
      EXPECT_NEAR(result.trading_cost[t],
                  result.buys[t] * env.prices().buy[t] -
                      result.sells[t] * env.prices().sell[t],
                  1e-9);
    }

    // 5. Liquidity box respected.
    for (std::size_t t = 0; t < env.horizon(); ++t) {
      EXPECT_GE(result.buys[t], 0.0);
      EXPECT_LE(result.buys[t], env.config().max_trade_per_slot + 1e-9);
      EXPECT_GE(result.sells[t], 0.0);
      EXPECT_LE(result.sells[t], env.config().max_trade_per_slot + 1e-9);
    }

    // 6. Holdings clamp: the allowance balance never goes negative
    //    through selling (emissions may drive it negative).
    double balance = env.config().carbon_cap;
    for (std::size_t t = 0; t < env.horizon(); ++t) {
      EXPECT_LE(result.sells[t], std::max(0.0, balance + result.buys[t]) + 1e-9)
          << "slot " << t;
      balance += result.buys[t] - result.sells[t] - result.emissions[t];
    }

    // 7. Emissions positive; accuracy in [0, 1]; switches bounded.
    for (std::size_t t = 0; t < env.horizon(); ++t) {
      EXPECT_GT(result.emissions[t], 0.0);
      EXPECT_GE(result.accuracy[t], 0.0);
      EXPECT_LE(result.accuracy[t], 1.0);
    }
    // The initial download is not a switch, so at most I*(T-1) switches.
    EXPECT_LE(result.total_switches, env.num_edges() * (env.horizon() - 1));

    // 8. Settled cost identity.
    EXPECT_NEAR(result.settled_total_cost(),
                result.total_cost() +
                    result.violation() * result.settlement_price,
                1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Regimes, SimulatorInvariants,
    ::testing::Values(
        ScenarioCase{"default_like", 4, 60, 2000.0, 120.0, 500.0, 1.0, 0},
        ScenarioCase{"surplus", 3, 50, 200.0, 5000.0, 500.0, 1.0, 0},
        ScenarioCase{"deep_deficit", 3, 50, 8000.0, 10.0, 1000.0, 1.0, 0},
        ScenarioCase{"heavy_switching", 4, 60, 1000.0, 100.0, 500.0, 8.0, 0},
        ScenarioCase{"with_drift", 4, 60, 1000.0, 100.0, 500.0, 1.0, 30},
        ScenarioCase{"single_edge", 1, 40, 1000.0, 50.0, 500.0, 1.0, 0}),
    [](const ::testing::TestParamInfo<ScenarioCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace cea::sim
