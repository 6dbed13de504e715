// Carbon-market scenario: isolates the trading half of the system. Model
// selection is pinned to each edge's hindsight-best model so that every
// trader faces the same emission stream, then Algorithm 2 is compared with
// the Lyapunov, Threshold, and Random baselines and the offline LP across
// progressively tighter carbon caps.
#include <cstdio>
#include <vector>

#include "core/carbon_trader.h"
#include "core/regret.h"
#include "sim/experiment.h"
#include "sim/simulator.h"
#include "trading/lyapunov_trader.h"
#include "trading/offline_lp_trader.h"
#include "trading/random_trader.h"
#include "trading/threshold_trader.h"
#include "util/table.h"

namespace {

struct TraderRow {
  std::string name;
  cea::trading::TraderFactory factory;
};

}  // namespace

int main() {
  using namespace cea;

  std::printf("Trading comparison under fixed (hindsight-best) models\n\n");

  for (const double cap : {250.0, 500.0, 750.0}) {
    sim::SimConfig config;
    config.num_edges = 10;
    config.carbon_cap = cap;
    config.seed = 11;
    const auto env = sim::Environment::make_parametric(config);
    sim::Simulator simulator(env);

    std::vector<std::size_t> best(env.num_edges());
    for (std::size_t i = 0; i < env.num_edges(); ++i)
      best[i] = env.best_model(i);
    const bandit::FleetPolicyFactory fixed = bandit::fixed_policy(best);

    const std::vector<TraderRow> traders = {
        {"OnlinePD (ours)", core::OnlineCarbonTrader::factory()},
        {"Lyapunov", trading::LyapunovTrader::factory()},
        {"Threshold", trading::ThresholdTrader::factory()},
        {"Random", trading::RandomTrader::factory()},
    };

    std::printf("carbon cap = %.0f units\n", cap);
    Table table({"trader", "trading cost", "net bought", "fit",
                 "unit cost"});
    sim::RunResult reference;
    for (const auto& row : traders) {
      const auto result = simulator.run(fixed, row.factory, 3, row.name);
      table.add_row(row.name,
                    {result.total_trading_cost(),
                     result.total_buys() - result.total_sells(),
                     core::fit(result.emissions, result.buys, result.sells,
                               cap),
                     result.unit_purchase_cost()},
                    2);
      if (row.name == "Random") reference = result;
    }

    // Offline LP with full knowledge of prices and emissions.
    const auto offline = sim::run_offline(env, 3);
    table.add_row("Offline LP",
                  {offline.total_trading_cost(),
                   offline.total_buys() - offline.total_sells(),
                   core::fit(offline.emissions, offline.buys, offline.sells,
                             cap),
                   offline.unit_purchase_cost()},
                  2);
    table.print();
    std::printf("  (total emissions: %.1f units)\n\n",
                reference.total_emissions());
  }
  return 0;
}
