// Edge-fleet scenario: drives sim::SlotEngine, the one implementation of
// the per-slot protocol of Fig. 2, slot by slot — the integration surface
// the batch Simulator and the serving daemon both use. The caller supplies
// every input of a slot: begin_slot hands the slot's price quote to
// Algorithm 2 and returns its trade decision; finish_slot takes that trade
// and one arrival count per edge, has every edge's Algorithm 1 policy pick
// a model, streams the slot's samples through it, feeds the losses back,
// and settles the allowance ledger and the trader.
//
// A fleet of heterogeneous edges serves diurnal workloads; the controller
// learns the best model per edge while trading allowances online.
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/blocked_tsallis_fleet.h"
#include "core/carbon_trader.h"
#include "core/regret.h"
#include "sim/environment.h"
#include "sim/simulator.h"
#include "sim/slot_engine.h"
#include "util/table.h"

int main() {
  using namespace cea;

  sim::SimConfig config;
  config.num_edges = 8;
  config.seed = 7;
  const auto env = sim::Environment::make_parametric(config);

  // The "Ours" pair — the SoA Algorithm 1 fleet and the Algorithm 2
  // trader — built from the contexts a Simulator run would hand them.
  constexpr std::uint64_t kRunSeed = 99;
  const sim::Simulator simulator(env);
  auto fleet = std::make_unique<core::BlockedTsallisFleetPolicy>(
      simulator.fleet_policy_context(kRunSeed));
  auto trader = std::make_unique<core::OnlineCarbonTrader>(
      simulator.trader_context(kRunSeed), core::OnlineTraderConfig{});
  // The engine owns both; keep read-only views for the report.
  const core::BlockedTsallisFleetPolicy& policy = *fleet;
  const core::OnlineCarbonTrader& carbon_trader = *trader;
  sim::SlotEngine engine(env, sim::SimOptions{}, std::move(fleet),
                         std::move(trader), kRunSeed, "Ours");

  std::vector<int> arrivals(env.num_edges());
  for (std::size_t t = 0; t < env.horizon(); ++t) {
    // Step 1: the slot's market quote; Algorithm 2 decides the trade.
    const trading::TradeObservation quote{env.prices().buy[t],
                                          env.prices().sell[t]};
    const trading::TradeDecision trade = engine.begin_slot(quote);
    // Steps 2-4: model placement, inference over the slot's arrivals (here
    // the environment's workload trace; the empirical loss profiles play
    // the role of real inference — see nn_inference_demo for live
    // networks), bandit feedback, and the ledger and dual updates.
    for (std::size_t i = 0; i < env.num_edges(); ++i)
      arrivals[i] = env.workload()[i][t];
    engine.finish_slot(quote, trade, arrivals);
  }
  const sim::RunResult& result = engine.result();

  std::printf("Fleet of %zu edges over %zu slots\n", env.num_edges(),
              env.horizon());
  std::printf("  total cost        : %.1f\n", result.total_cost());
  // A switch replaces a hosted model; the initial t = 0 downloads cost
  // transfer energy but are not switches.
  std::printf("  model switches    : %zu (%.2f per edge)\n",
              result.total_switches,
              static_cast<double>(result.total_switches) /
                  static_cast<double>(env.num_edges()));
  std::printf("  carbon fit        : %.2f units uncovered\n",
              core::fit(result.emissions, result.buys, result.sells,
                        config.carbon_cap));
  std::printf("  final dual lambda : %.3f (cent/unit carbon pressure)\n\n",
              carbon_trader.lambda());

  Table table({"edge", "u_i", "best model (hindsight)", "hosted most",
               "late-horizon prob"});
  for (std::size_t i = 0; i < env.num_edges(); ++i) {
    const auto& counts = result.selection_counts[i];
    std::size_t hosted = 0;
    for (std::size_t n = 1; n < counts.size(); ++n)
      if (counts[n] > counts[hosted]) hosted = n;
    table.add_row({std::to_string(i), fmt(env.switching_cost(i), 2),
                   env.models()[env.best_model(i)].name,
                   env.models()[hosted].name,
                   fmt(policy.probabilities(i)[hosted], 3)});
  }
  table.print();
  return 0;
}
