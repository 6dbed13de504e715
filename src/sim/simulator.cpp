#include "sim/simulator.h"

#include <utility>
#include <vector>

#include "obs/telemetry.h"
#include "sim/series_recorder.h"
#include "sim/slot_engine.h"

namespace cea::sim {

trading::TraderContext Simulator::trader_context(
    std::uint64_t run_seed) const {
  trading::TraderContext context;
  context.horizon = env_.horizon();
  context.carbon_cap = env_.config().carbon_cap;
  context.max_trade_per_slot = env_.config().max_trade_per_slot;
  context.seed = run_seed ^ 0x7E57ED5EEDULL;
  return context;
}

bandit::FleetPolicyContext Simulator::fleet_policy_context(
    std::uint64_t run_seed) const {
  bandit::FleetPolicyContext context;
  context.num_edges = env_.num_edges();
  context.num_models = env_.num_models();
  context.horizon = env_.horizon();
  context.run_seed = run_seed;
  context.energy_per_sample.reserve(env_.num_models());
  for (const auto& model : env_.models())
    context.energy_per_sample.push_back(model.energy_per_sample);
  context.switching_cost.reserve(env_.num_edges());
  for (std::size_t i = 0; i < env_.num_edges(); ++i)
    context.switching_cost.push_back(env_.switching_cost(i));
  return context;
}

RunResult Simulator::run(const bandit::FleetPolicyFactory& policy_factory,
                         const trading::TraderFactory& trader_factory,
                         std::uint64_t run_seed,
                         std::string algorithm_name) const {
  auto fleet = policy_factory(fleet_policy_context(run_seed));
  auto trader = trader_factory(trader_context(run_seed));
  SlotEngine engine(env_, options_, std::move(fleet), std::move(trader),
                    run_seed, algorithm_name);
  SeriesRecorder recorder(1, env_.horizon());
  engine.set_observer(&recorder, 0);
  const data::WorkloadTraces& workload = env_.workload();
  const data::PriceSeries& prices = env_.prices();
  std::vector<int> column(env_.num_edges());
  for (std::size_t t = 0; t < env_.horizon(); ++t) {
    CEA_SPAN("sim.slot");
    for (std::size_t i = 0; i < column.size(); ++i) column[i] = workload[i][t];
    const trading::TradeObservation quote{prices.buy[t], prices.sell[t]};
    const trading::TradeDecision trade = engine.begin_slot(quote);
    engine.finish_slot(quote, trade, column);
  }
  RunResult result = recorder.take(0);
  result.algorithm = std::move(algorithm_name);
  result.settlement_price = env_.settlement_price();
  return result;
}

}  // namespace cea::sim
