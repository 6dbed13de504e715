#include "sim/simulator.h"

#include <cassert>
#include <memory>

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
  assert(fleet != nullptr && fleet->num_edges() == env_.num_edges());
  return run_impl(std::move(fleet), trader_factory, run_seed,
                  std::move(algorithm_name), /*fixed_choices=*/false,
                  nullptr);
}

RunResult Simulator::run_fixed(const std::vector<std::size_t>& model_per_edge,
                               const trading::TraderFactory& trader_factory,
                               std::uint64_t run_seed,
                               std::string algorithm_name) const {
  assert(model_per_edge.size() == env_.num_edges());
  return run_impl(nullptr, trader_factory, run_seed,
                  std::move(algorithm_name),
                  /*fixed_choices=*/true, &model_per_edge);
}

RunResult Simulator::run_impl(
    std::unique_ptr<bandit::FleetPolicy> fleet,
    const trading::TraderFactory& trader_factory, std::uint64_t run_seed,
    std::string algorithm_name, bool fixed_choices,
    const std::vector<std::size_t>* fixed_models) const {
  // The whole slot loop lives in SlotEngine (sim/slot_engine.h) so the
  // serving daemon can drive the identical arithmetic slot by slot; the
  // golden traces pin the extraction bit-for-bit. Here a run is just
  // "step the engine across the horizon on the environment's own traces".
  auto trader = trader_factory(trader_context(run_seed));
  SlotEngine engine(env_, options_, std::move(fleet), std::move(trader),
                    run_seed, std::move(algorithm_name),
                    fixed_choices ? fixed_models : nullptr);
  const std::size_t horizon = env_.horizon();
  for (std::size_t t = 0; t < horizon; ++t) engine.step();
  return engine.take_result();
}

}  // namespace cea::sim
