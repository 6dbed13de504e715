#include "core/blocked_tsallis_fleet.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "bandit/fleet_policy.h"
#include "blocked_tsallis_inf.h"
#include "sim/experiment.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace cea::core {
namespace {

bandit::FleetPolicyContext make_context(std::size_t edges,
                                        std::size_t models,
                                        std::uint64_t run_seed,
                                        std::size_t horizon = 200) {
  bandit::FleetPolicyContext context;
  context.num_edges = edges;
  context.num_models = models;
  context.horizon = horizon;
  context.run_seed = run_seed;
  context.energy_per_sample.resize(models);
  for (std::size_t n = 0; n < models; ++n)
    context.energy_per_sample[n] = 0.1 * static_cast<double>(n + 1);
  context.switching_cost.assign(edges, 1.5);
  return context;
}

/// Deterministic pseudo-loss for (edge, t, arm), the same for both sides.
double loss_for(std::size_t edge, std::size_t t, std::size_t arm) {
  const double u = static_cast<double>(
                       mix64(stream_seed(99, edge, t) + arm) >> 11) *
                   0x1.0p-53;
  return 0.1 * static_cast<double>(arm) + 0.5 * u;
}

/// Drives the SoA fleet and a PerEdgeFleetAdapter over per-edge
/// BlockedTsallisInfPolicy oracles in lockstep, asserting bit-equality of
/// every arm, probability table and cumulative-loss table. `use_presolve`
/// additionally checks the next_solve descriptions agree field for field
/// (both sides then solve internally, which the batch path reproduces).
void run_lockstep(double discount, bool use_presolve) {
  const std::size_t edges = 6, models = 4, horizon = 240;
  const std::uint64_t run_seed = 17;
  const auto context = make_context(edges, models, run_seed, horizon);

  auto fleet_factory = discount == 1.0
                           ? BlockedTsallisFleetPolicy::factory()
                           : BlockedTsallisFleetPolicy::discounted_factory(
                                 discount);
  auto per_edge_factory =
      discount == 1.0
          ? bandit::adapt_per_edge(BlockedTsallisInfPolicy::factory())
          : bandit::adapt_per_edge(
                BlockedTsallisInfPolicy::discounted_factory(discount));
  auto fleet = fleet_factory(context);
  auto reference = per_edge_factory(context);
  auto* soa = dynamic_cast<BlockedTsallisFleetPolicy*>(fleet.get());
  ASSERT_NE(soa, nullptr);
  auto* adapter = dynamic_cast<bandit::PerEdgeFleetAdapter*>(reference.get());
  ASSERT_NE(adapter, nullptr);
  EXPECT_TRUE(fleet->supports_batch_solve());
  EXPECT_TRUE(reference->supports_batch_solve());

  for (std::size_t t = 0; t < horizon; ++t) {
    if (use_presolve) {
      // The solve-due flag and the frozen solve inputs must agree per edge
      // at slot start (this is what lets the simulator batch across edges).
      for (std::size_t e = 0; e < edges; ++e) {
        bandit::TsallisSolveRequest fleet_req, ref_req;
        const bool fleet_due = fleet->next_solve(e, fleet_req);
        const bool ref_due = reference->next_solve(e, ref_req);
        ASSERT_EQ(fleet_due, ref_due) << "edge " << e << " slot " << t;
        if (fleet_due) {
          ASSERT_EQ(fleet_req.cumulative_losses.size(),
                    ref_req.cumulative_losses.size());
          for (std::size_t n = 0; n < models; ++n)
            EXPECT_EQ(fleet_req.cumulative_losses[n],
                      ref_req.cumulative_losses[n]);
          EXPECT_EQ(fleet_req.eta, ref_req.eta);
          EXPECT_EQ(fleet_req.scaled_lambda_warm, ref_req.scaled_lambda_warm);
        }
      }
    }
    for (std::size_t e = 0; e < edges; ++e) {
      const std::size_t fleet_arm = fleet->select(e, t);
      const std::size_t ref_arm = reference->select(e, t);
      ASSERT_EQ(fleet_arm, ref_arm) << "edge " << e << " slot " << t;
      const double loss = loss_for(e, t, fleet_arm);
      fleet->feedback(e, t, fleet_arm, loss);
      reference->feedback(e, t, ref_arm, loss);
    }
  }

  // End state: Chat tables and probabilities bitwise equal per edge.
  for (std::size_t e = 0; e < edges; ++e) {
    auto* ref_policy = dynamic_cast<BlockedTsallisInfPolicy*>(
        &adapter->edge_policy(e));
    ASSERT_NE(ref_policy, nullptr);
    EXPECT_EQ(soa->completed_blocks(e), ref_policy->completed_blocks());
    const auto soa_losses = soa->cumulative_losses(e);
    const auto& ref_losses = ref_policy->cumulative_loss_estimates();
    const auto soa_probs = soa->probabilities(e);
    const auto& ref_probs = ref_policy->current_probabilities();
    for (std::size_t n = 0; n < models; ++n) {
      EXPECT_EQ(soa_losses[n], ref_losses[n]) << "edge " << e << " arm " << n;
      EXPECT_EQ(soa_probs[n], ref_probs[n]) << "edge " << e << " arm " << n;
    }
  }
}

TEST(BlockedTsallisFleet, BitIdenticalToPerEdgePolicies) {
  run_lockstep(/*discount=*/1.0, /*use_presolve=*/false);
}

TEST(BlockedTsallisFleet, SolveRequestsMatchPerEdgePolicies) {
  run_lockstep(/*discount=*/1.0, /*use_presolve=*/true);
}

TEST(BlockedTsallisFleet, DiscountedVariantBitIdentical) {
  run_lockstep(/*discount=*/0.9, /*use_presolve=*/true);
}

TEST(BlockedTsallisFleet, SeedsMatchPolicyStreamSeed) {
  // Edge e of the fleet must consume the stream a per-edge policy seeded
  // with policy_stream_seed(run_seed, e) would; distinct edges therefore
  // make different first-block choices eventually.
  const auto context = make_context(32, 5, 3);
  auto fleet = BlockedTsallisFleetPolicy::factory()(context);
  bool any_differs = false;
  const std::size_t first = fleet->select(0, 0);
  for (std::size_t e = 1; e < 32; ++e)
    any_differs |= fleet->select(e, 0) != first;
  EXPECT_TRUE(any_differs);
}

TEST(BlockedTsallisFleet, SimulatorRunFleetMatchesRun) {
  // Through the full simulator, with its cross-edge presolve: the SoA
  // fleet that ours_combo() runs and the per-edge oracles behind the
  // adapter must produce bit-identical RunResults.
  sim::SimConfig config;
  config.num_edges = 8;
  config.horizon = 80;
  config.workload.num_slots = 80;
  config.loss_draw_cap = 32;
  config.seed = 11;
  const auto env = sim::Environment::make_parametric(config);
  const auto combo = sim::ours_combo();
  const sim::Simulator simulator(env);
  const auto per_edge =
      simulator.run(bandit::adapt_per_edge(BlockedTsallisInfPolicy::factory()),
                    combo.trader, 5, combo.name);
  const auto fleet = simulator.run(combo.policy, combo.trader, 5, combo.name);
  EXPECT_EQ(per_edge.inference_cost, fleet.inference_cost);
  EXPECT_EQ(per_edge.switching_cost, fleet.switching_cost);
  EXPECT_EQ(per_edge.trading_cost, fleet.trading_cost);
  EXPECT_EQ(per_edge.emissions, fleet.emissions);
  EXPECT_EQ(per_edge.accuracy, fleet.accuracy);
  EXPECT_EQ(per_edge.selection_counts, fleet.selection_counts);
  EXPECT_EQ(per_edge.total_switches, fleet.total_switches);
}

}  // namespace
}  // namespace cea::core
