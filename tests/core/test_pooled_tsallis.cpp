#include "core/pooled_tsallis.h"

#include <gtest/gtest.h>

#include "sim/experiment.h"
#include "util/rng.h"

namespace cea::core {
namespace {

bandit::PolicyContext make_context(std::size_t num_models, std::size_t edge,
                                   std::uint64_t seed = 1) {
  bandit::PolicyContext context;
  context.num_models = num_models;
  context.switching_cost = 1.0;
  context.seed = seed + edge;
  context.edge = edge;
  return context;
}

TEST(PooledTsallis, CoordinatorAccumulatesImportanceWeighted) {
  PooledTsallisCoordinator coordinator(3);
  coordinator.report_block(1, 2.0, 0.5);
  EXPECT_DOUBLE_EQ(coordinator.cumulative_losses()[1], 4.0);
  EXPECT_DOUBLE_EQ(coordinator.cumulative_losses()[0], 0.0);
  EXPECT_EQ(coordinator.blocks_completed(), 1u);
}

TEST(PooledTsallis, EdgesShareEvidence) {
  auto coordinator = std::make_shared<PooledTsallisCoordinator>(2);
  PooledTsallisPolicy edge_a(make_context(2, 0), coordinator);
  PooledTsallisPolicy edge_b(make_context(2, 1), coordinator);
  // Edge A plays and reports; edge B's probabilities must reflect it.
  Rng noise(3);
  for (std::size_t t = 0; t < 400; ++t) {
    const auto arm_a = edge_a.select(t);
    edge_a.feedback(t, arm_a, arm_a == 0 ? 0.1 : 1.0);
    const auto arm_b = edge_b.select(t);
    edge_b.feedback(t, arm_b, arm_b == 0 ? 0.1 : 1.0);
  }
  EXPECT_GT(coordinator->cumulative_losses()[1],
            coordinator->cumulative_losses()[0]);
  edge_b.select(400);
  EXPECT_GT(edge_b.current_probabilities()[0], 0.7);
}

TEST(PooledTsallis, FactoryResetsPerRunAtEdgeZero) {
  auto factory = pooled_tsallis_factory();
  // Run 1: edges 0 and 1 share; feed heavy loss into arm 0.
  auto run1_edge0 = factory(make_context(2, 0, 10));
  auto run1_edge1 = factory(make_context(2, 1, 10));
  for (std::size_t t = 0; t < 100; ++t) {
    const auto arm = run1_edge0->select(t);
    run1_edge0->feedback(t, arm, arm == 0 ? 5.0 : 0.1);
  }
  // Run 2 starts at edge 0: the coordinator must be fresh, so the first
  // block samples uniformly.
  auto run2_edge0 = factory(make_context(2, 0, 20));
  auto* typed = dynamic_cast<PooledTsallisPolicy*>(run2_edge0.get());
  ASSERT_NE(typed, nullptr);
  typed->select(0);
  EXPECT_NEAR(typed->current_probabilities()[0], 0.5, 1e-9);
  (void)run1_edge1;
}

TEST(PooledTsallis, ConvergesFasterThanIndependentLearning) {
  // On a short horizon with many edges, pooling reaches the best arm far
  // more reliably than independent per-edge learning.
  sim::SimConfig config;
  config.num_edges = 10;
  config.horizon = 60;
  config.workload.num_slots = 60;
  config.workload.mean_samples = 400.0;
  config.carbon_cap = 120.0;
  config.loss_draw_cap = 64;
  config.seed = 31;
  const auto env = sim::Environment::make_parametric(config);

  const sim::AlgorithmCombo pooled{
      "Pooled", bandit::adapt_per_edge(pooled_tsallis_factory()),
      sim::ours_combo().trader};
  // Serial averaging only (see pooled_tsallis_factory docs).
  const auto pooled_result = sim::run_combo_averaged(env, pooled, 5, 7);
  const auto independent =
      sim::run_combo_averaged(env, sim::ours_combo(), 5, 7);
  EXPECT_LT(pooled_result.total_inference_cost(),
            independent.total_inference_cost());
  EXPECT_GT(pooled_result.mean_accuracy(), independent.mean_accuracy());
}

}  // namespace
}  // namespace cea::core
