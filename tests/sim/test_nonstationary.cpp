// Tests of the concept-drift injection (SimConfig::loss_shift_slot).
#include <gtest/gtest.h>

#include "sim/experiment.h"
#include "sim/simulator.h"
#include "trading/random_trader.h"

namespace cea::sim {
namespace {

SimConfig shifting_config(std::size_t shift_slot) {
  SimConfig config;
  config.num_edges = 2;
  config.horizon = 80;
  config.workload.num_slots = 80;
  config.workload.mean_samples = 300.0;
  config.loss_draw_cap = 64;
  config.loss_shift_slot = shift_slot;
  config.seed = 5;
  return config;
}

TEST(Nonstationary, ZeroShiftSlotDisablesDrift) {
  const auto env_a = Environment::make_parametric(shifting_config(0));
  SimConfig no_field = shifting_config(0);
  const auto env_b = Environment::make_parametric(no_field);
  Simulator sim_a(env_a), sim_b(env_b);
  const std::vector<std::size_t> fixed = {0, 0};
  const auto a = sim_a.run(bandit::fixed_policy(fixed),
                           trading::RandomTrader::factory(), 3, "a");
  const auto b = sim_b.run(bandit::fixed_policy(fixed),
                           trading::RandomTrader::factory(), 3, "b");
  EXPECT_EQ(a.inference_cost, b.inference_cost);
}

TEST(Nonstationary, InferenceCostFlipsAtShift) {
  // Hosting the best pre-shift model becomes hosting the worst post-shift.
  const std::size_t shift = 40;
  const auto env = Environment::make_parametric(shifting_config(shift));
  Simulator simulator(env);
  const std::vector<std::size_t> best_fixed = {env.best_model(0),
                                               env.best_model(1)};
  const auto result =
      simulator.run(bandit::fixed_policy(best_fixed),
                    trading::RandomTrader::factory(), 3, "fixed-best");
  // Post-shift per-slot inference cost strictly exceeds pre-shift.
  EXPECT_GT(result.inference_cost[shift + 1],
            result.inference_cost[shift - 1]);
}

TEST(Nonstationary, ShiftTargetMirrorsLossRanks) {
  const auto env = Environment::make_parametric(shifting_config(0));
  // Best maps to worst and vice versa; the mapping is an involution.
  std::size_t best = 0, worst = 0;
  for (std::size_t n = 1; n < env.num_models(); ++n) {
    if (env.models()[n].profile.mean_loss() <
        env.models()[best].profile.mean_loss())
      best = n;
    if (env.models()[n].profile.mean_loss() >
        env.models()[worst].profile.mean_loss())
      worst = n;
  }
  EXPECT_EQ(env.shift_target(best), worst);
  EXPECT_EQ(env.shift_target(worst), best);
  for (std::size_t n = 0; n < env.num_models(); ++n)
    EXPECT_EQ(env.shift_target(env.shift_target(n)), n);
}

TEST(Nonstationary, AccuracyDropsAtShiftForFixedChoice) {
  // Host the lowest-loss model: post-shift it inherits the worst model's
  // loss distribution, so accuracy collapses.
  const std::size_t shift = 40;
  const auto env = Environment::make_parametric(shifting_config(shift));
  Simulator simulator(env);
  std::size_t best = 0;
  for (std::size_t n = 1; n < env.num_models(); ++n) {
    if (env.models()[n].profile.mean_loss() <
        env.models()[best].profile.mean_loss())
      best = n;
  }
  const std::vector<std::size_t> fixed = {best, best};
  const auto result =
      simulator.run(bandit::fixed_policy(fixed),
                    trading::RandomTrader::factory(), 3, "fixed-best-loss");
  double pre = 0.0, post = 0.0;
  for (std::size_t t = 0; t < shift; ++t) pre += result.accuracy[t];
  for (std::size_t t = shift; t < 80; ++t) post += result.accuracy[t];
  EXPECT_GT(pre / 40.0, post / 40.0 + 0.1);
}

TEST(Nonstationary, OursRecoversAfterShift) {
  // The blocked bandit keeps exploring, so accuracy in the final quarter
  // must improve over the quarter right after the shift (recovery trend);
  // averaged over several runs to damp sampling noise.
  SimConfig config = shifting_config(100);
  config.horizon = 400;
  config.workload.num_slots = 400;
  const auto env = Environment::make_parametric(config);
  const auto ours = run_combo_averaged(env, ours_combo(), 5, 7);
  double just_after = 0.0, late = 0.0;
  for (std::size_t t = 100; t < 200; ++t) just_after += ours.accuracy[t];
  for (std::size_t t = 300; t < 400; ++t) late += ours.accuracy[t];
  EXPECT_GT(late / 100.0, just_after / 100.0);
}

}  // namespace
}  // namespace cea::sim
