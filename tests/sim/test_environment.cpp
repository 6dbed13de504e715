#include "sim/environment.h"

#include <gtest/gtest.h>

#include <latch>
#include <set>
#include <thread>
#include <vector>

#include "sim/experiment.h"

namespace cea::sim {
namespace {

SimConfig small_config() {
  SimConfig config;
  config.num_edges = 4;
  config.horizon = 40;
  config.workload.num_slots = 40;
  config.workload.mean_samples = 200.0;
  config.seed = 7;
  return config;
}

TEST(Environment, ParametricBuildSizes) {
  const auto env = Environment::make_parametric(small_config());
  EXPECT_EQ(env.num_edges(), 4u);
  EXPECT_EQ(env.num_models(), 6u);
  EXPECT_EQ(env.horizon(), 40u);
  EXPECT_EQ(env.workload().size(), 4u);
  EXPECT_EQ(env.workload()[0].size(), 40u);
  EXPECT_EQ(env.prices().size(), 40u);
}

TEST(Environment, ModelsHaveDistinctLosses) {
  const auto env = Environment::make_parametric(small_config());
  std::set<double> means;
  for (const auto& m : env.models()) means.insert(m.profile.mean_loss());
  EXPECT_EQ(means.size(), env.num_models());
}

TEST(Environment, EnergyWithinConfiguredBand) {
  const auto config = small_config();
  const auto env = Environment::make_parametric(config);
  for (const auto& m : env.models()) {
    EXPECT_GE(m.energy_per_sample, config.energy_min);
    EXPECT_LE(m.energy_per_sample, config.energy_max);
  }
}

TEST(Environment, ComputationCostsWithinBand) {
  const auto config = small_config();
  const auto env = Environment::make_parametric(config);
  for (std::size_t i = 0; i < env.num_edges(); ++i) {
    for (std::size_t n = 0; n < env.num_models(); ++n) {
      EXPECT_GE(env.computation_cost(i, n), config.comp_cost_min);
      EXPECT_LE(env.computation_cost(i, n), config.comp_cost_max);
    }
  }
}

TEST(Environment, SwitchingWeightScalesU) {
  auto config = small_config();
  const auto env1 = Environment::make_parametric(config);
  config.switching_weight = 3.0;
  const auto env3 = Environment::make_parametric(config);
  for (std::size_t i = 0; i < env1.num_edges(); ++i)
    EXPECT_NEAR(env3.switching_cost(i), 3.0 * env1.switching_cost(i), 1e-12);
}

TEST(Environment, GreedyEnergyChoiceIsNotBestModel) {
  // The parametric family is constructed so that the lowest-energy model is
  // not also the lowest-loss model (otherwise Greedy would be optimal and
  // the paper's Fig. 8 contrast would vanish).
  const auto env = Environment::make_parametric(small_config());
  std::size_t lowest_energy = 0;
  for (std::size_t n = 1; n < env.num_models(); ++n)
    if (env.models()[n].energy_per_sample <
        env.models()[lowest_energy].energy_per_sample)
      lowest_energy = n;
  std::size_t distinct = 0;
  for (std::size_t i = 0; i < env.num_edges(); ++i)
    if (env.best_model(i) != lowest_energy) ++distinct;
  EXPECT_GT(distinct, 0u);
}

TEST(Environment, BestModelMinimizesLossPlusCost) {
  const auto env = Environment::make_parametric(small_config());
  for (std::size_t i = 0; i < env.num_edges(); ++i) {
    const std::size_t star = env.best_model(i);
    const double best = env.models()[star].profile.mean_loss() +
                        env.computation_cost(i, star);
    for (std::size_t n = 0; n < env.num_models(); ++n) {
      EXPECT_LE(best, env.models()[n].profile.mean_loss() +
                          env.computation_cost(i, n) + 1e-12);
    }
  }
}

TEST(Environment, SuboptimalityGapsNonNegative) {
  const auto env = Environment::make_parametric(small_config());
  for (std::size_t i = 0; i < env.num_edges(); ++i) {
    EXPECT_DOUBLE_EQ(env.suboptimality_gap(i, env.best_model(i)), 0.0);
    for (std::size_t n = 0; n < env.num_models(); ++n)
      EXPECT_GE(env.suboptimality_gap(i, n), 0.0);
  }
}

TEST(Environment, DeterministicForSeed) {
  const auto a = Environment::make_parametric(small_config());
  const auto b = Environment::make_parametric(small_config());
  EXPECT_EQ(a.workload(), b.workload());
  EXPECT_EQ(a.prices().buy, b.prices().buy);
  for (std::size_t i = 0; i < a.num_edges(); ++i)
    EXPECT_DOUBLE_EQ(a.switching_cost(i), b.switching_cost(i));
}

TEST(Environment, ConcurrentFirstReadsShareOneTrace) {
  // The trace is generated on the first workload() call: threads that
  // make that call at once must all get the one generated object, holding
  // the bits a single reader of another environment sees.
  const auto env = Environment::make_parametric(small_config());
  const data::WorkloadTraces expected =
      Environment::make_parametric(small_config()).workload();
  constexpr std::size_t kThreads = 8;
  std::vector<const data::WorkloadTraces*> seen(kThreads, nullptr);
  std::latch start(kThreads);
  std::vector<std::thread> readers;
  for (std::size_t k = 0; k < kThreads; ++k) {
    readers.emplace_back([&, k] {
      start.arrive_and_wait();
      seen[k] = &env.workload();
    });
  }
  for (auto& reader : readers) reader.join();
  for (const auto* trace : seen) EXPECT_EQ(trace, seen.front());
  EXPECT_EQ(&env.workload(), seen.front());
  EXPECT_EQ(*seen.front(), expected);

  // The parallel batch runner reads the trace of one environment from
  // several threads too, and must match the serial runner on another.
  const auto serial = run_combo_averaged(
      Environment::make_parametric(small_config()), ours_combo(), 4, 100);
  const auto parallel = run_combo_averaged_parallel(
      Environment::make_parametric(small_config()), ours_combo(), 4, 100, 4);
  EXPECT_EQ(serial.inference_cost, parallel.inference_cost);
  EXPECT_EQ(serial.emissions, parallel.emissions);
  EXPECT_EQ(serial.buys, parallel.buys);
  EXPECT_EQ(serial.workload, parallel.workload);
  EXPECT_EQ(serial.selection_counts, parallel.selection_counts);
}

TEST(Environment, FromProfilesUsesGivenTables) {
  Rng rng(3);
  std::vector<data::LossProfile> profiles;
  profiles.push_back(
      data::make_parametric_profile("a", 0.3, 0.05, 0.9, 1.0, 512, rng));
  profiles.push_back(
      data::make_parametric_profile("b", 0.9, 0.05, 0.4, 4.0, 512, rng));
  auto config = small_config();
  const auto env = Environment::from_profiles(config, std::move(profiles));
  EXPECT_EQ(env.num_models(), 2u);
  EXPECT_EQ(env.models()[0].name, "a");
  // The larger model gets the higher per-sample energy.
  EXPECT_GT(env.models()[1].energy_per_sample,
            env.models()[0].energy_per_sample);
}

TEST(Environment, TransferEnergyProportionalToSize) {
  const auto env = Environment::make_parametric(small_config());
  for (std::size_t i = 0; i < env.num_edges(); ++i) {
    for (std::size_t n = 1; n < env.num_models(); ++n) {
      if (env.models()[n].size_mb > env.models()[n - 1].size_mb) {
        EXPECT_GT(env.transfer_energy(i, n), env.transfer_energy(i, n - 1));
      }
    }
  }
}

}  // namespace
}  // namespace cea::sim
