#include <gtest/gtest.h>

#include "sim/experiment.h"
#include "sim/simulator.h"
#include "trading/random_trader.h"
#include "util/thread_pool.h"

namespace cea::sim {
namespace {

void expect_bit_identical(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.inference_cost, b.inference_cost);
  EXPECT_EQ(a.switching_cost, b.switching_cost);
  EXPECT_EQ(a.trading_cost, b.trading_cost);
  EXPECT_EQ(a.emissions, b.emissions);
  EXPECT_EQ(a.buys, b.buys);
  EXPECT_EQ(a.sells, b.sells);
  EXPECT_EQ(a.accuracy, b.accuracy);
  EXPECT_EQ(a.workload, b.workload);
  EXPECT_EQ(a.selection_counts, b.selection_counts);
  EXPECT_EQ(a.total_switches, b.total_switches);
}

SimConfig small_config() {
  SimConfig config;
  config.num_edges = 4;
  config.horizon = 60;
  config.workload.num_slots = 60;
  config.workload.mean_samples = 300.0;
  config.loss_draw_cap = 64;
  config.seed = 9;
  return config;
}

TEST(ParallelRunner, MatchesSerialBitForBit) {
  const auto env = Environment::make_parametric(small_config());
  const auto combo = ours_combo();
  const auto serial = run_combo_averaged(env, combo, 6, 100);
  const auto parallel = run_combo_averaged_parallel(env, combo, 6, 100, 3);
  EXPECT_EQ(serial.inference_cost, parallel.inference_cost);
  EXPECT_EQ(serial.buys, parallel.buys);
  EXPECT_EQ(serial.accuracy, parallel.accuracy);
  EXPECT_EQ(serial.total_switches, parallel.total_switches);
  EXPECT_EQ(serial.selection_counts, parallel.selection_counts);
}

TEST(ParallelRunner, SingleThreadWorks) {
  const auto env = Environment::make_parametric(small_config());
  const auto combo = ours_combo();
  const auto serial = run_combo_averaged(env, combo, 3, 7);
  const auto parallel = run_combo_averaged_parallel(env, combo, 3, 7, 1);
  EXPECT_EQ(serial.inference_cost, parallel.inference_cost);
}

TEST(ParallelRunner, MoreThreadsThanRuns) {
  const auto env = Environment::make_parametric(small_config());
  const auto combo = ours_combo();
  const auto parallel = run_combo_averaged_parallel(env, combo, 2, 7, 16);
  EXPECT_EQ(parallel.horizon(), 60u);
}

TEST(ParallelRunner, DefaultThreadCount) {
  const auto env = Environment::make_parametric(small_config());
  const auto combo = ours_combo();
  const auto serial = run_combo_averaged(env, combo, 4, 21);
  const auto parallel = run_combo_averaged_parallel(env, combo, 4, 21);
  EXPECT_EQ(serial.trading_cost, parallel.trading_cost);
}

// --- Per-edge parallel engine (SimOptions::pool) ------------------------
//
// These tests are the determinism contract of the batched engine: because
// loss draws are keyed by (run_seed, edge, t) and per-edge partials are
// reduced serially in edge order, Simulator::run with ANY thread count is
// bit-identical to the serial engine. They also put real concurrent load
// on the thread pool, which is what the -DCEA_SANITIZE=thread build
// race-checks (see EXPERIMENTS.md).

TEST(ParallelEngine, PoolRunBitIdenticalToSerialAnyThreadCount) {
  const auto env = Environment::make_parametric(small_config());
  const auto combo = ours_combo();
  const Simulator serial(env);
  const auto reference = serial.run(combo.policy, combo.trader, 5, "Ours");
  for (std::size_t threads : {std::size_t{1}, std::size_t{2},
                              std::size_t{7}}) {
    util::ThreadPool pool(threads);
    const Simulator parallel(env, {.pool = &pool});
    const auto result = parallel.run(combo.policy, combo.trader, 5, "Ours");
    expect_bit_identical(reference, result);
  }
}

TEST(ParallelEngine, PoolRunFixedBitIdenticalToSerial) {
  const auto env = Environment::make_parametric(small_config());
  const std::vector<std::size_t> choice(env.num_edges(), 1);
  const Simulator serial(env);
  util::ThreadPool pool(3);
  const Simulator parallel(env, {.pool = &pool});
  auto trader = trading::RandomTrader::factory();
  const auto fixed = bandit::fixed_policy(choice);
  expect_bit_identical(serial.run(fixed, trader, 11, "fixed"),
                       parallel.run(fixed, trader, 11, "fixed"));
}

TEST(ParallelEngine, EveryBuiltInComboPoolsBitIdentically) {
  // SimOptions::pool promises serial == pooled for every built-in policy
  // and trader, not only Algorithm 1: the per-edge baselines run behind
  // adapt_per_edge, and the pooled engine solves their Tsallis-INF steps
  // inside the shards instead of in the serial presolve. 4 edges on 4
  // participants is one edge per shard.
  const auto env = Environment::make_parametric(small_config());
  const Simulator serial(env);
  util::ThreadPool pool(3);
  const Simulator parallel(env, {.pool = &pool});
  const auto combos = all_combos();
  ASSERT_EQ(combos.size(), 13u);
  for (const AlgorithmCombo& combo : combos) {
    SCOPED_TRACE(combo.name);
    expect_bit_identical(
        serial.run(combo.policy, combo.trader, 13, combo.name),
        parallel.run(combo.policy, combo.trader, 13, combo.name));
  }
}

TEST(ParallelEngine, RepeatedPoolRunsAreDeterministic) {
  const auto env = Environment::make_parametric(small_config());
  const auto combo = ours_combo();
  util::ThreadPool pool(4);
  const Simulator parallel(env, {.pool = &pool});
  const auto a = parallel.run(combo.policy, combo.trader, 9, "Ours");
  const auto b = parallel.run(combo.policy, combo.trader, 9, "Ours");
  expect_bit_identical(a, b);
}

TEST(ParallelEngine, NestedRunLevelAndEdgeLevelParallelism) {
  // run_combo_averaged_parallel over the global pool, where each run's
  // simulator also uses the pool, must neither deadlock nor change
  // results (the nested parallel_for runs inline).
  const auto env = Environment::make_parametric(small_config());
  const auto combo = ours_combo();
  const auto reference = run_combo_averaged(env, combo, 4, 100);
  std::vector<RunResult> runs(4);
  util::ThreadPool& pool = util::ThreadPool::global();
  pool.parallel_for(4, [&](std::size_t r) {
    const Simulator simulator(env, {.pool = &pool});
    runs[r] = simulator.run(combo.policy, combo.trader, 100 + 1 + r,
                            combo.name);
  });
  expect_bit_identical(reference, average_runs(runs));
}

}  // namespace
}  // namespace cea::sim
