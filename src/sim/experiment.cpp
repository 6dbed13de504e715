#include "sim/experiment.h"

#include <cassert>
#include <memory>

#include "bandit/greedy_policy.h"
#include "bandit/random_policy.h"
#include "bandit/tsallis_inf.h"
#include "bandit/ucb2.h"
#include "core/blocked_tsallis_fleet.h"
#include "core/carbon_trader.h"
#include "core/regret.h"
#include "sim/simulator.h"
#include "trading/lyapunov_trader.h"
#include "trading/offline_lp_trader.h"
#include "trading/random_trader.h"
#include "trading/threshold_trader.h"
#include "util/thread_pool.h"

namespace cea::sim {

AlgorithmCombo ours_combo() {
  return {"Ours", core::BlockedTsallisFleetPolicy::factory(),
          core::OnlineCarbonTrader::factory()};
}

std::vector<AlgorithmCombo> baseline_combos() {
  struct Named {
    std::string name;
    bandit::PolicyFactory factory;
  };
  const std::vector<Named> selectors = {
      {"Ran", bandit::RandomPolicy::factory()},
      {"Greedy", bandit::GreedyEnergyPolicy::factory()},
      {"TINF", bandit::TsallisInfPolicy::factory()},
      {"UCB", bandit::Ucb2Policy::factory()},
  };
  struct NamedTrader {
    std::string name;
    trading::TraderFactory factory;
  };
  const std::vector<NamedTrader> traders = {
      {"Ran", trading::RandomTrader::factory()},
      {"TH", trading::ThresholdTrader::factory()},
      {"LY", trading::LyapunovTrader::factory()},
  };
  std::vector<AlgorithmCombo> combos;
  combos.reserve(selectors.size() * traders.size());
  for (const auto& s : selectors) {
    for (const auto& tr : traders) {
      combos.push_back({s.name + "-" + tr.name,
                        bandit::adapt_per_edge(s.factory), tr.factory});
    }
  }
  return combos;
}

std::vector<AlgorithmCombo> all_combos() {
  std::vector<AlgorithmCombo> combos;
  combos.push_back(ours_combo());
  for (auto& combo : baseline_combos()) combos.push_back(std::move(combo));
  return combos;
}

namespace {

RunResult run_combo_with(const Environment& env, const AlgorithmCombo& combo,
                         std::uint64_t run_seed, const SimOptions& options) {
  return Simulator(env, options)
      .run(combo.policy, combo.trader, run_seed, combo.name);
}

}  // namespace

RunResult run_combo(const Environment& env, const AlgorithmCombo& combo,
                    std::uint64_t run_seed) {
  return run_combo_with(env, combo, run_seed, SimOptions{});
}

RunResult run_combo_pooled(const Environment& env, const AlgorithmCombo& combo,
                           std::uint64_t run_seed, util::ThreadPool* pool,
                           std::size_t edge_shard_grain) {
  SimOptions options;
  options.pool = pool;
  options.edge_shard_grain = edge_shard_grain;
  return run_combo_with(env, combo, run_seed, options);
}

RunResult run_combo_averaged_pooled(const Environment& env,
                                    const AlgorithmCombo& combo,
                                    std::size_t num_runs,
                                    std::uint64_t base_seed,
                                    util::ThreadPool* pool,
                                    std::size_t edge_shard_grain) {
  assert(num_runs > 0);
  std::vector<RunResult> runs;
  runs.reserve(num_runs);
  for (std::size_t r = 0; r < num_runs; ++r) {
    runs.push_back(run_combo_pooled(env, combo, base_seed + 1 + r, pool,
                                    edge_shard_grain));
  }
  return average_runs(runs);
}

RunResult run_combo_averaged(const Environment& env,
                             const AlgorithmCombo& combo,
                             std::size_t num_runs, std::uint64_t base_seed) {
  assert(num_runs > 0);
  std::vector<RunResult> runs;
  runs.reserve(num_runs);
  for (std::size_t r = 0; r < num_runs; ++r) {
    runs.push_back(run_combo(env, combo, base_seed + 1 + r));
  }
  return average_runs(runs);
}

RunResult run_combo_averaged_parallel(const Environment& env,
                                      const AlgorithmCombo& combo,
                                      std::size_t num_runs,
                                      std::uint64_t base_seed,
                                      std::size_t threads) {
  assert(num_runs > 0);
  std::vector<RunResult> runs(num_runs);
  util::ThreadPool::global().parallel_for(
      num_runs,
      [&](std::size_t r) { runs[r] = run_combo(env, combo, base_seed + 1 + r); },
      threads);
  return average_runs(runs);
}

namespace {

trading::TraderFactory null_trader_factory() {
  return [](const trading::TraderContext&) {
    struct NullTrader final : trading::TradingPolicy {
      trading::TradeDecision decide(std::size_t,
                                    const trading::TradeObservation&) override {
        return {};
      }
      void feedback(std::size_t, double, const trading::TradeObservation&,
                    const trading::TradeDecision&) override {}
      std::string name() const override { return "Null"; }
    };
    return std::make_unique<NullTrader>();
  };
}

/// Best model at hindsight per edge, as a fixed policy.
bandit::FleetPolicyFactory best_fixed_policy(const Environment& env) {
  std::vector<std::size_t> best(env.num_edges());
  for (std::size_t i = 0; i < env.num_edges(); ++i) best[i] = env.best_model(i);
  return bandit::fixed_policy(std::move(best));
}

}  // namespace

RunResult run_offline(const Environment& env, std::uint64_t run_seed) {
  Simulator simulator(env);
  const bandit::FleetPolicyFactory best = best_fixed_policy(env);

  // Pass 1: realized emissions under those choices (prices ignored).
  const RunResult dry =
      simulator.run(best, null_trader_factory(), run_seed, "Offline-dry");

  // Pass 2: solve the trading LP on the realized emissions, then replay.
  const trading::TraderContext context = simulator.trader_context(run_seed);
  trading::OfflineTradingPlan plan = trading::solve_offline_trading(
      context, env.prices().buy, env.prices().sell, dry.emissions);
  auto lp_trader = [&plan](const trading::TraderContext&) {
    return std::make_unique<trading::OfflineLpTrader>(plan);
  };
  return simulator.run(best, lp_trader, run_seed, "Offline");
}

double comparator_cost(const Environment& env, std::uint64_t run_seed) {
  Simulator simulator(env);
  const RunResult dry = simulator.run(best_fixed_policy(env),
                                      null_trader_factory(), run_seed,
                                      "comparator-dry");
  const double cap_share = env.config().carbon_cap /
                           static_cast<double>(env.horizon());
  double trading = 0.0;
  for (std::size_t t = 0; t < env.horizon(); ++t) {
    trading += core::one_shot_trading_optimum(
        dry.emissions[t], cap_share, env.prices().buy[t],
        env.prices().sell[t], env.config().max_trade_per_slot);
  }
  return dry.total_inference_cost() + dry.total_switching_cost() + trading;
}

double p0_regret(const Environment& env, const RunResult& run,
                 std::uint64_t run_seed) {
  // Settled cost so that under-covering cannot masquerade as low regret
  // (the comparator always covers its emissions in full).
  return run.settled_total_cost() - comparator_cost(env, run_seed);
}

RunResult run_offline_averaged(const Environment& env, std::size_t num_runs,
                               std::uint64_t base_seed) {
  assert(num_runs > 0);
  std::vector<RunResult> runs;
  runs.reserve(num_runs);
  for (std::size_t r = 0; r < num_runs; ++r) {
    runs.push_back(run_offline(env, base_seed + 1 + r));
  }
  return average_runs(runs);
}

}  // namespace cea::sim
