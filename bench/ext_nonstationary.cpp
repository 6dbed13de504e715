// Extension: concept drift. The paper assumes a time-invariant data
// distribution; Tsallis-INF's selling point is that it is simultaneously
// optimal in stochastic AND adversarial regimes. This bench injects an
// abrupt quality flip (SimConfig::loss_shift_slot) and measures how each
// model-selection policy recovers — a stochastic-only learner (UCB2) has
// concentrated confidence bounds that resist revision.
#include <cstdio>

#include "bandit/tsallis_inf.h"
#include "bandit/ucb2.h"
#include "bench_common.h"
#include "core/blocked_tsallis_fleet.h"
#include "core/carbon_trader.h"
#include "util/table.h"

int main(int argc, char** argv) {
  auto telemetry = cea::bench::TelemetrySession::from_args(argc, argv);

  using namespace cea;
  const std::size_t runs = bench::num_runs();
  const std::size_t horizon = 480, shift = 160;

  sim::SimConfig config;
  config.num_edges = 10;
  config.horizon = horizon;
  config.workload.num_slots = horizon;
  config.carbon_cap = 1500.0;
  config.loss_shift_slot = shift;
  config.seed = 42;
  const auto env = sim::Environment::make_parametric(config);

  std::printf("Extension — concept drift at t=%zu of %zu (%zu-run avg)\n\n",
              shift, horizon, runs);

  const std::vector<sim::AlgorithmCombo> contenders = {
      sim::ours_combo(),
      // Discounted Algorithm 1: old evidence fades, tracking the drift.
      {"Ours-disc0.9",
       core::BlockedTsallisFleetPolicy::discounted_factory(0.9),
       core::OnlineCarbonTrader::factory()},
      {"UCB2-PD", bandit::adapt_per_edge(bandit::Ucb2Policy::factory()),
       core::OnlineCarbonTrader::factory()},
      {"TINF-PD", bandit::adapt_per_edge(bandit::TsallisInfPolicy::factory()),
       core::OnlineCarbonTrader::factory()},
  };

  Table table({"algorithm", "acc pre-shift", "acc 1st quarter post",
               "acc final quarter", "recovery"});
  auto csv = bench::make_csv("ext_nonstationary");
  csv.write_row({"algorithm", "pre", "post_early", "post_late",
                 "recovery"});
  for (const auto& combo : contenders) {
    const auto result = sim::run_combo_averaged_parallel(env, combo, runs, 7);
    auto window_mean = [&](std::size_t lo, std::size_t hi) {
      double total = 0.0;
      for (std::size_t t = lo; t < hi; ++t) total += result.accuracy[t];
      return total / static_cast<double>(hi - lo);
    };
    const double pre = window_mean(shift / 2, shift);
    const double post_early = window_mean(shift, shift + 80);
    const double post_late = window_mean(horizon - 80, horizon);
    table.add_row(combo.name,
                  {pre, post_early, post_late, post_late - post_early}, 3);
    csv.write_row(combo.name,
                  {pre, post_early, post_late, post_late - post_early});
  }
  table.print();
  std::printf(
      "\nExpected: the undiscounted policies lose ~0.15 accuracy at the "
      "shift and recover most of it by the final quarter; Ours matches the "
      "unblocked learners' recovery while paying only block-boundary "
      "switches. The discounted variant barely feels the shift at all but "
      "pays a permanent exploration tax in the stationary phases — the "
      "classic tracking/regret tradeoff.\n");
  return 0;
}
