// Fig. 8: number of selections per model vs each model's expected loss on
// one (randomly chosen) edge.
// Paper's finding: Ours selects a model more often the lower its expected
// loss; Offline sits on the single loss-optimal model; Greedy sits on the
// lowest-energy model regardless of loss.
#include <cstdio>

#include "bandit/greedy_policy.h"
#include "bench_common.h"
#include "core/carbon_trader.h"
#include "trading/random_trader.h"
#include "util/stats.h"
#include "util/table.h"

int main(int argc, char** argv) {
  auto telemetry = cea::bench::TelemetrySession::from_args(argc, argv);

  using namespace cea;
  const std::size_t runs = bench::num_runs();

  sim::SimConfig config;
  config.num_edges = 10;
  config.horizon = 480;  // longer horizon so convergence is visible
  config.workload.num_slots = 480;
  config.carbon_cap = 1500.0;
  config.seed = 42;
  const auto env = sim::Environment::make_parametric(config);
  const std::size_t edge = 3;  // the "one random edge" of the figure

  std::printf("Fig. 8 — selections per model vs expected loss (edge %zu, "
              "T=%zu, %zu-run avg)\n\n",
              edge, config.horizon, runs);

  const auto ours = bench::averaged(env, sim::ours_combo(), runs, 7);
  const sim::AlgorithmCombo greedy{
      "Greedy-Ran",
      bandit::adapt_per_edge(bandit::GreedyEnergyPolicy::factory()),
      trading::RandomTrader::factory()};
  const auto greedy_run = bench::averaged(env, greedy, runs, 7);
  const auto offline = sim::run_offline_averaged(env, runs, 7);

  Table table({"model", "E[l]+v (edge)", "energy/sample", "Ours", "Greedy",
               "Offline"});
  auto csv = bench::make_csv("fig08");
  csv.write_row({"model", "expected_loss", "energy", "ours", "greedy",
                 "offline"});
  std::vector<double> losses, ours_counts;
  // average_runs already averages selection counts per run, so the counts
  // are on a single run's scale whatever CEA_BENCH_RUNS is.
  for (std::size_t n = 0; n < env.num_models(); ++n) {
    const double expected = env.models()[n].profile.mean_loss() +
                            env.computation_cost(edge, n);
    const double ours_n =
        static_cast<double>(ours.selection_counts[edge][n]);
    const double greedy_n =
        static_cast<double>(greedy_run.selection_counts[edge][n]);
    const double offline_n =
        static_cast<double>(offline.selection_counts[edge][n]);
    table.add_row(env.models()[n].name,
                  {expected, env.models()[n].energy_per_sample * 1e8, ours_n,
                   greedy_n, offline_n},
                  2);
    csv.write_row(env.models()[n].name, {expected, ours_n, greedy_n,
                                         offline_n});
    losses.push_back(expected);
    ours_counts.push_back(ours_n);
  }
  table.print();
  std::printf("\nCorrelation(expected loss, Ours selections) = %.2f "
              "(expected strongly negative)\n",
              pearson(losses, ours_counts));
  return 0;
}
