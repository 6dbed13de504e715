// Fig. 14: execution time per time slot of Algorithm 1 (all edges) and
// Algorithm 2 as the number of edges grows (10..50).
// Paper's finding: both finish far within a 15-minute slot; Algorithm 2 is
// orders of magnitude cheaper than Algorithm 1.
#include <benchmark/benchmark.h>

#include <vector>

#include "bench_common.h"
#include "core/blocked_tsallis_fleet.h"
#include "core/carbon_trader.h"
#include "opt/simplex.h"
#include "opt/tsallis_step.h"
#include "trading/offline_lp_trader.h"
#include "util/rng.h"

namespace {

using namespace cea;

/// One full Algorithm-1 slot across I edges: select + feedback per edge on
/// the SoA fleet the simulator and the daemon run.
void BM_Algorithm1_Slot(benchmark::State& state) {
  const auto num_edges = static_cast<std::size_t>(state.range(0));
  bandit::FleetPolicyContext context;
  context.num_edges = num_edges;
  context.num_models = 6;
  context.run_seed = 100;
  context.switching_cost.assign(num_edges, 1.5);
  core::BlockedTsallisFleetPolicy fleet(context);
  Rng noise(1);
  std::size_t t = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < num_edges; ++i) {
      const std::size_t arm = fleet.select(i, t);
      fleet.feedback(i, t, arm, 0.5 + noise.uniform(-0.1, 0.1));
    }
    benchmark::DoNotOptimize(t);
    ++t;
  }
  state.SetLabel(std::to_string(num_edges) + " edges");
}
BENCHMARK(BM_Algorithm1_Slot)->Arg(10)->Arg(20)->Arg(30)->Arg(40)->Arg(50);

/// One Algorithm-2 slot: decide + feedback.
void BM_Algorithm2_Slot(benchmark::State& state) {
  trading::TraderContext context;
  context.horizon = 160;
  context.carbon_cap = 500.0;
  context.max_trade_per_slot = 20.0;
  core::OnlineCarbonTrader trader(context, {});
  const trading::TradeObservation obs{8.0, 7.2};
  std::size_t t = 0;
  for (auto _ : state) {
    const auto decision = trader.decide(t, obs);
    trader.feedback(t, 4.0, obs, decision);
    benchmark::DoNotOptimize(decision);
    ++t;
  }
}
BENCHMARK(BM_Algorithm2_Slot);

/// The OMD inner solve of Algorithm 1 (line 3) as N grows.
void BM_TsallisStep(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  std::vector<double> losses(n);
  for (auto& l : losses) l = rng.uniform(0.0, 50.0);
  for (auto _ : state) {
    auto p = tsallis_probabilities(losses, 0.3);
    benchmark::DoNotOptimize(p);
  }
}
BENCHMARK(BM_TsallisStep)->Arg(6)->Arg(16)->Arg(64);

/// The Offline trading LP (Gurobi substitute) over a full horizon.
void BM_OfflineTradingLp(benchmark::State& state) {
  const auto horizon = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  std::vector<double> buy(horizon), sell(horizon), emissions(horizon);
  for (std::size_t t = 0; t < horizon; ++t) {
    buy[t] = rng.uniform(5.9, 10.9);
    sell[t] = 0.9 * buy[t];
    emissions[t] = rng.uniform(2.0, 6.0);
  }
  trading::TraderContext context;
  context.horizon = horizon;
  context.carbon_cap = 2.0 * static_cast<double>(horizon);
  context.max_trade_per_slot = 20.0;
  for (auto _ : state) {
    auto plan = trading::solve_offline_trading(context, buy, sell, emissions);
    benchmark::DoNotOptimize(plan);
  }
}
BENCHMARK(BM_OfflineTradingLp)->Arg(40)->Arg(80)->Arg(160)
    ->Unit(benchmark::kMillisecond);

}  // namespace

// Explicit main (instead of benchmark::benchmark_main) so the telemetry
// flag can be stripped before google-benchmark parses the argument list.
int main(int argc, char** argv) {
  auto telemetry = cea::bench::TelemetrySession::from_args(argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
