// Overview "table": every algorithm combo of Section V plus Offline and the
// library's extensions on the default paper scenario, ranked by settled
// total cost, followed by a deep-dive report on Ours.
//
// Each combo is additionally costed: wall time plus solver iteration
// counters (tsallis.solves / tsallis.newton_iters / simplex.pivots)
// measured as telemetry-snapshot diffs around its runs, printed as a table
// and mirrored to bench_out/summary_all_combos.json. Counters read zero in
// a -DCEA_TELEMETRY=OFF build; the tsallis ones are detail-gated, so the
// bench switches detail on for the duration of the runs.
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "bench_common.h"
#include "core/mpc_trader.h"
#include "core/pooled_tsallis.h"
#include "core/predictive_trader.h"
#include "obs/telemetry.h"
#include "sim/report.h"

namespace {

double counter_value(const cea::obs::Snapshot& snap, std::string_view name) {
  for (const auto& c : snap.counters)
    if (c.name == name) return c.value;
  return 0.0;
}

void histogram_totals(const cea::obs::Snapshot& snap, std::string_view name,
                      double* count, double* sum) {
  for (const auto& h : snap.histograms) {
    if (h.name == name) {
      *count = static_cast<double>(h.count);
      *sum = h.sum;
      return;
    }
  }
  *count = 0.0;
  *sum = 0.0;
}

/// Solver-side cost of one combo's runs: wall clock plus iteration
/// counters diffed across telemetry snapshots.
struct SolverCost {
  std::string algorithm;
  double wall_sec = 0.0;
  double tsallis_solves = 0.0;
  double newton_iters_per_solve = 0.0;
  double simplex_pivots = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  auto telemetry = cea::bench::TelemetrySession::from_args(argc, argv);

  using namespace cea;
  const std::size_t runs = bench::num_runs();

  sim::SimConfig config;
  config.num_edges = 10;
  config.seed = 42;
  const auto env = sim::Environment::make_parametric(config);

  std::printf("Summary — all combos + extensions on the default scenario "
              "(%zu-run avg)\n\n",
              runs);

  // The tsallis solver counters only record when detail is on (the
  // --telemetry flag enables it too; this makes the costing table work in
  // the plain invocation). Restored below so the session export keeps its
  // configured level.
  const bool had_detail = obs::detail_enabled();
  obs::set_detail(true);

  std::vector<sim::RunResult> results;
  std::vector<SolverCost> costs;
  const auto run_costed = [&](auto&& run_fn, const char* name) {
    const obs::Snapshot before = obs::snapshot();
    const auto t0 = std::chrono::steady_clock::now();
    results.push_back(run_fn());
    const auto t1 = std::chrono::steady_clock::now();
    const obs::Snapshot after = obs::snapshot();

    SolverCost cost;
    cost.algorithm = name;
    cost.wall_sec = std::chrono::duration<double>(t1 - t0).count();
    cost.tsallis_solves = counter_value(after, "tsallis.solves") -
                          counter_value(before, "tsallis.solves");
    double count_before, sum_before, count_after, sum_after;
    histogram_totals(before, "tsallis.newton_iters", &count_before,
                     &sum_before);
    histogram_totals(after, "tsallis.newton_iters", &count_after, &sum_after);
    const double iter_count = count_after - count_before;
    cost.newton_iters_per_solve =
        iter_count > 0.0 ? (sum_after - sum_before) / iter_count : 0.0;
    cost.simplex_pivots = counter_value(after, "simplex.pivots") -
                          counter_value(before, "simplex.pivots");
    costs.push_back(cost);
  };

  for (const auto& combo : sim::all_combos()) {
    run_costed(
        [&] { return sim::run_combo_averaged_parallel(env, combo, runs, 7); },
        combo.name.c_str());
  }
  run_costed([&] { return sim::run_offline_averaged(env, runs, 7); },
             "Offline");
  // Extensions (serial averaging for the stateful pooled factory).
  run_costed(
      [&] {
        return sim::run_combo_averaged(
            env,
            {"Pooled-PD",
             bandit::adapt_per_edge(core::pooled_tsallis_factory()),
             sim::ours_combo().trader},
            runs, 7);
      },
      "Pooled-PD");
  run_costed(
      [&] {
        return sim::run_combo_averaged_parallel(
            env,
            {"Ours-MPC", sim::ours_combo().policy,
             core::MpcCarbonTrader::factory()},
            runs, 7);
      },
      "Ours-MPC");
  run_costed(
      [&] {
        return sim::run_combo_averaged_parallel(
            env,
            {"Ours-Predict", sim::ours_combo().policy,
             core::PredictiveCarbonTrader::factory()},
            runs, 7);
      },
      "Ours-Predict");

  obs::set_detail(had_detail);

  std::fputs(sim::comparison_report(env, results).c_str(), stdout);

  std::printf("\nPer-combo solver cost (%zu-run totals; zeros mean the "
              "build has telemetry off)\n",
              runs);
  std::printf("%-14s %9s %15s %18s %15s\n", "algorithm", "wall_s",
              "tsallis_solves", "newton_iters/slv", "simplex_pivots");
  for (const auto& cost : costs) {
    std::printf("%-14s %9.3f %15.0f %18.2f %15.0f\n", cost.algorithm.c_str(),
                cost.wall_sec, cost.tsallis_solves,
                cost.newton_iters_per_solve, cost.simplex_pivots);
  }

  std::filesystem::create_directories("bench_out");
  std::ofstream json("bench_out/summary_all_combos.json");
  json << "{\n  \"meta\": " << bench::meta_json_object(0.0) << ",\n";
  json << "  \"runs\": " << runs << ",\n";
  json << "  \"combos\": [\n";
  for (std::size_t i = 0; i < costs.size(); ++i) {
    const auto& cost = costs[i];
    json << "    {\"algorithm\": \"" << cost.algorithm
         << "\", \"wall_sec\": " << cost.wall_sec
         << ", \"tsallis_solves\": " << cost.tsallis_solves
         << ", \"newton_iters_per_solve\": " << cost.newton_iters_per_solve
         << ", \"simplex_pivots\": " << cost.simplex_pivots << "}"
         << (i + 1 < costs.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  json.close();
  std::printf("wrote bench_out/summary_all_combos.json\n");

  std::printf("\n");
  for (const auto& result : results) {
    if (result.algorithm == "Ours") {
      std::fputs(sim::run_report(env, result).c_str(), stdout);
      break;
    }
  }
  return 0;
}
