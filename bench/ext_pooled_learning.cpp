// Extension: cross-edge pooled learning. The paper's Algorithm 1 learns
// per edge from scratch even though Section II-A posits one common data
// distribution; the pooled variant shares the importance-weighted loss
// table across edges (core/pooled_tsallis.h). This bench measures what
// sharing buys as the fleet grows — evidence accumulates ~I times faster,
// so short-horizon accuracy and inference cost improve most at large I.
#include <cstdio>

#include "bench_common.h"
#include "core/pooled_tsallis.h"
#include "util/table.h"

int main(int argc, char** argv) {
  auto telemetry = cea::bench::TelemetrySession::from_args(argc, argv);

  using namespace cea;
  const std::size_t runs = bench::num_runs();
  std::printf("Extension — pooled cross-edge bandit learning (%zu-run "
              "avg)\n\n",
              runs);

  Table table({"edges", "Ours inference cost", "Pooled inference cost",
               "Ours accuracy", "Pooled accuracy"});
  auto csv = bench::make_csv("ext_pooled_learning");
  csv.write_row({"edges", "ours_cost", "pooled_cost", "ours_acc",
                 "pooled_acc"});
  for (const std::size_t edges : {5u, 10u, 20u, 40u}) {
    sim::SimConfig config;
    config.num_edges = edges;
    config.carbon_cap = 50.0 * static_cast<double>(edges);
    config.max_trade_per_slot = 2.5 * static_cast<double>(edges);
    config.seed = 42;
    const auto env = sim::Environment::make_parametric(config);

    const auto ours = sim::run_combo_averaged(env, sim::ours_combo(), runs, 7);
    const sim::AlgorithmCombo pooled{
        "Pooled", bandit::adapt_per_edge(core::pooled_tsallis_factory()),
        sim::ours_combo().trader};
    // Serial averaging: the pooled factory is stateful across edges.
    const auto pooled_result = sim::run_combo_averaged(env, pooled, runs, 7);

    table.add_row(std::to_string(edges),
                  {ours.total_inference_cost(),
                   pooled_result.total_inference_cost(),
                   ours.mean_accuracy(), pooled_result.mean_accuracy()},
                  3);
    csv.write_row(std::to_string(edges),
                  {ours.total_inference_cost(),
                   pooled_result.total_inference_cost(),
                   ours.mean_accuracy(), pooled_result.mean_accuracy()});
  }
  table.print();
  std::printf("\nExpected: pooling wins on inference cost and accuracy at "
              "every fleet size, with the edge growing in I (shared "
              "evidence accumulates I times faster).\n");
  return 0;
}
