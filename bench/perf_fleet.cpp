// Fleet-scale engine bench (not a paper figure): the arena-backed SoA slot
// engine at 100 / 1000 / 10000 edges x 160 slots, serial vs pooled
// edge-sharded execution, on the "Ours" combo (SoA BlockedTsallisINF fleet
// + online carbon trader). The serial engine presolves each slot's OMD
// steps in one cross-edge batch; the pooled one solves them inside its
// shards, so the bit-identity gate also pins the two solve paths.
//
// Three properties are *gated*, not just measured (nonzero exit on
// violation, so the bench_smoke ctest label and CI catch regressions):
//
//   1. bit-identity — the pooled run's RunResult must equal the serial
//      run's exactly (every per-slot series, every selection count), for
//      any pool width;
//   2. zero arena overflows — after FleetState's up-front reservation the
//      slot path must not touch the heap (RunResult::arena_overflows == 0);
//   3. workload purity — the keyed heavy-tail / flash-crowd generators
//      must produce identical traces pooled and serial.
//
// Reported: slots/sec per mode, pooled-vs-serial speedup, and generation
// throughput of the keyed workload kinds at 10k edges. The speedup target
// (>= 3x at 10k edges) assumes multi-core hardware; the JSON records the
// thread count so single-core CI runs are honestly labeled rather than
// failed. Results go to bench_out/perf_fleet.json. CEA_BENCH_SMOKE=1
// shrinks the sweep to 100 edges x 1 repetition.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "data/workload.h"
#include "sim/experiment.h"
#include "sim/simulator.h"
#include "util/thread_pool.h"

namespace {

using namespace cea;

bool smoke_mode() { return std::getenv("CEA_BENCH_SMOKE") != nullptr; }

double now_sec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// fig03's scenario prorated to the fleet size (cap and liquidity scale
/// with edges, like fig04), loss_draw_cap at the default 256.
sim::Environment environment_for(std::size_t edges) {
  sim::SimConfig config;
  config.num_edges = edges;
  config.carbon_cap = 50.0 * static_cast<double>(edges);
  config.max_trade_per_slot = 2.5 * static_cast<double>(edges);
  config.seed = 42;
  return sim::Environment::make_parametric(config);
}

bool identical_results(const sim::RunResult& a, const sim::RunResult& b) {
  return a.inference_cost == b.inference_cost &&
         a.switching_cost == b.switching_cost &&
         a.trading_cost == b.trading_cost && a.emissions == b.emissions &&
         a.buys == b.buys && a.sells == b.sells &&
         a.accuracy == b.accuracy && a.workload == b.workload &&
         a.selection_counts == b.selection_counts &&
         a.total_switches == b.total_switches;
}

struct EngineRow {
  std::size_t edges = 0;
  double serial_slots_per_sec = 0.0;
  double pooled_slots_per_sec = 0.0;
  double speedup = 0.0;
  std::size_t arena_overflows = 0;
  bool identical = false;
};

struct WorkloadRow {
  std::string kind;
  double cells_per_sec_serial = 0.0;
  double cells_per_sec_pooled = 0.0;
  bool identical = false;
};

}  // namespace

int main(int argc, char** argv) {
  const double bench_start = now_sec();
  auto telemetry = cea::bench::TelemetrySession::from_args(argc, argv);

  const bool smoke = smoke_mode();
  const std::vector<std::size_t> edge_counts =
      smoke ? std::vector<std::size_t>{100}
            : std::vector<std::size_t>{100, 1000, 10000};
  const std::size_t reps = smoke ? 1 : 3;
  util::ThreadPool& pool = util::ThreadPool::global();
  const std::size_t threads = bench::bench_threads();
  const sim::AlgorithmCombo combo = sim::ours_combo();

  bool gate_failed = false;
  std::vector<EngineRow> rows;
  std::printf("perf_fleet — SoA slot engine, serial vs pooled (%zu threads)\n\n",
              threads);
  for (const std::size_t edges : edge_counts) {
    const sim::Environment env = environment_for(edges);
    const double slots = static_cast<double>(env.horizon());

    EngineRow row;
    row.edges = edges;

    // Serial and pooled runs share the seed, so bit-identity is checkable
    // per repetition; best-of-reps wall time is reported.
    sim::RunResult serial_result, pooled_result;
    double serial_best = 1e300, pooled_best = 1e300;
    bool row_identical = true;
    for (std::size_t rep = 0; rep < reps; ++rep) {
      const std::uint64_t seed = 1 + rep;
      double t0 = now_sec();
      serial_result = sim::run_combo(env, combo, seed);
      serial_best = std::min(serial_best, now_sec() - t0);

      t0 = now_sec();
      pooled_result = sim::run_combo_pooled(env, combo, seed, &pool);
      pooled_best = std::min(pooled_best, now_sec() - t0);

      if (!identical_results(serial_result, pooled_result)) {
        std::fprintf(stderr,
                     "FAIL: pooled run differs from serial at %zu edges "
                     "(seed %llu)\n",
                     edges, static_cast<unsigned long long>(seed));
        row_identical = false;
        gate_failed = true;
      }
      row.arena_overflows +=
          serial_result.arena_overflows + pooled_result.arena_overflows;
    }
    row.identical = row_identical;
    row.serial_slots_per_sec = slots / serial_best;
    row.pooled_slots_per_sec = slots / pooled_best;
    row.speedup = serial_best / pooled_best;
    if (row.arena_overflows != 0) {
      std::fprintf(stderr,
                   "FAIL: %zu arena overflows at %zu edges — the slot path "
                   "allocated\n",
                   row.arena_overflows, edges);
      gate_failed = true;
    }
    std::printf("  %6zu edges: serial %9.0f slots/s, pooled %9.0f slots/s "
                "(%.2fx), overflows %zu, identical %s\n",
                edges, row.serial_slots_per_sec, row.pooled_slots_per_sec,
                row.speedup, row.arena_overflows,
                row.identical ? "yes" : "NO");
    rows.push_back(row);
  }

  // Keyed workload generators at fleet scale: serial vs pooled generation
  // must agree bitwise; throughput in cells (edge-slot pairs) per second.
  std::vector<WorkloadRow> workload_rows;
  {
    const std::size_t edges = smoke ? 100 : 10000;
    const std::size_t slots = 160;
    for (const auto& [kind, label] :
         {std::pair{data::WorkloadKind::kHeavyTail, "heavy_tail"},
          std::pair{data::WorkloadKind::kFlashCrowd, "flash_crowd"}}) {
      data::WorkloadConfig config;
      config.num_slots = slots;
      config.mean_samples = 1e6;  // millions of samples per slot
      config.kind = kind;
      WorkloadRow row;
      row.kind = label;
      const double cells = static_cast<double>(edges * slots);

      Rng rng_serial(42), rng_pooled(42);
      double t0 = now_sec();
      const auto serial = data::generate_workload(edges, config, rng_serial);
      row.cells_per_sec_serial = cells / (now_sec() - t0);
      t0 = now_sec();
      const auto pooled =
          data::generate_workload_pooled(edges, config, rng_pooled, &pool);
      row.cells_per_sec_pooled = cells / (now_sec() - t0);
      row.identical = serial == pooled;
      if (!row.identical) {
        std::fprintf(stderr, "FAIL: pooled %s generation differs\n", label);
        gate_failed = true;
      }
      std::printf("  workload %-11s %10.0f cells/s serial, %10.0f pooled, "
                  "identical %s\n",
                  label, row.cells_per_sec_serial, row.cells_per_sec_pooled,
                  row.identical ? "yes" : "NO");
      workload_rows.push_back(row);
    }
  }

  const double wall = now_sec() - bench_start;
  std::filesystem::create_directories("bench_out");
  {
    std::ofstream json("bench_out/perf_fleet.json");
    json << "{\n  \"meta\": " << bench::meta_json_object(wall)
         << ",\n  \"speedup_target_at_10k\": 3.0"
         << ",\n  \"engine\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const auto& row = rows[i];
      if (i > 0) json << ",\n";
      json << "    {\"edges\": " << row.edges
           << ", \"serial_slots_per_sec\": " << row.serial_slots_per_sec
           << ", \"pooled_slots_per_sec\": " << row.pooled_slots_per_sec
           << ", \"speedup\": " << row.speedup
           << ", \"arena_overflows\": " << row.arena_overflows
           << ", \"identical\": " << (row.identical ? "true" : "false")
           << "}";
    }
    json << "\n  ],\n  \"workload\": [\n";
    for (std::size_t i = 0; i < workload_rows.size(); ++i) {
      const auto& row = workload_rows[i];
      if (i > 0) json << ",\n";
      json << "    {\"kind\": \"" << row.kind
           << "\", \"cells_per_sec_serial\": " << row.cells_per_sec_serial
           << ", \"cells_per_sec_pooled\": " << row.cells_per_sec_pooled
           << ", \"identical\": " << (row.identical ? "true" : "false")
           << "}";
    }
    json << "\n  ]\n}\n";
  }
  std::printf("\nwrote bench_out/perf_fleet.json (%.1fs). Speedup target "
              ">= 3x at 10k edges on multi-core hardware; this run used "
              "%zu thread(s).\n",
              wall, threads);
  return gate_failed ? 1 : 0;
}
