// Perf bench for the simulation engine itself (not a paper figure): slots
// per second of Simulator::run with the "Ours" combo (the SoA Algorithm 1
// fleet, core::BlockedTsallisFleetPolicy, plus Algorithm 2) on the fig03
// scenario (seed-42 parametric environment, T=160, loss_draw_cap=256) at
// 10/50/200 edges, in two engine modes:
//
//   serial_batched   — LossProfile::draw_batch with per-(edge,slot)
//                      streams and the cross-edge OMD presolve, single
//                      thread (the default engine);
//   parallel_batched — per-edge fan-out over the global thread pool
//                      (CEA_BENCH_THREADS sizes it), OMD solves inside
//                      the shards.
//
// The two are bit-identical (tests/sim/test_parallel.cpp). Results are
// mirrored to bench_out/perf_simulator.json (mode, edges, slots_per_sec —
// the one baseline format every perf bench emits) so the perf trajectory
// can be tracked across PRs.
#include <benchmark/benchmark.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "bench_common.h"
#include "sim/experiment.h"
#include "sim/simulator.h"
#include "util/thread_pool.h"

namespace {

using namespace cea;

enum class Mode { kSerialBatched, kParallelBatched };

const char* mode_name(Mode mode) {
  switch (mode) {
    case Mode::kSerialBatched: return "serial_batched";
    case Mode::kParallelBatched: return "parallel_batched";
  }
  return "?";
}

/// fig03's scenario at a given fleet size (cap/liquidity prorated like
/// fig04 so the trading problem stays comparable across sizes).
const sim::Environment& environment_for(std::size_t edges) {
  static std::map<std::size_t, sim::Environment> cache;
  auto it = cache.find(edges);
  if (it == cache.end()) {
    sim::SimConfig config;
    config.num_edges = edges;
    config.carbon_cap = 50.0 * static_cast<double>(edges);
    config.max_trade_per_slot = 2.5 * static_cast<double>(edges);
    config.seed = 42;
    it = cache.emplace(edges, sim::Environment::make_parametric(config))
             .first;
  }
  return it->second;
}

void run_engine_benchmark(benchmark::State& state, Mode mode) {
  const auto edges = static_cast<std::size_t>(state.range(0));
  const sim::Environment& env = environment_for(edges);
  const sim::AlgorithmCombo combo = sim::ours_combo();

  sim::SimOptions options;
  if (mode == Mode::kParallelBatched)
    options.pool = &util::ThreadPool::global();
  const sim::Simulator simulator(env, options);

  std::uint64_t seed = 1;
  for (auto _ : state) {
    const auto result =
        simulator.run(combo.policy, combo.trader, seed++, combo.name);
    benchmark::DoNotOptimize(result.total_switches);
  }
  const double slots = static_cast<double>(state.iterations()) *
                       static_cast<double>(env.horizon());
  state.counters["slots_per_sec"] =
      benchmark::Counter(slots, benchmark::Counter::kIsRate);
  state.SetLabel(std::string(mode_name(mode)) + ", " +
                 std::to_string(edges) + " edges");
}

void BM_SerialBatched(benchmark::State& state) {
  run_engine_benchmark(state, Mode::kSerialBatched);
}
void BM_ParallelBatched(benchmark::State& state) {
  run_engine_benchmark(state, Mode::kParallelBatched);
}

// UseRealTime: rate counters divide by wall time, the honest throughput
// metric for the parallel mode (CPU time would only see the main thread).
BENCHMARK(BM_SerialBatched)->Arg(10)->Arg(50)->Arg(200)
    ->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_ParallelBatched)->Arg(10)->Arg(50)->Arg(200)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

/// Console reporter that additionally captures (name, slots_per_sec) rows
/// for the JSON mirror.
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  struct Row {
    std::string name;
    double slots_per_sec = 0.0;
  };

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const auto& run : runs) {
      // Under --benchmark_repetitions the aggregate rows (mean, median,
      // stddev, cv) also carry the counter; only the per-repetition
      // measurements are data, the rest would corrupt the averages below.
      if (run.run_type == Run::RT_Aggregate) continue;
      const auto counter = run.counters.find("slots_per_sec");
      if (counter == run.counters.end()) continue;
      rows_.push_back({run.benchmark_name(), counter->second});
    }
    ConsoleReporter::ReportRuns(runs);
  }

  const std::vector<Row>& rows() const noexcept { return rows_; }

 private:
  std::vector<Row> rows_;
};

/// "BM_SerialBatched/50/real_time" -> {"serial_batched", "50"}.
std::pair<std::string, std::string> parse_name(std::string name) {
  std::string mode = "?";
  if (name.find("SerialBatched") != std::string::npos)
    mode = "serial_batched";
  else if (name.find("ParallelBatched") != std::string::npos)
    mode = "parallel_batched";
  if (const auto suffix = name.find("/real_time"); suffix != std::string::npos)
    name.resize(suffix);
  const auto slash = name.rfind('/');
  return {mode, slash == std::string::npos ? "?" : name.substr(slash + 1)};
}

}  // namespace

int main(int argc, char** argv) {
  const auto bench_start = std::chrono::steady_clock::now();
  auto telemetry = cea::bench::TelemetrySession::from_args(argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  CapturingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  // Average repetitions of the same benchmark (one row per repetition with
  // --benchmark_repetitions, a single row otherwise), preserving run order.
  std::vector<std::pair<std::string, std::string>> order;
  std::map<std::pair<std::string, std::string>, std::pair<double, int>> sums;
  for (const auto& row : reporter.rows()) {
    const auto key = parse_name(row.name);
    auto [it, inserted] = sums.emplace(key, std::pair{0.0, 0});
    if (inserted) order.push_back(key);
    it->second.first += row.slots_per_sec;
    it->second.second += 1;
  }

  std::filesystem::create_directories("bench_out");
  // The one checked-in baseline format: JSON rows with run provenance.
  {
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      bench_start)
            .count();
    std::ofstream json("bench_out/perf_simulator.json");
    json << "{\n  \"meta\": " << cea::bench::meta_json_object(wall)
         << ",\n  \"rows\": [\n";
    bool first = true;
    for (const auto& [mode, edges] : order) {
      const auto& [total, count] = sums.at({mode, edges});
      if (!first) json << ",\n";
      first = false;
      json << "    {\"mode\": \"" << mode << "\", \"edges\": " << edges
           << ", \"slots_per_sec\": "
           << (total / static_cast<double>(count)) << "}";
    }
    json << "\n  ]\n}\n";
  }
  return 0;
}
