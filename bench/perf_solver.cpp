// Perf bench for the optimization layer (not a paper figure).
//
// Two families of measurements:
//
//   newton/*  — the Tsallis-INF OMD inner solve across a fleet of edges,
//               comparing the per-edge scalar loop (one
//               tsallis_probabilities_into call per edge, what a pooled
//               engine's shards run) against TsallisBatchSolver (what a
//               serial engine's presolve runs) on each kernel variant the
//               machine supports — scalar, and AVX2 where available — at
//               100 / 1000 / 10000 edges;
//   simplex/* — offline-trading-shaped LPs through the arena-backed
//               LpSolver, reporting pivots/sec and certifying the
//               zero-allocation steady state: after the warmup solve the
//               arena's overflow_count() must not move.
//
// Targets (ISSUE/ROADMAP): batched Newton >= 3x the scalar per-edge loop
// at 1000 edges on AVX2-capable hardware; arena overflow count frozen
// after warmup. Measured reality (see DESIGN.md section 9): the solve is
// divide-throughput bound and vdivpd retires only ~2x divsd results/cycle
// on this class of core, so the honest bit-identical ceiling is ~2x on
// the kernel alone; staging (push copy, grouping, SoA transpose, exit
// post-pass) erodes that to ~1.2-1.3x on this warm-start-heavy mixed
// workload and ~1.6x on cold-start-heavy ones. The 3x line is kept in
// the JSON as the original target so the gap stays visible. The summary
// and every raw measurement are mirrored to bench_out/perf_solver.json
// so the perf trajectory can be tracked across PRs. CEA_BENCH_SMOKE=1
// runs every benchmark for exactly one iteration (the bench_smoke ctest
// label).
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "bench_common.h"
#include "opt/simplex.h"
#include "opt/tsallis_batch.h"
#include "opt/tsallis_step.h"
#include "util/cpu.h"
#include "util/rng.h"

namespace {

using namespace cea;

bool smoke_mode() { return std::getenv("CEA_BENCH_SMOKE") != nullptr; }

// ----------------------------------------------------------- newton/*

/// One staged OMD solve, as a serial engine's presolve pass stages them.
struct SolveRequest {
  std::vector<double> losses;
  double eta = 1.0;
  double warm = 0.0;
};

/// A fleet-shaped request mix: arm counts and loss magnitudes in the range
/// the blocked policies actually produce, learning rates from early and
/// late blocks, and ~60% of requests warm-started with the root of a
/// slightly staler solve — the steady state of consecutive blocks.
std::vector<SolveRequest> make_requests(std::size_t edges) {
  Rng rng(0x5eed501);
  std::vector<SolveRequest> requests(edges);
  std::vector<double> p, scratch;
  for (auto& request : requests) {
    const std::size_t arms =
        static_cast<std::size_t>(rng.uniform_int(3, 8));
    const double scale = std::pow(10.0, rng.uniform(-1.0, 3.0));
    request.losses.resize(arms);
    for (auto& loss : request.losses) loss = rng.uniform() * scale;
    request.eta = 2.0 / std::sqrt(1.0 + rng.uniform(0.0, 400.0));
    if (rng.bernoulli(0.6)) {
      // Solve a nearby problem first and keep its scaled root as the warm
      // hint, then drift the losses like one more block of feedback would.
      double warm = 0.0;
      p.resize(arms);
      tsallis_probabilities_into(request.losses, request.eta, p, scratch,
                                 &warm);
      request.warm = warm;
      for (auto& loss : request.losses)
        loss += rng.uniform() * 0.05 * (1.0 + std::abs(loss));
    }
  }
  return requests;
}

void run_newton_scalar_loop(benchmark::State& state, std::size_t edges) {
  const auto requests = make_requests(edges);
  std::vector<double> p, scratch;
  double sink = 0.0;
  for (auto _ : state) {
    for (const auto& request : requests) {
      double warm = request.warm;
      p.resize(request.losses.size());
      tsallis_probabilities_into(request.losses, request.eta, p, scratch,
                                 &warm);
      sink += p[0] + warm;
    }
    benchmark::DoNotOptimize(sink);
  }
  state.counters["solves_per_sec"] = benchmark::Counter(
      static_cast<double>(edges) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}

void run_newton_batch(benchmark::State& state, std::size_t edges,
                      TsallisBatchVariant variant) {
  const auto requests = make_requests(edges);
  TsallisBatchSolver solver;
  double sink = 0.0;
  for (auto _ : state) {
    solver.clear();
    for (const auto& request : requests)
      solver.push(request.losses, request.eta, request.warm);
    solver.solve_variant(variant);
    sink += solver.probabilities(0)[0] + solver.scaled_lambda_warm(0);
    benchmark::DoNotOptimize(sink);
  }
  state.counters["solves_per_sec"] = benchmark::Counter(
      static_cast<double>(edges) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}

struct BatchMode {
  const char* name;
  TsallisBatchVariant variant;
};

std::vector<BatchMode> available_batch_modes() {
  std::vector<BatchMode> modes = {
      {"batch_scalar", TsallisBatchVariant::kScalar}};
  if (util::have_avx2())
    modes.push_back({"batch_avx2", TsallisBatchVariant::kAvx2});
  return modes;
}

// ---------------------------------------------------------- simplex/*

// Violations of the zero-allocation steady state observed by any simplex
// benchmark (arena overflow after warmup). Nonzero fails the bench.
int g_arena_violations = 0;

/// An offline-trading-shaped LP (see trading/offline_lp_trader.cpp):
/// 2T variables (buy/sell per slot), T prefix-neutrality rows, 2T
/// liquidity caps, with synthetic prices and emissions.
LpProblem offline_shaped_lp(std::size_t horizon, std::uint64_t seed) {
  Rng rng(seed);
  LpProblem problem;
  problem.maximize = false;
  problem.objective.resize(2 * horizon);
  for (std::size_t t = 0; t < horizon; ++t) {
    problem.objective[t] = rng.uniform(0.8, 1.6);               // buy price
    problem.objective[horizon + t] = -rng.uniform(0.3, 0.75);   // sell price
  }
  const double cap = 0.4 * static_cast<double>(horizon);
  double emission_prefix = 0.0;
  for (std::size_t d = 0; d < horizon; ++d) {
    emission_prefix += rng.uniform(0.2, 1.1);
    LpConstraint con;
    con.coeffs.assign(2 * horizon, 0.0);
    for (std::size_t s = 0; s <= d; ++s) {
      con.coeffs[s] = -1.0;
      con.coeffs[horizon + s] = 1.0;
    }
    con.relation = Relation::kLessEqual;
    con.rhs = cap - emission_prefix;
    problem.constraints.push_back(std::move(con));
  }
  for (std::size_t v = 0; v < 2 * horizon; ++v) {
    LpConstraint con;
    con.coeffs.assign(2 * horizon, 0.0);
    con.coeffs[v] = 1.0;
    con.relation = Relation::kLessEqual;
    con.rhs = 2.0;
    problem.constraints.push_back(std::move(con));
  }
  return problem;
}

void run_simplex_benchmark(benchmark::State& state, std::size_t horizon) {
  const LpProblem problem = offline_shaped_lp(horizon, 0x10ad + horizon);
  LpSolver solver(LpSolver::required_bytes(problem.num_variables(),
                                           problem.constraints.size()));
  // Warmup: the first solve establishes the arena high-water mark. From
  // here on, overflow_count() moving means a steady-state solve hit the
  // heap — the regression this bench exists to catch.
  const LpSolution warmup = solver.solve(problem, 200000);
  if (warmup.status != LpStatus::kOptimal) {
    state.SkipWithError("warmup LP did not reach optimality");
    return;
  }
  const std::size_t overflow_after_warmup = solver.arena().overflow_count();
  std::int64_t pivots = 0;
  for (auto _ : state) {
    const LpSolution solution = solver.solve(problem, 200000);
    pivots += solution.iterations;
    benchmark::DoNotOptimize(solution.objective);
  }
  if (solver.arena().overflow_count() != overflow_after_warmup) {
    ++g_arena_violations;
    state.SkipWithError("arena overflowed after warmup");
    return;
  }
  state.counters["pivots_per_sec"] = benchmark::Counter(
      static_cast<double>(pivots), benchmark::Counter::kIsRate);
  state.counters["solves_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}

// ---------------------------------------------------------- reporting

/// Console reporter that additionally captures every per-repetition row's
/// rate counters for the JSON mirror.
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  struct Row {
    std::string name;
    std::string counter;
    double rate = 0.0;
  };

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const auto& run : runs) {
      if (run.run_type == Run::RT_Aggregate) continue;
      for (const char* key : {"solves_per_sec", "pivots_per_sec"}) {
        const auto counter = run.counters.find(key);
        if (counter != run.counters.end())
          rows_.push_back({run.benchmark_name(), key, counter->second});
      }
    }
    ConsoleReporter::ReportRuns(runs);
  }

  const std::vector<Row>& rows() const noexcept { return rows_; }

 private:
  std::vector<Row> rows_;
};

const char* variant_name(TsallisBatchVariant variant) {
  switch (variant) {
    case TsallisBatchVariant::kScalar: return "scalar";
    case TsallisBatchVariant::kAvx2: return "avx2";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  const auto bench_start = std::chrono::steady_clock::now();
  auto telemetry = cea::bench::TelemetrySession::from_args(argc, argv);

  const std::size_t kFleets[] = {100, 1000, 10000};
  const auto batch_modes = available_batch_modes();
  for (std::size_t edges : kFleets) {
    const std::string base =
        "newton/edges" + std::to_string(edges) + "/";
    auto* scalar_loop = benchmark::RegisterBenchmark(
        (base + "scalar_loop").c_str(),
        [edges](benchmark::State& state) {
          run_newton_scalar_loop(state, edges);
        });
    scalar_loop->Unit(benchmark::kMicrosecond)->UseRealTime();
    if (smoke_mode()) scalar_loop->Iterations(1);
    for (const BatchMode& mode : batch_modes) {
      auto* bench = benchmark::RegisterBenchmark(
          (base + mode.name).c_str(),
          [edges, mode](benchmark::State& state) {
            run_newton_batch(state, edges, mode.variant);
          });
      bench->Unit(benchmark::kMicrosecond)->UseRealTime();
      if (smoke_mode()) bench->Iterations(1);
    }
  }
  for (std::size_t horizon : {std::size_t{32}, std::size_t{96}}) {
    auto* bench = benchmark::RegisterBenchmark(
        ("simplex/offline_lp_T" + std::to_string(horizon)).c_str(),
        [horizon](benchmark::State& state) {
          run_simplex_benchmark(state, horizon);
        });
    bench->Unit(benchmark::kMillisecond)->UseRealTime();
    if (smoke_mode()) bench->Iterations(1);
  }

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  CapturingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  // Average repetitions per (benchmark, counter), in registration order.
  std::vector<std::pair<std::string, std::string>> order;
  std::map<std::pair<std::string, std::string>, std::pair<double, int>> sums;
  for (const auto& row : reporter.rows()) {
    std::string name = row.name;
    // Strip run-mode suffixes ("/iterations:1" in smoke mode, "/real_time")
    // so smoke and full runs aggregate under the same key.
    for (const char* suffix : {"/iterations:", "/real_time"}) {
      if (const auto at = name.find(suffix); at != std::string::npos)
        name.resize(at);
    }
    const auto key = std::pair{name, row.counter};
    auto [it, inserted] = sums.emplace(key, std::pair{0.0, 0});
    if (inserted) order.push_back(key);
    it->second.first += row.rate;
    it->second.second += 1;
  }
  const auto mean_of = [&](const std::string& name,
                           const std::string& counter) {
    const auto it = sums.find({name, counter});
    return it == sums.end() || it->second.second == 0
               ? 0.0
               : it->second.first / static_cast<double>(it->second.second);
  };

  const double scalar_1000 =
      mean_of("newton/edges1000/scalar_loop", "solves_per_sec");
  const auto speedup_1000 = [&](const char* mode) {
    const double rate =
        mean_of(std::string("newton/edges1000/") + mode, "solves_per_sec");
    return scalar_1000 > 0.0 ? rate / scalar_1000 : 0.0;
  };

  const double bench_wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    bench_start)
          .count();
  std::filesystem::create_directories("bench_out");
  std::ofstream json("bench_out/perf_solver.json");
  json << "{\n";
  json << "  \"meta\": " << cea::bench::meta_json_object(bench_wall)
       << ",\n";
  json << "  \"active_variant\": \""
       << variant_name(tsallis_batch_active_variant()) << "\",\n";
  json << "  \"benchmarks\": [\n";
  for (std::size_t i = 0; i < order.size(); ++i) {
    json << "    {\"name\": \"" << order[i].first << "\", \""
         << order[i].second << "\": " << mean_of(order[i].first,
                                                 order[i].second)
         << "}" << (i + 1 < order.size() ? "," : "") << "\n";
  }
  json << "  ],\n";
  json << "  \"newton_batch_speedup_vs_scalar_loop_1000_edges\": {\n";
  bool first = true;
  for (const BatchMode& mode : batch_modes) {
    json << (first ? "" : ",\n") << "    \"" << mode.name
         << "\": " << speedup_1000(mode.name);
    first = false;
  }
  json << ",\n    \"targets\": \"original target: batch >= 3x scalar "
          "per-edge loop at 1000 edges on AVX2-capable hardware; measured "
          "bit-identical ceiling on this divide-throughput-bound core is "
          "~2x kernel-only (vdivpd vs divsd), ~1.2-1.3x end-to-end on this "
          "warm-heavy mix — see DESIGN.md section 9\"\n";
  json << "  },\n";
  json << "  \"arena_overflow_after_warmup\": " << g_arena_violations
       << "\n";
  json << "}\n";
  json.close();

  std::printf("\nbatched Newton speedup vs per-edge scalar loop at 1000 "
              "edges:");
  for (const BatchMode& mode : batch_modes)
    std::printf(" %s %.2fx", mode.name, speedup_1000(mode.name));
  std::printf(" (original target >= 3x; measured bit-identical ceiling ~2x"
              " kernel-only, see DESIGN.md section 9)\n");
  std::printf("arena overflows after warmup: %d (must be 0)\n",
              g_arena_violations);
  std::printf("wrote bench_out/perf_solver.json\n");
  return g_arena_violations == 0 ? 0 : 1;
}
