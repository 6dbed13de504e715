// Perf bench for the nn GEMM kernel layer (not a paper figure).
//
// Two families of measurements:
//
//   gemm/*   — raw C += op(A)·op(B) throughput (GFLOP/s) on the per-layer
//              shapes the zoo models actually produce (conv im2col
//              products, dense products), for the scalar reference
//              micro-kernel, each SIMD variant the machine supports, and
//              the active variant on the shared thread pool;
//   train/*  — one fig12-style training epoch of mnist-cnn-16x32 on a
//              synthetic batch stream, in three modes:
//                seed_reference — the original per-element layer loops,
//                                 preserved behind ComputeBackend::kReference;
//                gemm_serial    — tiled SIMD GEMM path, single thread;
//                gemm_parallel  — the same plus the global thread pool.
//
// Targets (ISSUE/ROADMAP): gemm_serial >= 4x seed_reference single-thread;
// gemm_parallel >= 8x seed_reference when >= 4 cores are available. The
// summary and every raw measurement are mirrored to bench_out/perf_nn.json
// so the perf trajectory can be tracked across PRs. CEA_BENCH_SMOKE=1 runs
// every benchmark for exactly one iteration (the bench_smoke ctest label).
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "nn/gemm.h"
#include "nn/tensor.h"
#include "nn/train.h"
#include "nn/zoo.h"
#include "util/cpu.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {

using namespace cea;
using nn::gemm::Op;
using nn::gemm::Variant;

bool smoke_mode() { return std::getenv("CEA_BENCH_SMOKE") != nullptr; }

// ------------------------------------------------------------- gemm/*

struct GemmShape {
  const char* name;  // which zoo layer produces it
  std::size_t m, n, k;
};

// m x n x k of the layer's forward product (conv: weights x im2col
// columns; dense: batch x out x in with batch 32).
const GemmShape kShapes[] = {
    {"mnist_cnn32_conv1", 32, 784, 9},     // 3x3 conv, 1->32ch, 28x28
    {"mnist_cnn32_conv2", 64, 196, 288},   // 3x3 conv, 32->64ch, 14x14
    {"cifar_cnn64_conv2", 128, 256, 576},  // 3x3 conv, 64->128ch, 16x16
    {"mnist_mlp256_fc1", 32, 256, 784},    // dense 784->256, batch 32
    {"lenet5_fc1", 32, 120, 400},          // dense 400->120, batch 32
};

struct GemmMode {
  const char* name;
  Variant variant;
  bool pooled;
};

std::vector<GemmMode> available_modes() {
  std::vector<GemmMode> modes = {{"scalar", Variant::kScalar, false}};
  if (util::have_avx2()) modes.push_back({"avx2", Variant::kAvx2, false});
  if (util::have_avx512())
    modes.push_back({"avx512", Variant::kAvx512, false});
  modes.push_back({"pooled", nn::gemm::active_variant(), true});
  return modes;
}

void run_gemm_benchmark(benchmark::State& state, const GemmShape& shape,
                        const GemmMode& mode) {
  Rng rng(42);
  std::vector<float> a(shape.m * shape.k), b(shape.k * shape.n),
      c(shape.m * shape.n, 0.0f);
  for (auto& v : a) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  for (auto& v : b) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  util::ThreadPool* pool = mode.pooled ? &util::ThreadPool::global() : nullptr;

  for (auto _ : state) {
    nn::gemm::multiply_variant(mode.variant, a.data(), shape.k, Op::kNone,
                               b.data(), shape.n, Op::kNone, c.data(),
                               shape.n, shape.m, shape.n, shape.k, pool);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  const double flops = 2.0 * static_cast<double>(shape.m) *
                       static_cast<double>(shape.n) *
                       static_cast<double>(shape.k) *
                       static_cast<double>(state.iterations());
  state.counters["gflops"] =
      benchmark::Counter(flops * 1e-9, benchmark::Counter::kIsRate);
}

// ------------------------------------------------------------ train/*

enum class TrainMode { kSeedReference, kGemmSerial, kGemmParallel };

const char* train_mode_name(TrainMode mode) {
  switch (mode) {
    case TrainMode::kSeedReference: return "seed_reference";
    case TrainMode::kGemmSerial: return "gemm_serial";
    case TrainMode::kGemmParallel: return "gemm_parallel";
  }
  return "?";
}

std::size_t train_samples() {
  if (smoke_mode()) return 32;
  if (const char* env = std::getenv("CEA_BENCH_TRAIN_SAMPLES")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  return 256;
}

void run_train_benchmark(benchmark::State& state, TrainMode mode) {
  const std::size_t samples = train_samples();
  Rng rng(7);
  nn::Tensor batch({samples, 1, 28, 28});
  for (auto& v : batch.data()) v = static_cast<float>(rng.uniform());
  std::vector<std::size_t> labels(samples);
  for (std::size_t i = 0; i < samples; ++i) labels[i] = i % 10;

  nn::Sequential model =
      nn::make_simple_cnn("perf-cnn", nn::mnist_spec(), 16, 32, rng);
  nn::TrainConfig config;
  config.epochs = 1;
  config.batch_size = 32;

  nn::set_compute_backend(mode == TrainMode::kSeedReference
                              ? nn::ComputeBackend::kReference
                              : nn::ComputeBackend::kGemm);
  nn::set_compute_pool(mode == TrainMode::kGemmParallel
                           ? &util::ThreadPool::global()
                           : nullptr);
  for (auto _ : state) {
    Rng train_rng(11);
    nn::train_sgd(model, batch, labels, config, train_rng);
  }
  nn::set_compute_backend(nn::ComputeBackend::kGemm);
  nn::set_compute_pool(nullptr);
  state.counters["samples_per_sec"] = benchmark::Counter(
      static_cast<double>(samples) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}

// ---------------------------------------------------------- reporting

/// Console reporter that additionally captures every per-repetition row's
/// rate counter for the JSON mirror.
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  struct Row {
    std::string name;
    double rate = 0.0;  // gflops or samples_per_sec, depending on family
  };

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const auto& run : runs) {
      if (run.run_type == Run::RT_Aggregate) continue;
      for (const char* key : {"gflops", "samples_per_sec"}) {
        const auto counter = run.counters.find(key);
        if (counter != run.counters.end())
          rows_.push_back({run.benchmark_name(), counter->second});
      }
    }
    ConsoleReporter::ReportRuns(runs);
  }

  const std::vector<Row>& rows() const noexcept { return rows_; }

 private:
  std::vector<Row> rows_;
};

const char* variant_name(Variant variant) {
  switch (variant) {
    case Variant::kScalar: return "scalar";
    case Variant::kAvx2: return "avx2";
    case Variant::kAvx512: return "avx512";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  const auto bench_start = std::chrono::steady_clock::now();
  auto telemetry = cea::bench::TelemetrySession::from_args(argc, argv);
  const std::vector<GemmMode> modes = available_modes();
  for (const GemmShape& shape : kShapes) {
    for (const GemmMode& mode : modes) {
      const std::string name =
          std::string("gemm/") + shape.name + "/" + mode.name;
      auto* bench = benchmark::RegisterBenchmark(
          name.c_str(),
          [shape, mode](benchmark::State& state) {
            run_gemm_benchmark(state, shape, mode);
          });
      bench->Unit(benchmark::kMicrosecond)->UseRealTime();
      if (smoke_mode()) bench->Iterations(1);
    }
  }
  for (TrainMode mode : {TrainMode::kSeedReference, TrainMode::kGemmSerial,
                         TrainMode::kGemmParallel}) {
    const std::string name =
        std::string("train/epoch_mnist_cnn_16x32/") + train_mode_name(mode);
    auto* bench = benchmark::RegisterBenchmark(
        name.c_str(),
        [mode](benchmark::State& state) { run_train_benchmark(state, mode); });
    bench->Unit(benchmark::kMillisecond)->UseRealTime();
    if (smoke_mode()) bench->Iterations(1);
  }

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  CapturingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  // Average repetitions per benchmark, preserving registration order.
  std::vector<std::string> order;
  std::map<std::string, std::pair<double, int>> sums;
  for (const auto& row : reporter.rows()) {
    std::string name = row.name;
    if (const auto suffix = name.find("/real_time");
        suffix != std::string::npos)
      name.resize(suffix);
    auto [it, inserted] = sums.emplace(name, std::pair{0.0, 0});
    if (inserted) order.push_back(name);
    it->second.first += row.rate;
    it->second.second += 1;
  }
  const auto mean_of = [&](const std::string& name) {
    const auto it = sums.find(name);
    return it == sums.end() || it->second.second == 0
               ? 0.0
               : it->second.first / static_cast<double>(it->second.second);
  };

  const double seed_sps = mean_of("train/epoch_mnist_cnn_16x32/seed_reference");
  const double serial_sps = mean_of("train/epoch_mnist_cnn_16x32/gemm_serial");
  const double parallel_sps =
      mean_of("train/epoch_mnist_cnn_16x32/gemm_parallel");
  const double serial_speedup = seed_sps > 0.0 ? serial_sps / seed_sps : 0.0;
  const double parallel_speedup =
      seed_sps > 0.0 ? parallel_sps / seed_sps : 0.0;
  const unsigned hw_threads = std::thread::hardware_concurrency();

  const double bench_wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    bench_start)
          .count();
  std::filesystem::create_directories("bench_out");
  std::ofstream json("bench_out/perf_nn.json");
  json << "{\n";
  json << "  \"meta\": " << cea::bench::meta_json_object(bench_wall) << ",\n";
  json << "  \"hardware_threads\": " << hw_threads << ",\n";
  json << "  \"pool_workers\": " << util::ThreadPool::global().size() << ",\n";
  json << "  \"active_variant\": \""
       << variant_name(nn::gemm::active_variant()) << "\",\n";
  json << "  \"benchmarks\": [\n";
  for (std::size_t i = 0; i < order.size(); ++i) {
    const bool train = order[i].rfind("train/", 0) == 0;
    json << "    {\"name\": \"" << order[i] << "\", \""
         << (train ? "samples_per_sec" : "gflops")
         << "\": " << mean_of(order[i]) << "}"
         << (i + 1 < order.size() ? "," : "") << "\n";
  }
  json << "  ],\n";
  json << "  \"train_epoch_speedup_vs_seed\": {\n";
  json << "    \"gemm_serial\": " << serial_speedup << ",\n";
  json << "    \"gemm_parallel\": " << parallel_speedup << ",\n";
  json << "    \"targets\": \"serial >= 4x; parallel >= 8x when >= 4 "
          "cores\"\n";
  json << "  }\n";
  json << "}\n";
  json.close();

  if (seed_sps > 0.0) {
    std::printf("\ntrain-epoch speedup vs seed scalar path: gemm_serial "
                "%.2fx (target >= 4x), gemm_parallel %.2fx (target >= 8x "
                "with >= 4 cores; %u hardware threads, %zu pool workers)\n",
                serial_speedup, parallel_speedup, hw_threads,
                util::ThreadPool::global().size());
    std::printf("wrote bench_out/perf_nn.json\n");
  }
  return 0;
}
