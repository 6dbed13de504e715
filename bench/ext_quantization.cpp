// Extension (paper Section VII, future work #2): quantization-aware carbon
// control. Each trained model is post-training-quantized to int8 and int4;
// the quantized variants join the model zoo as additional arms with a
// smaller transfer size F_{i,n} and a lower per-sample inference energy
// v_{i,n}, at slightly worse loss. The controller can then trade accuracy
// against carbon — this bench measures what that buys.
//
// Both quantized arms are fake-quantized (nn::quantize_model rounds the
// weights onto per-channel int grids and the fp32 path runs them), so
// their accuracy is measured while their v_{i,n} discount is SIMULATED:
// Horowitz-style per-MAC energy guesses of 0.25x (int8) and 0.15x (int4),
// labelled "simulated" in the table and CSV.
#include <cstdio>
#include <filesystem>
#include <functional>
#include <string>
#include <tuple>
#include <vector>

#include "bench_common.h"
#include "data/loss_profile.h"
#include "data/synthetic_dataset.h"
#include "nn/quantize.h"
#include "nn/serialize.h"
#include "nn/train.h"
#include "nn/zoo.h"
#include "util/table.h"

int main(int argc, char** argv) {
  auto telemetry = cea::bench::TelemetrySession::from_args(argc, argv);

  using namespace cea;
  const std::size_t runs = bench::num_runs();
  std::printf("Extension — quantization-aware carbon control (%zu-run avg)\n",
              runs);
  std::printf("Training 4 float models, deriving fake-quantized int8 and "
              "int4 variants...\n");

  const data::SyntheticDistribution dist(data::mnist_like_spec());
  Rng data_rng(1);
  const data::Dataset train_set = dist.sample(800, data_rng);
  const data::Dataset test_set = dist.sample(400, data_rng);

  // cnn-16x32 is the paper's fig12 model.
  struct ZooEntry {
    const char* name;
    std::function<nn::Sequential(Rng&)> make;
    double float_energy;  // per-sample J, interpolated over the paper band
  };
  const ZooEntry entries[] = {
      {"mlp-256",
       [](Rng& r) { return nn::make_mlp("mlp-256", nn::mnist_spec(), 256, r); },
       10e-8},
      {"mlp-64",
       [](Rng& r) { return nn::make_mlp("mlp-64", nn::mnist_spec(), 64, r); },
       7e-8},
      {"lenet5-half",
       [](Rng& r) {
         return nn::make_lenet5("lenet5-half", nn::mnist_spec(), 0.5, r);
       },
       6e-8},
      {"cnn-16x32",
       [](Rng& r) {
         return nn::make_simple_cnn("cnn-16x32", nn::mnist_spec(), 16, 32, r);
       },
       12e-8},
  };

  nn::TrainConfig config;
  config.epochs = 2;
  config.batch_size = 32;
  config.learning_rate = 0.05f;

  // Simulated per-sample energy discounts of the quantized arms.
  const struct {
    std::size_t bits;
    double discount;
  } arms[] = {{8, 0.25}, {4, 0.15}};

  std::vector<data::LossProfile> float_profiles;
  std::vector<double> float_energy_list;
  std::vector<data::LossProfile> extended_profiles;
  std::vector<double> extended_energy_list;

  struct ArmRow {
    std::string arm;
    double size_mb, accuracy, acc_delta_pp, discount;
    const char* discount_source;
  };
  std::vector<ArmRow> arm_rows;

  Rng model_rng(2);
  std::filesystem::create_directories("bench_out");
  for (const ZooEntry& entry : entries) {
    nn::Sequential model = entry.make(model_rng);
    nn::train_sgd(model, train_set.samples, train_set.labels, config,
                  model_rng);
    model.set_training(false);
    float_profiles.push_back(data::profile_model(model, test_set));
    float_energy_list.push_back(entry.float_energy);
    extended_profiles.push_back(float_profiles.back());
    extended_energy_list.push_back(entry.float_energy);
    const double float_accuracy = float_profiles.back().accuracy();
    arm_rows.push_back({model.name(), model.size_mb(), float_accuracy, 0.0,
                        1.0, "fp32"});

    const std::string checkpoint =
        "bench_out/quant_tmp_" + model.name() + ".bin";
    nn::save_model(model, checkpoint);

    // Each quantized arm rounds the float weights in place, is profiled
    // through the fp32 path, and the checkpoint restores the float weights.
    for (const auto& arm : arms) {
      const std::string suffix = "-int" + std::to_string(arm.bits);
      const auto report = nn::quantize_model(model, arm.bits);
      auto profile = data::profile_model(model, test_set, 64, report.size_mb);
      const double delta_pp = (float_accuracy - profile.accuracy()) * 100.0;
      std::printf("  %-12s int%zu: size %.3f MB, accuracy %.3f (float %.3f, "
                  "delta %+.2f pp), simulated v discount %.2fx, max err "
                  "%.4f\n",
                  model.name().c_str(), arm.bits, report.size_mb,
                  profile.accuracy(), float_accuracy, -delta_pp,
                  arm.discount, report.max_abs_error);
      arm_rows.push_back({model.name() + suffix, report.size_mb,
                          profile.accuracy(), delta_pp, arm.discount,
                          "simulated"});
      extended_profiles.push_back(std::move(profile));
      extended_energy_list.push_back(entry.float_energy * arm.discount);
      nn::load_model(model, checkpoint);  // restore float weights
    }
    std::remove(checkpoint.c_str());
  }

  auto run_zoo = [&](std::vector<data::LossProfile> profiles,
                     std::vector<double> energies, const char* label) {
    sim::SimConfig sim_config;
    sim_config.num_edges = 10;
    sim_config.seed = 42;
    const auto env = sim::Environment::from_profiles(
        sim_config, std::move(profiles), std::move(energies));
    const auto result = bench::averaged(env, sim::ours_combo(),
                                                runs, 7);
    return std::tuple<std::string, double, double, double>(
        label, result.settled_total_cost(), result.total_emissions(),
        result.mean_accuracy());
  };

  const auto base =
      run_zoo(float_profiles, float_energy_list, "float zoo (4 arms)");
  const auto extended = run_zoo(extended_profiles, extended_energy_list,
                                "float+int8+int4 zoo (12 arms)");

  auto csv = bench::make_csv("ext_quantization");
  Table arm_table(
      {"arm", "size MB", "accuracy", "acc delta pp", "v discount", "source"});
  csv.write_row({"arm", "size_mb", "accuracy", "acc_delta_pp",
                 "energy_discount", "discount_source"});
  for (const ArmRow& row : arm_rows) {
    arm_table.add_row(row.arm + " [" + row.discount_source + "]",
                      {row.size_mb, row.accuracy, row.acc_delta_pp,
                       row.discount},
                      3);
    csv.write_row({row.arm, std::to_string(row.size_mb),
                   std::to_string(row.accuracy),
                   std::to_string(row.acc_delta_pp),
                   std::to_string(row.discount), row.discount_source});
  }
  arm_table.print();

  Table table({"zoo", "settled cost", "emissions", "accuracy"});
  csv.write_row({"zoo", "settled_cost", "emissions", "accuracy"});
  for (const auto& row : {base, extended}) {
    table.add_row(std::get<0>(row),
                  {std::get<1>(row), std::get<2>(row), std::get<3>(row)}, 3);
    csv.write_row(std::get<0>(row),
                  {std::get<1>(row), std::get<2>(row), std::get<3>(row)});
  }
  table.print();
  std::printf("\nExpected: the extended zoo gives the controller cheaper "
              "low-energy arms, cutting emissions and total cost at little "
              "accuracy loss. Accuracies are measured on fake-quantized "
              "weights; the v discounts are a simulated what-if.\n");
  return 0;
}
