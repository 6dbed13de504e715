// Live neural-network inference demo: trains a small MNIST-like model zoo
// from scratch (the nn substrate), then runs the paper's per-slot workflow
// with *real* forward passes instead of loss-profile draws — Step 2.1
// receive feature, Step 2.2 infer, Step 2.3 receive ground truth, Step 3
// compute the squared loss that feeds Algorithm 1.
#include <cstdio>
#include <vector>

#include "core/blocked_tsallis_fleet.h"
#include "data/synthetic_dataset.h"
#include "nn/loss.h"
#include "nn/train.h"
#include "nn/zoo.h"
#include "util/table.h"

int main() {
  using namespace cea;

  // Train three models of clearly different capacity on the same stream
  // distribution (full 6-model zoos are exercised by bench/fig12/fig13).
  const data::SyntheticDistribution dist(data::mnist_like_spec());
  Rng data_rng(1);
  const data::Dataset train_set = dist.sample(1200, data_rng);

  Rng model_rng(2);
  std::vector<nn::Sequential> zoo;
  zoo.push_back(nn::make_mlp("mlp-256", nn::mnist_spec(), 256, model_rng));
  zoo.push_back(nn::make_mlp("mlp-16", nn::mnist_spec(), 16, model_rng));
  zoo.push_back(nn::make_lenet5("lenet5-half", nn::mnist_spec(), 0.5,
                                model_rng));

  std::printf("Training %zu models on the synthetic MNIST-like stream...\n",
              zoo.size());
  nn::TrainConfig config;
  config.epochs = 2;
  config.batch_size = 32;
  config.learning_rate = 0.05f;
  for (auto& model : zoo) {
    const auto losses =
        nn::train_sgd(model, train_set.samples, train_set.labels, config,
                      model_rng);
    std::printf("  %-12s %7zu params, final epoch loss %.3f\n",
                model.name().c_str(), model.parameter_count(), losses.back());
  }

  // Stream 40 slots of live inference through Algorithm 1 on one edge.
  bandit::FleetPolicyContext context;
  context.num_edges = 1;
  context.num_models = zoo.size();
  context.run_seed = 3;
  context.switching_cost = {1.0};
  core::BlockedTsallisFleetPolicy policy(context);
  const std::size_t edge = 0;

  Rng stream_rng(4);
  std::vector<std::size_t> host_counts(zoo.size(), 0);
  std::vector<double> mean_losses(zoo.size(), 0.0);
  std::vector<std::size_t> loss_counts(zoo.size(), 0);
  double correct = 0.0, total = 0.0;

  const std::size_t slots = 40, samples_per_slot = 16;
  nn::Tensor feature({1, 1, 28, 28});
  for (std::size_t t = 0; t < slots; ++t) {
    const std::size_t hosted = policy.select(edge, t);  // Step 1: place a model
    ++host_counts[hosted];
    double slot_loss = 0.0;
    for (std::size_t s = 0; s < samples_per_slot; ++s) {
      std::size_t label = 0;
      dist.sample_into(feature, 0, label, stream_rng);   // Step 2.1
      const nn::Tensor probs = zoo[hosted].predict_proba(feature);  // 2.2
      const std::vector<std::size_t> labels = {label};   // Step 2.3
      slot_loss += nn::squared_losses(probs, labels)[0]; // Step 3
      std::size_t predicted = 0;
      for (std::size_t c = 1; c < 10; ++c)
        if (probs.at(0, c) > probs.at(0, predicted)) predicted = c;
      correct += predicted == label ? 1.0 : 0.0;
      total += 1.0;
    }
    const double avg = slot_loss / samples_per_slot;
    mean_losses[hosted] += avg;
    ++loss_counts[hosted];
    policy.feedback(edge, t, hosted, avg);  // Step 4: improve next selection
  }

  std::printf("\nStreamed %zu slots x %zu samples, overall accuracy %.2f\n\n",
              slots, samples_per_slot, correct / total);
  Table table({"model", "slots hosted", "observed avg loss"});
  for (std::size_t n = 0; n < zoo.size(); ++n) {
    table.add_row(zoo[n].name(),
                  {static_cast<double>(host_counts[n]),
                   loss_counts[n] > 0
                       ? mean_losses[n] / static_cast<double>(loss_counts[n])
                       : 0.0},
                  3);
  }
  table.print();
  std::printf(
      "\nAfter %zu slots Algorithm 1 is early in its block schedule and still\n"
      "exploring; it switches models only at block boundaries (bench/fig08\n"
      "shows where the selections settle over a full horizon).\n",
      slots);
  return 0;
}
