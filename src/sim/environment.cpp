#include "sim/environment.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>

namespace cea::sim {

Environment Environment::make_parametric(const SimConfig& config) {
  Environment env;
  env.config_ = config;
  Rng rng(config.seed);

  // Model family: sizes span small MLP-like to MobileNet-like; mean loss
  // broadly improves with size but with enough irregularity that neither
  // the smallest nor the largest model is best everywhere.
  const std::size_t n_models = config.num_models;
  Rng profile_rng = rng.split();
  for (std::size_t n = 0; n < n_models; ++n) {
    const double rank = n_models > 1
                            ? static_cast<double>(n) /
                                  static_cast<double>(n_models - 1)
                            : 0.0;
    ModelInfo info;
    info.name = "model-" + std::to_string(n);
    info.size_mb = 0.5 + 7.5 * rank;
    // Bigger models burn more energy per inferred sample.
    info.energy_per_sample =
        config.energy_min + (config.energy_max - config.energy_min) * rank;
    // U-shaped loss with a steep small-model penalty: tiny models are
    // terrible (~1.6), mid-size models are best (~0.32), the biggest is
    // mildly worse again. This mirrors real zoos (an under-parameterized
    // MLP loses badly; a mid-size CNN hits the sweet spot) and keeps the
    // energy-greedy choice clearly loss-suboptimal without letting its
    // energy savings dominate the economics.
    const double mean_loss = 0.3 + 1.5 * (rank - 0.5) * (rank - 0.5) +
                             1.3 * std::exp(-8.0 * rank) +
                             profile_rng.uniform(-0.03, 0.03);
    const double accuracy =
        std::clamp(0.97 - 0.55 * mean_loss, 0.05, 0.99);
    info.profile = data::make_parametric_profile(
        info.name, std::clamp(mean_loss, 0.05, 1.8), 0.22, accuracy,
        info.size_mb, 4096, profile_rng);
    env.models_.push_back(std::move(info));
  }

  env.finish_build(config, rng);
  return env;
}

Environment Environment::from_profiles(const SimConfig& config,
                                       std::vector<data::LossProfile> profiles) {
  assert(!profiles.empty());
  // Rank models by size to interpolate per-sample energy.
  std::vector<std::size_t> order(profiles.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return profiles[a].size_mb() < profiles[b].size_mb();
  });
  std::vector<double> energy(profiles.size(), config.energy_min);
  for (std::size_t rank = 0; rank < order.size(); ++rank) {
    const double f = order.size() > 1
                         ? static_cast<double>(rank) /
                               static_cast<double>(order.size() - 1)
                         : 0.0;
    energy[order[rank]] =
        config.energy_min + (config.energy_max - config.energy_min) * f;
  }
  return from_profiles(config, std::move(profiles), std::move(energy));
}

Environment Environment::from_profiles(const SimConfig& config,
                                       std::vector<data::LossProfile> profiles,
                                       std::vector<double> energies_kwh) {
  assert(!profiles.empty());
  assert(energies_kwh.size() == profiles.size());
  Environment env;
  env.config_ = config;
  env.config_.num_models = profiles.size();
  Rng rng(config.seed);
  const auto& energy = energies_kwh;

  for (std::size_t n = 0; n < profiles.size(); ++n) {
    ModelInfo info;
    info.name = profiles[n].model_name();
    info.size_mb = std::max(profiles[n].size_mb(), 0.01);
    info.energy_per_sample = energy[n];
    info.profile = std::move(profiles[n]);
    env.models_.push_back(std::move(info));
  }

  env.finish_build(config, rng);
  return env;
}

void Environment::finish_build(const SimConfig& config, Rng& rng) {
  Rng topo_rng = rng.split();
  topology_ = data::generate_topology(config.num_edges, config.topology,
                                      topo_rng);

  // The workload stream is split off in its place in the seed order, so
  // prices and v_{i,n} keep their bits; the trace is drawn on first read.
  workload_ = std::make_unique<LazyWorkload>(rng.split());

  Rng market_rng = rng.split();
  prices_ = data::generate_prices(config.horizon, config.market, market_rng);

  // v_{i,n}: grows with model size, jittered per edge (heterogeneous
  // hardware), clamped into the configured latency band.
  Rng cost_rng = rng.split();
  comp_cost_.assign(config.num_edges,
                    std::vector<double>(models_.size(), 0.0));
  double max_size = 0.0;
  for (const auto& m : models_) max_size = std::max(max_size, m.size_mb);
  for (std::size_t i = 0; i < config.num_edges; ++i) {
    const double edge_speed = cost_rng.uniform(0.75, 1.25);
    for (std::size_t n = 0; n < models_.size(); ++n) {
      const double size_f =
          max_size > 0.0 ? models_[n].size_mb / max_size : 0.5;
      const double base = config.comp_cost_min +
                          (config.comp_cost_max - config.comp_cost_min) *
                              size_f;
      comp_cost_[i][n] = std::clamp(base * edge_speed, config.comp_cost_min,
                                    config.comp_cost_max);
    }
  }
}

const data::WorkloadTraces& Environment::workload() const {
  std::call_once(workload_->generated, [this] {
    data::WorkloadConfig workload_config = config_.workload;
    workload_config.num_slots = config_.horizon;
    // A copy: if generation throws, call_once lets the next call retry,
    // and the retry must draw the same bits.
    Rng rng = workload_->rng;
    workload_->traces =
        data::generate_workload(config_.num_edges, workload_config, rng);
  });
  return workload_->traces;
}

double Environment::switching_cost(std::size_t edge) const {
  assert(edge < topology_.download_delay.size());
  return topology_.download_delay[edge] * config_.switching_weight;
}

double Environment::computation_cost(std::size_t edge,
                                     std::size_t model) const {
  assert(edge < comp_cost_.size() && model < comp_cost_[edge].size());
  return comp_cost_[edge][model];
}

double Environment::transfer_energy(std::size_t edge,
                                    std::size_t model) const {
  assert(edge < topology_.transfer_energy_kwh_per_mb.size());
  assert(model < models_.size());
  return topology_.transfer_energy_kwh_per_mb[edge] * models_[model].size_mb;
}

std::size_t Environment::best_model(std::size_t edge) const {
  std::size_t best = 0;
  double best_value = models_[0].profile.mean_loss() +
                      computation_cost(edge, 0);
  for (std::size_t n = 1; n < models_.size(); ++n) {
    const double value =
        models_[n].profile.mean_loss() + computation_cost(edge, n);
    if (value < best_value) {
      best_value = value;
      best = n;
    }
  }
  return best;
}

void Environment::replace_traces(data::WorkloadTraces workload,
                                 data::PriceSeries prices) {
  if (!workload.empty()) {
    if (workload.size() != config_.num_edges) {
      throw std::invalid_argument(
          "replace_traces: expected " + std::to_string(config_.num_edges) +
          " edge traces, got " + std::to_string(workload.size()));
    }
    for (std::size_t i = 0; i < workload.size(); ++i) {
      const auto& trace = workload[i];
      if (trace.size() < config_.horizon) {
        throw std::invalid_argument(
            "replace_traces: trace shorter than the horizon (" +
            std::to_string(trace.size()) + " < " +
            std::to_string(config_.horizon) + ")");
      }
      const auto negative = std::find_if(trace.begin(), trace.end(),
                                         [](int count) { return count < 0; });
      if (negative != trace.end()) {
        throw std::invalid_argument(
            "replace_traces: negative count " + std::to_string(*negative) +
            " on edge " + std::to_string(i) + ", slot " +
            std::to_string(negative - trace.begin()));
      }
    }
    // Mark the trace generated without generating it, then install ours.
    std::call_once(workload_->generated, [] {});
    workload_->traces = std::move(workload);
  }
  if (!prices.buy.empty()) {
    if (prices.buy.size() < config_.horizon ||
        prices.sell.size() < config_.horizon) {
      throw std::invalid_argument(
          "replace_traces: price series shorter than the horizon");
    }
    prices_ = std::move(prices);
  }
}

std::size_t Environment::shift_target(std::size_t model) const {
  assert(model < models_.size());
  std::vector<std::size_t> by_loss(models_.size());
  std::iota(by_loss.begin(), by_loss.end(), 0);
  std::sort(by_loss.begin(), by_loss.end(), [&](std::size_t a, std::size_t b) {
    return models_[a].profile.mean_loss() < models_[b].profile.mean_loss();
  });
  std::vector<std::size_t> position(models_.size());
  for (std::size_t rank = 0; rank < by_loss.size(); ++rank)
    position[by_loss[rank]] = rank;
  return by_loss[models_.size() - 1 - position[model]];
}

double Environment::suboptimality_gap(std::size_t edge,
                                      std::size_t model) const {
  const std::size_t star = best_model(edge);
  const double best_value =
      models_[star].profile.mean_loss() + computation_cost(edge, star);
  return models_[model].profile.mean_loss() +
         computation_cost(edge, model) - best_value;
}

}  // namespace cea::sim
