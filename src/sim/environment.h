#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "data/carbon_market.h"
#include "data/loss_profile.h"
#include "data/topology.h"
#include "data/workload.h"
#include "sim/config.h"
#include "util/rng.h"

namespace cea::sim {

/// One deployable model as the simulator sees it.
struct ModelInfo {
  std::string name;
  double size_mb = 1.0;            ///< W_n
  double energy_per_sample = 8e-8; ///< phi_n, kWh
  data::LossProfile profile;       ///< empirical l_n distribution + accuracy
};

/// A fully instantiated scenario: models, edges, traces, and prices. All
/// randomness is drawn from SimConfig::seed, so an Environment is a pure
/// function of its config (plus optional externally trained profiles).
///
/// Construction costs O(E·N + horizon): the [E x horizon] workload trace is
/// generated on the first workload() call, from the stream split off at
/// construction, so an environment that only serves streamed counts (a
/// serve::ServeController tenant) never builds it, and a batch run reads the
/// same bits it always did.
class Environment {
 public:
  /// Build with parametric loss profiles (no neural networks): the six
  /// models get spread-out mean losses and sizes, with per-sample energy
  /// increasing in model size and loss *mostly* decreasing in it — so the
  /// energy-greedy baseline and the loss-optimal choice disagree, as in the
  /// paper's Fig. 8 discussion.
  static Environment make_parametric(const SimConfig& config);

  /// Build from externally profiled models (the NN-backed experiments of
  /// Figs. 12-13). `profiles` supplies l_n tables, accuracy, and sizes;
  /// energy is interpolated over [energy_min, energy_max] by size rank.
  static Environment from_profiles(const SimConfig& config,
                                   std::vector<data::LossProfile> profiles);

  /// Same, with an explicit per-sample energy (kWh) per model — used when
  /// energies are not a function of float size, e.g. quantized variants
  /// whose integer arithmetic is several times cheaper per MAC.
  static Environment from_profiles(const SimConfig& config,
                                   std::vector<data::LossProfile> profiles,
                                   std::vector<double> energies_kwh);

  const SimConfig& config() const noexcept { return config_; }
  const std::vector<ModelInfo>& models() const noexcept { return models_; }
  const data::Topology& topology() const noexcept { return topology_; }
  /// The [edge][slot] arrival counts M_i^t over the horizon. The first
  /// call generates them (O(E x horizon) time and memory; may throw
  /// std::bad_alloc); concurrent first callers block on that one generation
  /// and all get the same object.
  const data::WorkloadTraces& workload() const;
  const data::PriceSeries& prices() const noexcept { return prices_; }
  /// Price per uncovered allowance unit at the end of the horizon
  /// (SimConfig::settlement_penalty_multiplier x the final buying price).
  double settlement_price() const noexcept {
    return config_.settlement_penalty_multiplier * prices_.buy.back();
  }

  std::size_t num_edges() const noexcept { return config_.num_edges; }
  std::size_t num_models() const noexcept { return models_.size(); }
  std::size_t horizon() const noexcept { return config_.horizon; }

  /// u_i: model-download cost of edge i (already switching_weight-scaled).
  double switching_cost(std::size_t edge) const;

  /// v_{i,n}: computation cost of model n on edge i (posterior in the
  /// formulation; the simulator reveals it only through bandit feedback).
  double computation_cost(std::size_t edge, std::size_t model) const;

  /// F_{i,n} = theta_i * W_n: energy to download model n to edge i (kWh).
  double transfer_energy(std::size_t edge, std::size_t model) const;

  /// The model minimizing E[l_n] + v_{i,n} on edge i — the "single best
  /// model at hindsight" n_i* of Theorem 1 and the Offline reference.
  std::size_t best_model(std::size_t edge) const;

  /// Suboptimality gap Delta_{i,n} of Theorem 1.
  double suboptimality_gap(std::size_t edge, std::size_t model) const;

  /// Replace the generated workload traces and/or price series with
  /// external data (e.g. loaded through data/trace_io.h). Pass an empty
  /// container to keep the generated one. Throws std::invalid_argument on
  /// dimension mismatch (traces must be num_edges x horizon; prices must
  /// cover the horizon) or a negative count (zero is a valid outage slot).
  /// Not safe to call concurrently with workload().
  void replace_traces(data::WorkloadTraces workload, data::PriceSeries prices);

  /// Concept-drift target (SimConfig::loss_shift_slot): the model whose
  /// loss rank mirrors n's — the best-loss model maps to the worst and
  /// vice versa, so a converged policy is maximally punished by the shift.
  std::size_t shift_target(std::size_t model) const;

 private:
  Environment() = default;
  void finish_build(const SimConfig& config, Rng& rng);

  /// The workload trace and the stream it is drawn from, generated once by
  /// workload(). Heap-held so Environment stays movable (std::once_flag
  /// cannot move).
  struct LazyWorkload {
    explicit LazyWorkload(Rng stream) : rng(stream) {}
    std::once_flag generated;
    Rng rng;
    data::WorkloadTraces traces;
  };

  SimConfig config_;
  std::vector<ModelInfo> models_;
  data::Topology topology_;
  std::unique_ptr<LazyWorkload> workload_;
  data::PriceSeries prices_;
  std::vector<std::vector<double>> comp_cost_;  // [edge][model]
};

}  // namespace cea::sim
