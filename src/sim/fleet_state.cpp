#include "sim/fleet_state.h"

#include "sim/environment.h"

namespace cea::sim {

namespace {

/// Worst-case arena footprint of a `count`-element T slab, including the
/// alignment slack the bump pointer may skip before it.
template <typename T>
constexpr std::size_t slab_bytes(std::size_t count) {
  return count * sizeof(T) + alignof(T);
}

}  // namespace

FleetState::FleetState(const Environment& env)
    : num_edges_(env.num_edges()), num_models_(env.num_models()) {
  const std::size_t E = num_edges_;
  const std::size_t N = num_models_;

  // Size the run arena for every slab it will ever hold, then reserve once:
  // a single heap allocation per run regardless of fleet size, and
  // overflow_count() == 0 certifies the estimate held.
  std::size_t bytes = 0;
  bytes += slab_bytes<double>(N) * 2;                    // energy, mean loss
  bytes += slab_bytes<const data::LossProfile*>(N);      // profile pointers
  bytes += slab_bytes<std::uint32_t>(N);                 // shift targets
  bytes += slab_bytes<double>(E);                        // switch costs
  bytes += slab_bytes<double>(E * N) * 2;                // comp, transfer
  bytes += slab_bytes<std::uint32_t>(E);                 // previous model
  bytes += slab_bytes<double>(E) * 5;                    // partial doubles
  bytes += slab_bytes<std::uint32_t>(E);                 // partial model
  bytes += slab_bytes<std::uint8_t>(E);                  // partial switched
  state_arena_.reserve(bytes);

  energy_per_sample_ = carve<double>(N);
  mean_loss_ = carve<double>(N);
  profiles_ = carve<const data::LossProfile*>(N);
  shift_target_ = carve<std::uint32_t>(N);
  edge_switch_cost_ = carve<double>(E);
  comp_cost_ = carve<double>(E * N);
  transfer_energy_ = carve<double>(E * N);
  previous_model_ = carve<std::uint32_t>(E);
  part_inference_ = carve<double>(E);
  part_switch_cost_ = carve<double>(E);
  part_energy_ = carve<double>(E);
  part_correct_ = carve<double>(E);
  part_samples_ = carve<double>(E);
  part_model_ = carve<std::uint32_t>(E);
  part_switched_ = carve<std::uint8_t>(E);

  for (std::size_t n = 0; n < N; ++n) {
    energy_per_sample_[n] = env.models()[n].energy_per_sample;
    mean_loss_[n] = env.models()[n].profile.mean_loss();
    profiles_[n] = &env.models()[n].profile;
    shift_target_[n] = static_cast<std::uint32_t>(env.shift_target(n));
  }
  for (std::size_t i = 0; i < E; ++i) {
    edge_switch_cost_[i] = env.switching_cost(i);
    for (std::size_t n = 0; n < N; ++n) {
      comp_cost_[i * N + n] = env.computation_cost(i, n);
      transfer_energy_[i * N + n] = env.transfer_energy(i, n);
    }
  }

  // Slot-transient scratch. Current tenant: the presolve edge list (one
  // uint32 per edge, worst case all edges pending a solve).
  slot_arena_.reserve(slab_bytes<std::uint32_t>(E));

  reset_run();
}

void FleetState::reset_run() noexcept {
  for (std::size_t i = 0; i < num_edges_; ++i) previous_model_[i] = kNoModel;
}

}  // namespace cea::sim
