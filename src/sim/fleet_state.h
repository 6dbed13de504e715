#pragma once

// Structure-of-arrays hot state of one simulation run, arena-backed.
//
// The slot loop touches, for every edge, a handful of scalars: the hoisted
// environment invariants (per-model energy/mean-loss, per-edge switching
// and computation costs), the previous hosted model, and the slot's
// per-edge partial contributions. The slot's workload counts are not here:
// the engine's caller passes them in with each slot. Before this layer those
// lived in a std::vector<EdgePartial> (AoS) plus one std::vector per
// quantity, each a separate heap block. Here every hot array is carved out
// of a single util::Arena reserved once per run — one allocation for the
// whole run, arrays laid out back to back, and an overflow_count() of zero
// certifying that the slot path performs no hidden heap allocation.
//
// Split rationale (hot/cold): what the slot loop reads or writes every
// slot lives here as a flat array; everything touched rarely — model
// names, SimConfig, topology, diagnostics — stays in Environment (cold)
// and is never dereferenced inside the edge fan-out.
//
// One-writer contract: the per-slot partial arrays (part_*) are written
// only by the shard that owns the edge index; the serial reduction reads
// them after the fan-out's completion barrier.

#include <cstdint>
#include <vector>

#include "data/loss_profile.h"
#include "util/arena.h"

namespace cea::sim {

class Environment;

class FleetState {
 public:
  /// Builds every hot array from `env` in one arena reservation. The
  /// environment must outlive this object (the profile pointers alias it).
  explicit FleetState(const Environment& env);

  FleetState(const FleetState&) = delete;
  FleetState& operator=(const FleetState&) = delete;

  /// Reset the run-scoped mutable state (previous model sentinel). The
  /// partial arrays need no reset — every slot overwrites them in full.
  void reset_run() noexcept;

  std::size_t num_edges() const noexcept { return num_edges_; }
  std::size_t num_models() const noexcept { return num_models_; }

  // Hoisted slot invariants (read-only during a run).
  const double* energy_per_sample() const noexcept { return energy_per_sample_; }
  const double* mean_loss() const noexcept { return mean_loss_; }
  const data::LossProfile* const* profiles() const noexcept { return profiles_; }
  const std::uint32_t* shift_target() const noexcept { return shift_target_; }
  const double* edge_switch_cost() const noexcept { return edge_switch_cost_; }
  /// [edge * num_models + model] slabs.
  const double* comp_cost() const noexcept { return comp_cost_; }
  const double* transfer_energy() const noexcept { return transfer_energy_; }

  // Mutable per-edge hot state.
  static constexpr std::uint32_t kNoModel = ~std::uint32_t{0};
  std::uint32_t* previous_model() noexcept { return previous_model_; }
  const std::uint32_t* previous_model() const noexcept {
    return previous_model_;
  }

  // Per-slot partial contributions, SoA (one writer per edge).
  double* part_inference() noexcept { return part_inference_; }
  double* part_switch_cost() noexcept { return part_switch_cost_; }
  double* part_energy() noexcept { return part_energy_; }
  double* part_correct() noexcept { return part_correct_; }
  double* part_samples() noexcept { return part_samples_; }
  std::uint32_t* part_model() noexcept { return part_model_; }
  std::uint8_t* part_switched() noexcept { return part_switched_; }

  /// Per-slot transient scratch: reset every slot, reserved once here.
  /// Used for the presolve edge list and any other slot-lifetime arrays.
  util::Arena& slot_arena() noexcept { return slot_arena_; }

  /// Heap allocations that escaped either arena's reservation since
  /// construction. Zero after any number of slots means the slot path is
  /// allocation-free in steady state (bench/perf_fleet gates on this).
  std::size_t arena_overflows() const noexcept {
    return state_arena_.overflow_count() + slot_arena_.overflow_count();
  }

 private:
  template <typename T>
  T* carve(std::size_t count) {
    return state_arena_.alloc_array<T>(count);
  }

  std::size_t num_edges_ = 0;
  std::size_t num_models_ = 0;

  util::Arena state_arena_;  ///< run-lifetime arrays, reserved once
  util::Arena slot_arena_;   ///< slot-lifetime scratch, reset per slot

  double* energy_per_sample_ = nullptr;
  double* mean_loss_ = nullptr;
  const data::LossProfile** profiles_ = nullptr;
  std::uint32_t* shift_target_ = nullptr;
  double* edge_switch_cost_ = nullptr;
  double* comp_cost_ = nullptr;
  double* transfer_energy_ = nullptr;
  std::uint32_t* previous_model_ = nullptr;
  double* part_inference_ = nullptr;
  double* part_switch_cost_ = nullptr;
  double* part_energy_ = nullptr;
  double* part_correct_ = nullptr;
  double* part_samples_ = nullptr;
  std::uint32_t* part_model_ = nullptr;
  std::uint8_t* part_switched_ = nullptr;
};

}  // namespace cea::sim
