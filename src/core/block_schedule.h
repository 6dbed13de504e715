#pragma once

#include <cstddef>
#include <vector>

namespace cea::core {

/// Block lengths and learning rates of Algorithm 1 as prescribed by
/// Theorem 1:
///
///   d_{i,k}    = (3 u_i / 2) * sqrt(k / N)
///   |B_{i,k}|  = max(ceil(d_{i,k}), 1)
///   eta_{i,k}  = (2 / (d_{i,k} + 1)) * sqrt(2 / k)
///
/// Growing blocks cap the number of switches on edge i by
/// K_i <= N^{1/3} (T / u_i)^{2/3} + 1 while keeping the regret bound of
/// Theorem 1. `switching_weight` scales u_i, the knob swept by Fig. 5 —
/// heavier switching cost yields longer blocks and fewer switches.
class BlockSchedule {
 public:
  /// u_i must be > 0 (a zero switching cost degenerates to per-slot play;
  /// we clamp to a small positive value to stay well-defined).
  BlockSchedule(double switching_cost, std::size_t num_models);

  /// d_{i,k} for 1-based block index k.
  double block_real_length(std::size_t k) const noexcept;

  /// |B_{i,k}| (>= 1) for 1-based block index k.
  std::size_t block_length(std::size_t k) const noexcept;

  /// eta_{i,k} for 1-based block index k.
  double learning_rate(std::size_t k) const noexcept;

  /// Number of blocks needed to cover a horizon of T slots (K_i); the last
  /// block is truncated by the caller.
  std::size_t blocks_for_horizon(std::size_t horizon) const noexcept;

  /// Theoretical upper bound N^{1/3} (T/u)^{2/3} + 1 from the proof of
  /// Theorem 1 (used by tests to check blocks_for_horizon() <= bound).
  double block_count_bound(std::size_t horizon) const noexcept;

  double switching_cost() const noexcept { return switching_cost_; }
  std::size_t num_models() const noexcept { return num_models_; }

 private:
  double switching_cost_;
  std::size_t num_models_;
};

/// Block-schedule telemetry of Algorithm 1 (BlockedTsallisFleetPolicy and
/// its per-edge test oracle), called once per started block: under
/// obs::detail_enabled() it counts the block
/// (`bandit.blocks`) and records its length |B_{i,k}|
/// (`bandit.block_length`). Observational only.
void record_block_start(std::size_t block_length);

}  // namespace cea::core
