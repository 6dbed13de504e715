#pragma once

// Algorithm 1 of the paper: Online Model Selection via switching-aware
// blocked Tsallis-INF bandit learning, one learner per edge.
//
// The horizon is divided into blocks of growing length |B_{i,k}| (see
// BlockSchedule); a model J_{i,k} is sampled once per block from the
// online-mirror-descent distribution
//   p_{i,k} = argmin_p { <p, Chat_{k-1}> - sum_n (4 sqrt(p_n) - 2 p_n)/eta_{i,k} }
// and held for the whole block, so switches happen only at block
// boundaries (Insight 1). At each slot the realized bandit loss
// L_{i,J}^t + v_{i,J} accumulates into the block loss c_{i,k,J} (Insight 2:
// the per-slot average loss is an unbiased sample of l'_{i,n} regardless of
// the random arrival count M_i). At block end the importance-weighted
// estimate chat_{i,k,n} = 1{J=n} c_{i,k,n} / p_{i,k,n} updates Chat.
//
// Theorem 1: regret plus cumulative switching cost is
// O((u_i N)^{2/3} T^{1/3} + u_i^2 + ln T) * sum_{n != n*} 1/Delta_{i,n}.
//
// Layout: every edge's learner state (Chat table, probabilities, block
// cursor, block-loss accumulator, warm root, RNG) lives in flat arrays
// indexed by edge, behind the bandit::FleetPolicy interface — one object
// for the whole fleet, so at 10k edges the hot scalars of neighbouring
// edges share cache lines instead of living in 10k heap objects.
//
// Bit-identity contract (tests/core/test_blocked_tsallis_fleet.cpp): for
// every edge and slot, select()/feedback()/next_solve()/accept_presolve()
// reproduce — bit for bit — the per-edge test oracle
// (tests/core/blocked_tsallis_inf.h) seeded with
// bandit::policy_stream_seed(run_seed, edge). The golden traces pin the
// fleet itself through the simulator.

#include <cstdint>
#include <span>
#include <vector>

#include "bandit/fleet_policy.h"
#include "core/block_schedule.h"
#include "util/rng.h"

namespace cea::core {

class BlockedTsallisFleetPolicy final : public bandit::FleetPolicy {
 public:
  /// `discount` < 1 is the extension for non-stationary streams: every
  /// finished block first decays the edge's whole Chat table by it
  /// (1.0 = the paper's Algorithm 1), so older evidence fades and the
  /// learner tracks concept drift at the cost of slightly looser
  /// stationary-case regret; compared in bench/ext_nonstationary.
  explicit BlockedTsallisFleetPolicy(const bandit::FleetPolicyContext& context,
                                     double discount = 1.0);

  std::size_t num_edges() const noexcept override { return num_edges_; }
  std::size_t select(std::size_t edge, std::size_t t) override;
  void feedback(std::size_t edge, std::size_t t, std::size_t arm,
                double loss) override;
  bool next_solve(std::size_t edge,
                  bandit::TsallisSolveRequest& out) override;
  void accept_presolve(std::size_t edge,
                       std::span<const double> probabilities,
                       double scaled_lambda_warm) override;
  bool supports_batch_solve() const noexcept override { return true; }
  std::string name() const override { return "BlockedTsallisINF"; }

  /// Checkpointing: every SoA slab plus each edge's RNG, bit-exact. The
  /// loader range-checks every cursor field and flag before narrowing it.
  bool save_state(util::StateWriter& writer) const override;
  bool load_state(util::StateReader& reader) override;

  static bandit::FleetPolicyFactory factory();
  static bandit::FleetPolicyFactory discounted_factory(double discount);

  /// Introspection for the tests.
  std::span<const double> cumulative_losses(std::size_t edge) const {
    return {cumulative_losses_.data() + edge * num_models_, num_models_};
  }
  std::span<const double> probabilities(std::size_t edge) const {
    return {probabilities_.data() + edge * num_models_, num_models_};
  }
  std::size_t completed_blocks(std::size_t edge) const noexcept {
    return block_index_[edge];
  }

 private:
  void start_block(std::size_t edge);
  void finish_block(std::size_t edge);

  std::size_t num_edges_ = 0;
  std::size_t num_models_ = 0;
  double discount_ = 1.0;

  // Hot per-edge state, SoA; the slabs are indexed [edge * num_models_].
  std::vector<BlockSchedule> schedule_;
  std::vector<Rng> rng_;
  std::vector<double> cumulative_losses_;  ///< Chat slab [E x N]
  std::vector<double> probabilities_;      ///< p slab [E x N]
  std::vector<double> solver_warm_;        ///< scaled root per edge
  std::vector<double> block_loss_;         ///< c_{i,k,J} accumulator
  std::vector<std::uint32_t> block_index_; ///< completed blocks (k-1)
  std::vector<std::uint32_t> current_arm_; ///< J_{i,k}
  std::vector<std::uint32_t> slots_left_;  ///< remaining slots in block
  std::vector<std::uint8_t> block_open_;
  std::vector<std::uint8_t> presolved_;
};

}  // namespace cea::core
