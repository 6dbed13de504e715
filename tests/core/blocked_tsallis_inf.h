#pragma once

// Test oracle for Algorithm 1: the paper's per-edge blocked Tsallis-INF
// learner written the plain way, one object per edge with its own heap
// vectors. Production runs the SoA fleet (core/blocked_tsallis_fleet.h,
// which documents the algorithm); this class is the independent
// reference the fleet's lockstep bit-identity tests
// (test_blocked_tsallis_fleet.cpp) and the behavioural tests
// (test_blocked_tsallis.cpp) run against.

#include <vector>

#include "bandit/policy.h"
#include "core/block_schedule.h"

namespace cea::core {

/// One edge's Algorithm 1 learner (see the fleet header for the
/// algorithm and Theorem 1).
class BlockedTsallisInfPolicy final : public bandit::ModelSelectionPolicy,
                                      public bandit::TsallisBatchSolvable {
 public:
  explicit BlockedTsallisInfPolicy(const bandit::PolicyContext& context);

  /// Extension: discounted estimates for non-stationary streams. Every
  /// finished block first decays the whole cumulative table by `discount`
  /// (1.0 = the paper's Algorithm 1).
  BlockedTsallisInfPolicy(const bandit::PolicyContext& context,
                          double discount);

  std::size_t select(std::size_t t) override;
  void feedback(std::size_t t, std::size_t arm, double loss) override;
  std::string name() const override { return "BlockedTsallisINF"; }

  /// Cross-edge batch solving (bandit::TsallisBatchSolvable): a solve is
  /// due exactly when the previous block is closed and exhausted, and its
  /// inputs (Chat table, learning rate of block k, warm root) are frozen
  /// by the edge's own last feedback — so the simulator may solve it
  /// before the slot's edge fan-out.
  bool next_solve(bandit::TsallisSolveRequest& out) override;
  void accept_presolve(std::span<const double> probabilities,
                       double scaled_lambda_warm) override;

  /// Checkpointing: the full block-learning state (Chat table, current
  /// distribution, block cursor, warm root, RNG). solver_scratch_ is
  /// transient and excluded.
  bool save_state(util::StateWriter& writer) const override;
  bool load_state(util::StateReader& reader) override;

  static bandit::PolicyFactory factory();

  /// Factory for the discounted variant (discount in (0, 1]).
  static bandit::PolicyFactory discounted_factory(double discount);

  /// Introspection for the tests.
  std::size_t completed_blocks() const noexcept { return block_index_; }
  const std::vector<double>& cumulative_loss_estimates() const noexcept {
    return cumulative_losses_;
  }
  const std::vector<double>& current_probabilities() const noexcept {
    return probabilities_;
  }
  const BlockSchedule& schedule() const noexcept { return schedule_; }

 private:
  void start_block();
  void finish_block();

  BlockSchedule schedule_;
  double discount_ = 1.0;
  std::size_t edge_ = 0;  ///< owning edge, for audit-violation context
  Rng rng_;
  std::vector<double> cumulative_losses_;  // Chat_{i,k}(n)
  std::vector<double> probabilities_;      // p_{i,k,n}
  std::vector<double> solver_scratch_;     // reused across block solves
  double solver_warm_ = 0.0;               // scaled root of the last solve
  bool presolved_ = false;                 // probabilities_ already solved
  std::size_t block_index_ = 0;            // completed blocks (k-1)
  std::size_t current_arm_ = 0;            // J_{i,k}
  std::size_t slots_left_ = 0;             // remaining slots in the block
  double block_loss_ = 0.0;                // c_{i,k,J} accumulator
  bool block_open_ = false;
};

}  // namespace cea::core
