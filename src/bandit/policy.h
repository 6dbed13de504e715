#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "util/rng.h"

namespace cea::util {
class StateWriter;
class StateReader;
}  // namespace cea::util

namespace cea::bandit {

/// Static, per-edge information a model-selection policy may use.
///
/// `switching_cost` is u_i (download delay of a model change) and
/// `energy_per_sample[n]` is phi_n; the Greedy baseline selects by energy,
/// the paper's Algorithm 1 sizes its blocks from u_i.
struct PolicyContext {
  std::size_t num_models = 0;
  double switching_cost = 1.0;
  std::vector<double> energy_per_sample;
  std::uint64_t seed = 1;
  std::size_t horizon = 0;  ///< T, if known (0 = unknown/anytime)
  std::size_t edge = 0;     ///< index of the edge this policy serves
};

/// Online model-selection policy for a single edge (the "arms" are models).
///
/// Per time slot the simulator calls select() to obtain the model to host,
/// then feedback() with the realized bandit loss for the *selected* arm,
/// which per the paper's Insight 2 is L_{i,n}^t + v_{i,n} (average inference
/// loss over the slot's samples plus the observed computation cost).
class ModelSelectionPolicy {
 public:
  virtual ~ModelSelectionPolicy() = default;

  /// Model to host at time slot t (0-based). Must be < num_models.
  virtual std::size_t select(std::size_t t) = 0;

  /// Bandit feedback for slot t on the arm that select(t) returned.
  virtual void feedback(std::size_t t, std::size_t arm, double loss) = 0;

  virtual std::string name() const = 0;

  /// Checkpoint support (util/state_io.h): serialize the policy's full
  /// mutable state such that load_state() on a freshly constructed policy
  /// (same PolicyContext) continues bit-identically. Both return false when
  /// the policy does not implement checkpointing (the default), in which
  /// case the writer/reader must not have been touched.
  virtual bool save_state(util::StateWriter& writer) const {
    (void)writer;
    return false;
  }
  virtual bool load_state(util::StateReader& reader) {
    (void)reader;
    return false;
  }
};

/// Factory so experiments can instantiate one policy per edge.
using PolicyFactory =
    std::function<std::unique_ptr<ModelSelectionPolicy>(const PolicyContext&)>;

/// One pending Tsallis-INF OMD solve, described by the arguments the
/// policy would pass to tsallis_probabilities_into. The span aliases
/// policy-owned storage and stays valid until the policy is next mutated.
struct TsallisSolveRequest {
  std::span<const double> cumulative_losses;
  double eta = 0.0;
  double scaled_lambda_warm = 0.0;
};

/// Opt-in side interface for policies whose next select(t) may run a
/// Tsallis-INF OMD solve that is already fully determined at the start of
/// the slot — i.e. before any edge's select/feedback of that slot runs.
/// The simulator probes every policy for this interface and, in a serial
/// engine (SimOptions::pool == nullptr), gathers all pending solves into
/// one TsallisBatchSolver call (SIMD lanes across edges) before the edge
/// loop; a pooled engine never calls it, and each policy solves inside its
/// shard. The batch solver is bit-identical to the scalar path, so a
/// policy sees exactly the probabilities and warm-start it would have
/// computed itself.
///
/// Only implement this when the solve's inputs are frozen at slot start:
/// per-edge state written by the edge's own feedback qualifies; state
/// shared across edges and mutated mid-slot (the pooled-learning
/// extension's table) does not.
class TsallisBatchSolvable {
 public:
  virtual ~TsallisBatchSolvable() = default;

  /// If the next select() will solve an OMD step, describe it and return
  /// true; return false when no solve is due (mid-block slots).
  virtual bool next_solve(TsallisSolveRequest& out) = 0;

  /// Deliver the batch solver's result for the request next_solve
  /// described: the normalized probabilities and the refreshed scaled
  /// root eta*lambda. The next select() must consume these instead of
  /// re-solving.
  virtual void accept_presolve(std::span<const double> probabilities,
                               double scaled_lambda_warm) = 0;
};

/// Tracks per-arm empirical means; shared by several baselines.
class ArmStats {
 public:
  explicit ArmStats(std::size_t num_arms)
      : counts_(num_arms, 0), sums_(num_arms, 0.0) {}

  void observe(std::size_t arm, double loss) noexcept {
    ++counts_[arm];
    sums_[arm] += loss;
  }

  std::size_t count(std::size_t arm) const noexcept { return counts_[arm]; }
  double mean(std::size_t arm) const noexcept {
    return counts_[arm] > 0
               ? sums_[arm] / static_cast<double>(counts_[arm])
               : 0.0;
  }
  std::size_t total_count() const noexcept {
    std::size_t total = 0;
    for (auto c : counts_) total += c;
    return total;
  }
  std::size_t num_arms() const noexcept { return counts_.size(); }

  /// Arm with the lowest empirical mean among arms played at least once;
  /// unplayed arms are preferred (returned first, lowest index).
  std::size_t best_arm() const noexcept;

  /// Checkpoint the counts/sums tables (keys "armstats.counts"/".sums").
  void save_state(util::StateWriter& writer) const;
  void load_state(util::StateReader& reader);

 private:
  std::vector<std::size_t> counts_;
  std::vector<double> sums_;
};

}  // namespace cea::bandit
