#pragma once

// Fleet-wide model-selection policies: one object serving every edge
// through (edge, t)-indexed calls instead of one heap-allocated
// ModelSelectionPolicy per edge. This is what lets a 10k-edge simulation
// keep its hot per-edge state in structure-of-arrays storage (see
// core/blocked_tsallis_fleet.h) rather than chasing 10k object pointers
// per slot — and what lets the simulator hand contiguous edge shards to
// the thread pool under the one-writer-per-shard contract.
//
// Concurrency contract: select()/feedback() for *different* edges may run
// concurrently (each edge's state is written only by the shard that owns
// it); calls for the same edge are always sequenced by the simulator.
// next_solve()/accept_presolve() run only in a serial engine, before its
// edge loop; a pooled engine leaves every solve to select().

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bandit/policy.h"

namespace cea::bandit {

/// Per-edge policy seed derivation shared by PerEdgeFleetAdapter and every
/// SoA fleet policy, so a fleet implementation reproduces — bit for bit —
/// the randomness of the equivalent per-edge policy instances.
constexpr std::uint64_t policy_stream_seed(std::uint64_t run_seed,
                                           std::size_t edge) noexcept {
  return run_seed * 0x9E3779B97F4A7C15ULL + edge + 1;
}

/// Everything a fleet policy needs to instantiate its per-edge state.
/// Deliberately SoA-shaped: quantities that vary per edge are flat arrays,
/// fleet-wide scalars appear once (a 10k-edge context is two vectors, not
/// 10k PolicyContext objects each owning an energy vector copy).
struct FleetPolicyContext {
  std::size_t num_edges = 0;
  std::size_t num_models = 0;
  std::size_t horizon = 0;            ///< T, if known (0 = unknown/anytime)
  std::uint64_t run_seed = 0;         ///< per-edge seeds via policy_stream_seed
  std::vector<double> energy_per_sample;  ///< phi_n, shared by all edges
  std::vector<double> switching_cost;     ///< u_i per edge
};

/// Model selection for every edge of a fleet behind one virtual interface.
/// Semantically equivalent to num_edges independent ModelSelectionPolicy
/// instances; implementations are free (and expected) to store the
/// per-edge state in structure-of-arrays form.
class FleetPolicy {
 public:
  virtual ~FleetPolicy() = default;

  virtual std::size_t num_edges() const noexcept = 0;

  /// Model edge i hosts at slot t. One-writer contract: concurrent calls
  /// must target distinct edges.
  virtual std::size_t select(std::size_t edge, std::size_t t) = 0;

  /// Bandit feedback for edge i's selected arm at slot t.
  virtual void feedback(std::size_t edge, std::size_t t, std::size_t arm,
                        double loss) = 0;

  /// Cross-edge batch solving (see bandit::TsallisBatchSolvable — same
  /// contract, indexed by edge; serial engines only). Default: no
  /// batchable solves.
  virtual bool next_solve(std::size_t edge, TsallisSolveRequest& out) {
    (void)edge;
    (void)out;
    return false;
  }
  virtual void accept_presolve(std::size_t edge,
                               std::span<const double> probabilities,
                               double scaled_lambda_warm) {
    (void)edge;
    (void)probabilities;
    (void)scaled_lambda_warm;
  }

  /// True when next_solve may ever return true — lets the simulator skip
  /// the per-slot presolve sweep entirely for non-Tsallis policies.
  virtual bool supports_batch_solve() const noexcept { return false; }

  virtual std::string name() const = 0;

  /// Checkpoint support (util/state_io.h): serialize every edge's mutable
  /// state such that load_state() on a freshly constructed fleet (same
  /// FleetPolicyContext) continues bit-identically. Both return false when
  /// unsupported (the default); the writer/reader must then be untouched.
  virtual bool save_state(util::StateWriter& writer) const {
    (void)writer;
    return false;
  }
  virtual bool load_state(util::StateReader& reader) {
    (void)reader;
    return false;
  }
};

using FleetPolicyFactory =
    std::function<std::unique_ptr<FleetPolicy>(const FleetPolicyContext&)>;

/// Adapter running any per-edge PolicyFactory as a FleetPolicy: builds one
/// ModelSelectionPolicy per edge (seeded via policy_stream_seed) and probes
/// each instance once for TsallisBatchSolvable. The per-edge baselines run
/// through it; SoA-native fleets (e.g. core::BlockedTsallisFleetPolicy)
/// implement FleetPolicy directly.
class PerEdgeFleetAdapter final : public FleetPolicy {
 public:
  PerEdgeFleetAdapter(const PolicyFactory& factory,
                      const FleetPolicyContext& context);

  std::size_t num_edges() const noexcept override {
    return policies_.size();
  }
  std::size_t select(std::size_t edge, std::size_t t) override {
    return policies_[edge]->select(t);
  }
  void feedback(std::size_t edge, std::size_t t, std::size_t arm,
                double loss) override {
    policies_[edge]->feedback(t, arm, loss);
  }
  bool next_solve(std::size_t edge, TsallisSolveRequest& out) override {
    return batchable_[edge] != nullptr && batchable_[edge]->next_solve(out);
  }
  void accept_presolve(std::size_t edge, std::span<const double> probabilities,
                       double scaled_lambda_warm) override {
    batchable_[edge]->accept_presolve(probabilities, scaled_lambda_warm);
  }
  bool supports_batch_solve() const noexcept override {
    return any_batchable_;
  }
  std::string name() const override;

  /// Forwards to every wrapped per-edge policy in edge order. Supported
  /// only when ALL wrapped policies support checkpointing — probed on the
  /// first edge before anything is written, so an unsupported fleet leaves
  /// the writer untouched (mixed fleets of partially-checkpointable
  /// policies throw util::StateError mid-write instead).
  bool save_state(util::StateWriter& writer) const override;
  bool load_state(util::StateReader& reader) override;

  /// The wrapped per-edge instance (introspection for tests/benches).
  ModelSelectionPolicy& edge_policy(std::size_t edge) {
    return *policies_[edge];
  }

 private:
  std::vector<std::unique_ptr<ModelSelectionPolicy>> policies_;
  std::vector<TsallisBatchSolvable*> batchable_;
  bool any_batchable_ = false;
};

/// FleetPolicyFactory wrapping a per-edge PolicyFactory in the adapter.
FleetPolicyFactory adapt_per_edge(PolicyFactory factory);

/// Fixed per-edge choices, no learning: edge i hosts model_per_edge[i] in
/// every slot (the Offline reference, the regret comparator). Its name is
/// "fixed"; it is stateless, so its checkpoint section is empty. The
/// initial download at t = 0 pays transfer energy but no switching cost
/// u_i, so a fixed choice never pays u_i at all. The factory throws
/// std::invalid_argument unless there is one model per edge of the
/// context, each below its num_models.
FleetPolicyFactory fixed_policy(std::vector<std::size_t> model_per_edge);

}  // namespace cea::bandit
