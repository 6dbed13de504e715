#pragma once

#include <cstdint>
#include <string>

#include "bandit/fleet_policy.h"
#include "sim/environment.h"
#include "sim/metrics.h"
#include "trading/trader.h"
#include "util/thread_pool.h"

namespace cea::sim {

/// Execution options of a Simulator. The default is the serial engine;
/// large fleets opt into per-edge parallelism.
struct SimOptions {
  /// When set, the per-edge work of every slot is fanned out over this
  /// pool. Results are bit-identical to pool == nullptr for any thread
  /// count: loss draws are keyed by (run_seed, edge, t) and per-edge
  /// partials are reduced serially in edge order. Requires policies whose
  /// per-edge state is independent (true of all built-in policies except
  /// the pooled-learning extension, which shares state across edges and
  /// must run serially).
  ///
  /// The pool also decides where the Tsallis-INF OMD solves run. A serial
  /// engine (pool == nullptr) gathers each slot's pending solves across
  /// all edges into one SIMD TsallisBatchSolver call before the edge loop
  /// (SlotEngine::begin_slot); a pooled engine solves each edge inside its
  /// shard, where a serial presolve phase would only hold the workers
  /// back. Both paths reproduce the scalar oracle bit for bit (see
  /// opt/tsallis_batch.h), so the choice never changes a result.
  util::ThreadPool* pool = nullptr;

  /// Edges per shard of the pooled fan-out (0 = auto). Each shard is a
  /// contiguous [begin, end) range claimed with ONE atomic operation and
  /// written by exactly one worker — at 10k edges x 160 slots the
  /// per-index claim of a plain parallel_for would be 1.6M atomic RMWs per
  /// run. Purely a scheduling knob: results are bit-identical for every
  /// grain (the reduction stays serial in edge order).
  std::size_t edge_shard_grain = 0;
};

/// Drives the per-slot workflow of Fig. 2 over a scenario: per edge select
/// and (maybe) download a model, stream the slot's M_i^t samples through
/// it, feed the bandit loss back, account energy/emissions, and execute the
/// trading decision.
///
/// The simulator charges the objective (1) with the model's *expected* loss
/// (profile mean) while the policies only ever observe sampled losses —
/// mirroring the paper, where the objective is an expectation but feedback
/// is a sample.
///
/// Engine: all per-edge hot state (hoisted environment invariants, hosted
/// model, per-slot partials) lives in an arena-backed structure-of-arrays
/// FleetState reserved once per run, and model selection goes through a
/// single bandit::FleetPolicy — an SoA-native fleet such as Algorithm 1's
/// core::BlockedTsallisFleetPolicy, or per-edge policy instances behind
/// bandit::PerEdgeFleetAdapter (bandit::adapt_per_edge), or fixed
/// per-edge choices behind bandit::fixed_policy.
/// Loss sampling is batched (LossProfile::draw_batch_keyed) with one RNG
/// stream per (edge, slot) derived from the run seed, so sampling is a
/// pure function of (run_seed, edge, t) and the pooled edge-sharded mode
/// (SimOptions::pool) is bit-identical to the serial one. The slot loop
/// itself is sim::SlotEngine; a run feeds it each slot's price quote and
/// workload column from the environment's traces, exactly as the serving
/// daemon feeds it a feed's.
class Simulator {
 public:
  explicit Simulator(const Environment& environment, SimOptions options = {})
      : env_(environment), options_(options) {}

  /// Run one full horizon with a fresh fleet policy. `run_seed` controls
  /// the run's stochasticity (policy sampling and loss draws)
  /// independently of the environment seed.
  RunResult run(const bandit::FleetPolicyFactory& policy_factory,
                const trading::TraderFactory& trader_factory,
                std::uint64_t run_seed, std::string algorithm_name) const;

  /// Build the TraderContext the trading policies receive.
  trading::TraderContext trader_context(std::uint64_t run_seed) const;

  /// Build the FleetPolicyContext for the whole fleet. Per-edge seeds are
  /// derived from run_seed via bandit::policy_stream_seed.
  bandit::FleetPolicyContext fleet_policy_context(
      std::uint64_t run_seed) const;

 private:
  const Environment& env_;
  SimOptions options_;
};

}  // namespace cea::sim
