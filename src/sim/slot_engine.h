#pragma once

// One slot of the Fig. 2 workflow as an explicit state machine, and the
// only implementation of it: begin_slot(quote) runs the presolve and the
// trading decision; finish_slot(quote, trade, workload) runs the pooled
// edge fan-out, the serial edge-ordered reduction, the ledger update and
// the trader feedback. The caller supplies every input of a slot — the
// price quote and one workload count per edge — so the same arithmetic
// (bit for bit; the golden traces pin it) serves the batch Simulator,
// which feeds the environment's own traces, and the serving daemon
// (src/serve/), which feeds live ones. Between the two calls the caller
// may adjust the decision (ServeController clears it against a shared
// market).
//
// Pure state machine: no file I/O, no clock, no feed knowledge. Model
// choice goes only through the bandit::FleetPolicy the engine owns, and
// everything mutable (policy, trader, draw streams, ledger) is snapshotted
// bit-exactly by save_state()/restore_state() — the checkpoint contract is
// that an engine restored at any slot boundary continues exactly like the
// uninterrupted one (tests/serve/test_checkpoint.cpp). The engine keeps
// decision state only: each slot's outcome leaves it once, as the
// SlotObservation handed to its observer (sim/series_recorder.h records
// the per-slot series), so its checkpoint does not grow with run length.

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "bandit/fleet_policy.h"
#include "obs/journal.h"
#include "opt/tsallis_batch.h"
#include "sim/environment.h"
#include "sim/fleet_state.h"
#include "sim/simulator.h"
#include "trading/trader.h"
#include "util/rng.h"
#include "util/state_io.h"
#include "util/thread_pool.h"

namespace cea::sim {

/// Per-slot decision snapshot handed to an attached SlotObserver at the
/// very end of finish_slot (after the trader feedback, before the cursor
/// advances) — the engine's only per-slot output: it keeps no history, so
/// whoever wants the per-slot series records them (sim::SeriesRecorder,
/// the daemon's decision journal). The decision values are the journal
/// record's (obs::SlotValues); the observation adds the slot and two
/// spans. Every field comes out of the serial edge-ordered reduction, so
/// observers inherit the engine's serial/pooled bit-identity. Both spans
/// alias engine state — copy them if they must outlive the callback.
struct SlotObservation : obs::SlotValues {
  std::size_t slot = 0;  ///< the slot just executed
  /// Edges that selected each model this slot (size = num_models()).
  std::span<const std::uint64_t> model_counts;
  /// The model each edge hosted this slot (size = num_edges()).
  std::span<const std::uint32_t> hosted_models;
};

/// Per-slot decision observer, attached via SlotEngine::set_observer.
/// `tenant` is the index the driver passed to set_observer, so one observer
/// can serve several engines (ServeController::set_observer attaches one
/// to every tenant). Called synchronously on the engine-driving thread at
/// a pool-quiescent point; must not call back into the engine.
/// Observational only: the engine's arithmetic is identical with or
/// without an observer attached. State the observer keeps across slots
/// travels in the serving controller's checkpoint as one opaque record; a
/// stateless observer keeps the defaults.
class SlotObserver {
 public:
  virtual ~SlotObserver() = default;
  virtual void on_tenant_slot(std::size_t tenant,
                              const SlotObservation& observed) = 0;
  /// The observer's state at a slot boundary, in bytes load_state
  /// accepts; empty when it keeps none.
  virtual std::string save_state() const { return {}; }
  /// Resume from bytes save_state() wrote. They are empty when the
  /// checkpoint was written with no observer or a stateless one. Throws
  /// util::StateError on bytes it cannot parse.
  virtual void load_state(std::string_view state) { (void)state; }
};

class SlotEngine {
 public:
  /// The environment must outlive the engine (FleetState aliases its loss
  /// profiles).
  SlotEngine(const Environment& env, const SimOptions& options,
             std::unique_ptr<bandit::FleetPolicy> fleet,
             std::unique_ptr<trading::TradingPolicy> trader,
             std::uint64_t run_seed, std::string algorithm_name);

  SlotEngine(const SlotEngine&) = delete;
  SlotEngine& operator=(const SlotEngine&) = delete;

  /// Next slot to execute (== slots already executed).
  std::size_t slot() const noexcept { return t_; }
  std::size_t num_edges() const noexcept { return num_edges_; }
  std::size_t num_models() const noexcept { return num_models_; }
  /// Allowance balance R + sum(z - w - e) after the slots executed so far.
  double allowance_balance() const noexcept { return allowance_balance_; }
  /// Sum of the slots' emissions e^t, accumulated in slot order.
  double emission_total() const noexcept { return emission_total_; }
  /// Model switches (a hosted model replaced) over the slots so far.
  std::uint64_t total_switches() const noexcept { return total_switches_; }
  /// The trader's dual state after the latest feedback (λ for
  /// Algorithm 2; TradingPolicy::dual_value).
  double trader_dual() const { return trader_->dual_value(); }

  /// First half of a slot: the cross-edge presolve (serial engines only,
  /// see SimOptions::pool) and the trader's decision on `quote`.
  trading::TradeDecision begin_slot(const trading::TradeObservation& quote);

  /// Second half: execute `trade` (after the holdings clamp) with
  /// `workload[i]` samples arriving at edge i — one count per edge — then
  /// reduce, settle the ledger, feed the trader the executed trade and
  /// notify the observer.
  void finish_slot(const trading::TradeObservation& quote,
                   trading::TradeDecision trade,
                   std::span<const int> workload);

  /// Attach (or detach with nullptr) the per-slot decision observer;
  /// `tenant` is handed back on every callback. The observer must outlive
  /// the engine or be detached first.
  void set_observer(SlotObserver* observer, std::size_t tenant) {
    observer_ = observer;
    observer_tenant_ = tenant;
  }

  /// Snapshot the decision state — slot cursor, ledger, emission and
  /// switch totals, hosted models, bandit and trader state — such that
  /// restore_state() on a freshly constructed engine (same environment,
  /// options, factories, run_seed) continues bit-identically. Throws
  /// util::StateError when the policy or trader does not implement
  /// checkpointing.
  void save_state(util::StateWriter& writer) const;
  /// Throws util::StateError on a damaged payload or one written by an
  /// engine with a different shape, horizon, environment fingerprint,
  /// algorithm, policy or trader; the shape, horizon and fingerprint are
  /// checked before any state changes.
  void restore_state(util::StateReader& reader);

 private:
  void run_edge(std::size_t i);
  void presolve();

  const Environment& env_;
  SimOptions options_;
  std::unique_ptr<bandit::FleetPolicy> fleet_;
  std::unique_ptr<trading::TradingPolicy> trader_;

  std::size_t num_edges_ = 0;
  std::size_t num_models_ = 0;
  std::uint64_t draw_seed_ = 0;
  /// util::checkpoint_checksum over every environment value the engine,
  /// its fleet policy and its trader read (see the constructor). Written
  /// to checkpoints so a restore into a different scenario is refused.
  std::uint64_t env_fingerprint_ = 0;

  std::string algorithm_;
  FleetState state_;

  double allowance_balance_ = 0.0;
  double emission_total_ = 0.0;
  std::uint64_t total_switches_ = 0;
#if defined(CEA_AUDIT)
  /// Independent running sum of z - w - e for the ledger check; a restore
  /// re-seeds it from the restored balance.
  double audit_net_flow_ = 0.0;
#endif

  bool any_batchable_ = false;
  TsallisBatchSolver batch_solver_;

  // Slot-scoped values shared with the hoisted edge task. Assigned once
  // per slot before the fan-out; read-only inside it.
  std::size_t t_ = 0;
  bool shifted_ = false;
  const int* slot_workload_ = nullptr;
  bool obs_detail_ = false;
  SlotObserver* observer_ = nullptr;
  std::size_t observer_tenant_ = 0;
  std::vector<std::uint64_t> obs_model_counts_;  ///< per-slot scratch

  // Hoisted shard closure: no std::function construction per slot.
  std::function<void(std::size_t, std::size_t)> shard_task_;
};

}  // namespace cea::sim
