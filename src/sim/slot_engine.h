#pragma once

// The simulator turned inside-out: one slot of the Fig. 2 workflow as an
// explicit state machine (ROADMAP item "long-running serving daemon").
//
// Simulator::run_impl used to own the whole horizon loop, which made the
// controller usable only as a closed batch simulation. SlotEngine extracts
// the loop body — presolve, trading decision, pooled edge fan-out, serial
// edge-ordered reduction, ledger update, trader feedback — behind a
// step()/begin_slot()/finish_slot() API, so the same arithmetic (bit for
// bit; the golden traces pin it through Simulator) can be driven either by
// the batch Simulator over Environment traces or slot-by-slot by the
// serving daemon (src/serve/) from live feeds.
//
// Pure state machine: no file I/O, no clock, no feed knowledge. The only
// inputs of a slot are the price quote and the per-edge workload counts;
// everything else (policies, trader, draw streams, ledger) lives inside
// and is snapshotted bit-exactly by save_state()/restore_state() — the
// checkpoint contract is that an engine restored at any slot boundary
// continues exactly like the uninterrupted one (tests/serve/
// test_checkpoint.cpp).

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bandit/fleet_policy.h"
#include "opt/tsallis_batch.h"
#include "sim/environment.h"
#include "sim/fleet_state.h"
#include "sim/metrics.h"
#include "sim/simulator.h"
#include "trading/trader.h"
#include "util/rng.h"
#include "util/state_io.h"
#include "util/thread_pool.h"

namespace cea::sim {

/// Per-slot decision snapshot handed to an attached SlotObserver at the
/// very end of finish_slot (after the trader feedback, before the cursor
/// advances). Every field comes out of the serial edge-ordered reduction,
/// so observers inherit the engine's serial/pooled bit-identity. The
/// counts span aliases engine scratch — copy it if it must outlive the
/// callback.
struct SlotObservation {
  std::size_t slot = 0;  ///< the slot just executed
  /// Edges that selected each model this slot (size = num_models()).
  std::span<const std::uint64_t> model_counts;
  std::uint64_t switches_total = 0;   ///< cumulative switches so far
  /// Reserved, always 0. Kept so the journal's CEA-JOURNAL v1 layout and
  /// its existing segments stay valid; it used to count the slot's
  /// batched Tsallis solves, which differ between serial and pooled runs.
  std::uint64_t solver_lanes = 0;
  std::uint64_t arena_overflows = 0;  ///< cumulative arena spills (0 = clean)
  double trader_dual = 0.0;  ///< TradingPolicy::dual_value() after feedback
  double buy = 0.0, sell = 0.0;              ///< executed z^t, w^t
  double buy_price = 0.0, sell_price = 0.0;  ///< quote c^t, r^t
  double emission = 0.0;    ///< e^t
  double balance = 0.0;     ///< allowance balance after the slot
  double carbon_cap = 0.0;  ///< R of the scenario
  double inference_cost = 0.0, switching_cost = 0.0, trading_cost = 0.0;
  double accuracy = 0.0, workload = 0.0;
};

/// Observer attached via SlotEngine::set_observer. Called synchronously on
/// the engine-driving thread at a pool-quiescent point; must not call back
/// into the engine. Observational only: the engine's arithmetic is
/// identical with or without an observer attached.
class SlotObserver {
 public:
  virtual ~SlotObserver() = default;
  virtual void on_slot(const SlotObservation& observed) = 0;
};

class SlotEngine {
 public:
  /// `fleet` may be null only with `fixed_models` set (the run_fixed
  /// path). The environment must outlive the engine (FleetState aliases
  /// its rows).
  SlotEngine(const Environment& env, const SimOptions& options,
             std::unique_ptr<bandit::FleetPolicy> fleet,
             std::unique_ptr<trading::TradingPolicy> trader,
             std::uint64_t run_seed, std::string algorithm_name,
             const std::vector<std::size_t>* fixed_models = nullptr);

  SlotEngine(const SlotEngine&) = delete;
  SlotEngine& operator=(const SlotEngine&) = delete;

  /// Next slot to execute (== slots already executed).
  std::size_t slot() const noexcept { return t_; }
  std::size_t num_edges() const noexcept { return num_edges_; }
  std::size_t num_models() const noexcept { return num_models_; }
  double allowance_balance() const noexcept { return allowance_balance_; }
  const std::string& algorithm() const noexcept { return result_.algorithm; }

  /// Batch path: advance one slot on the environment's own traces.
  void step();

  /// Streaming path: advance one slot on live inputs. `slot_workload` is
  /// one count per edge (nullptr = use the environment trace at slot()).
  void step(const trading::TradeObservation& quote, const int* slot_workload);

  /// Split-phase path for multi-tenant market clearing: begin_slot runs
  /// the trader's decision, preceded in a serial engine by the cross-edge
  /// presolve (SimOptions::pool); the caller may
  /// then adjust the decision (e.g. clamp to shared market liquidity)
  /// before finish_slot executes the edge fan-out, the ledger update, and
  /// the trader feedback with the executed trade.
  trading::TradeDecision begin_slot(const trading::TradeObservation& quote);
  void finish_slot(const trading::TradeObservation& quote,
                   trading::TradeDecision trade, const int* slot_workload);

  /// Attach (or detach with nullptr) the per-slot decision observer. The
  /// observer must outlive the engine or be detached first.
  void set_observer(SlotObserver* observer) { observer_ = observer; }

  /// Slots executed so far, as a RunResult (series have length slot()).
  const RunResult& result() noexcept;
  RunResult take_result();

  /// Snapshot the full mutable state — slot cursor, ledger, recorded
  /// series, hosted models, bandit and trader state — such that
  /// restore_state() on a freshly constructed engine (same environment,
  /// options, factories, run_seed) continues bit-identically. Throws
  /// util::StateError when the policy or trader does not implement
  /// checkpointing.
  void save_state(util::StateWriter& writer) const;
  void restore_state(util::StateReader& reader);

 private:
  void run_edge(std::size_t i);
  void presolve();

  const Environment& env_;
  SimOptions options_;
  std::unique_ptr<bandit::FleetPolicy> fleet_;
  std::unique_ptr<trading::TradingPolicy> trader_;
  bool fixed_choices_ = false;
  std::vector<std::size_t> fixed_models_;

  std::size_t num_edges_ = 0;
  std::size_t num_models_ = 0;
  std::uint64_t draw_seed_ = 0;

  RunResult result_;
  FleetState state_;

  // Cached FleetState arrays (see sim/fleet_state.h for the layout).
  const double* energy_per_sample_ = nullptr;
  const double* mean_loss_ = nullptr;
  const data::LossProfile* const* profiles_ = nullptr;
  const std::uint32_t* shift_target_ = nullptr;
  const double* edge_switch_cost_ = nullptr;
  const double* comp_cost_ = nullptr;
  const double* transfer_energy_ = nullptr;
  const int* const* edge_workload_ = nullptr;
  std::uint32_t* previous_model_ = nullptr;
  double* part_inference_ = nullptr;
  double* part_switch_cost_ = nullptr;
  double* part_energy_ = nullptr;
  double* part_correct_ = nullptr;
  double* part_samples_ = nullptr;
  std::uint32_t* part_model_ = nullptr;
  std::uint8_t* part_switched_ = nullptr;

  double allowance_balance_ = 0.0;
#if defined(CEA_AUDIT)
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
  std::vector<std::uint64_t> obs_model_counts_;  ///< per-slot scratch

  // Hoisted shard closure: no std::function construction per slot.
  std::function<void(std::size_t, std::size_t)> shard_task_;
};

}  // namespace cea::sim
