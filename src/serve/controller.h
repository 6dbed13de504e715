#pragma once

// Multi-tenant slot-streaming controller: several independent scenarios
// (tenants), each running its own sim::SlotEngine over its own policies
// and ledger, advanced in lock-step one slot at a time and clearing their
// allowance trades against ONE shared per-slot market liquidity pool.
//
// Determinism contract: tenants are cleared in tenant-index order, so the
// allocation of scarce market volume is a pure function of the tenants'
// decisions — no wall clock, no iteration-order ambiguity. Together with
// the engines' own contracts this makes the whole controller a pure state
// machine: checkpoint_payload()/restore_payload() snapshot it bit-exactly
// (market state included) and a restored controller continues identically.

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "sim/config.h"
#include "sim/environment.h"
#include "sim/experiment.h"
#include "sim/slot_engine.h"

namespace cea::serve {

/// The former name of sim::SlotObserver, kept for the serving benchmark's
/// observer (perfserve/perf_serve.cpp), which derives from it.
using TenantSlotObserver = sim::SlotObserver;

/// One tenant: a scenario, an algorithm pairing, and a run seed.
struct TenantSpec {
  std::string name;               ///< unique tenant id (checkpoint-validated)
  sim::SimConfig scenario;        ///< its environment (edges, caps, budgets)
  sim::AlgorithmCombo combo;      ///< policy + trader (sim/experiment.h)
  std::uint64_t run_seed = 1;
};

/// Shared market rule: per-slot liquidity cap across ALL tenants, on buys
/// and sells separately. 0 disables the shared cap (each tenant is still
/// bounded by its own SimConfig::max_trade_per_slot).
struct MarketRule {
  double max_volume_per_slot = 0.0;
};

class ServeController {
 public:
  /// Builds every tenant's environment and engine. `options` (the pool)
  /// applies to every engine. Throws std::invalid_argument on empty or
  /// duplicate-name tenant lists and on a negative or NaN market cap (a
  /// NaN cap would never match itself on restore).
  ServeController(const std::vector<TenantSpec>& tenants,
                  const sim::SimOptions& options, MarketRule market = {});

  std::size_t num_tenants() const noexcept { return tenants_.size(); }
  /// Sum of every tenant's edge count — the workload width step() expects.
  std::size_t total_edges() const noexcept { return total_edges_; }
  /// Next slot to execute (identical across tenants by construction).
  std::size_t slot() const noexcept;

  const std::string& tenant_name(std::size_t i) const {
    return tenants_[i].name;
  }
  sim::SlotEngine& tenant_engine(std::size_t i) { return *tenants_[i].engine; }
  const sim::Environment& tenant_env(std::size_t i) const {
    return *tenants_[i].env;
  }
  /// The pool the engines fan out on (SimOptions::pool), or nullptr when
  /// they run serially. Idle between step() calls.
  util::ThreadPool* pool() const noexcept { return pool_; }

  /// Advance every tenant one slot. `workload_all` is the concatenation of
  /// per-tenant per-edge counts in tenant order (total_edges() wide). Each
  /// tenant's trade is decided first (begin_slot), then cleared against the
  /// shared per-slot liquidity in tenant-index order, then executed
  /// (finish_slot). Throws std::invalid_argument, before any state changes,
  /// on a width mismatch or a negative count.
  void step(const trading::TradeObservation& quote,
            std::span<const int> workload_all);

  /// Attach (or detach with nullptr) the per-(tenant, slot) observer to
  /// every tenant engine with the tenant's index, so it gets one callback
  /// per (tenant, slot), in tenant-index order within each slot (phase 3
  /// executes tenants in index order, and every engine hook fires
  /// synchronously). Its save_state() travels in the checkpoint. The
  /// observer must outlive the controller or be detached first.
  void set_observer(sim::SlotObserver* observer);

  /// Serialize the controller's decision state (meta, every engine, and
  /// the attached observer's save_state() as one `serve.observer_state`
  /// string, empty without an observer) into a checkpoint payload for
  /// util::encode_checkpoint/write_checkpoint_file. Its size does not
  /// grow with the slots executed.
  std::string checkpoint_payload() const;

  /// Restore from a payload produced by checkpoint_payload() on an
  /// identically configured controller, then hand the observer record to
  /// the attached observer's load_state (ignored without one). Throws
  /// util::StateError on any mismatch (tenant count, names, seeds, market
  /// rule, and each engine's shape, horizon, environment fingerprint,
  /// algorithm, policy and trader) or corruption.
  void restore_payload(std::string_view payload);

 private:
  struct Tenant {
    std::string name;
    std::uint64_t run_seed = 0;
    // unique_ptr for address stability: the engine aliases the env.
    std::unique_ptr<sim::Environment> env;
    std::unique_ptr<sim::SlotEngine> engine;
  };

  std::vector<Tenant> tenants_;
  std::size_t total_edges_ = 0;
  MarketRule market_;
  util::ThreadPool* pool_ = nullptr;
  sim::SlotObserver* observer_ = nullptr;
  /// Size of the last checkpoint_payload(): the next one's buffer hint.
  mutable std::size_t checkpoint_bytes_ = 0;
};

}  // namespace cea::serve
