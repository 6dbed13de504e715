#include "serve/controller.h"

#include <algorithm>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "bandit/fleet_policy.h"
#include "sim/simulator.h"
#include "util/state_io.h"

namespace cea::serve {

ServeController::ServeController(const std::vector<TenantSpec>& tenants,
                                 const sim::SimOptions& options,
                                 MarketRule market)
    : market_(market) {
  if (tenants.empty()) {
    throw std::invalid_argument("ServeController: no tenants");
  }
  std::unordered_set<std::string> names;
  tenants_.reserve(tenants.size());
  for (const auto& spec : tenants) {
    if (!names.insert(spec.name).second) {
      throw std::invalid_argument("ServeController: duplicate tenant name '" +
                                  spec.name + "'");
    }
    Tenant tenant;
    tenant.name = spec.name;
    tenant.run_seed = spec.run_seed;
    tenant.env = std::make_unique<sim::Environment>(
        sim::Environment::make_parametric(spec.scenario));
    // Reuse the Simulator's context builders so a tenant's engine is
    // constructed exactly like a batch run of the same combo — that is
    // what makes daemon output comparable bit-for-bit to Simulator::run.
    sim::Simulator builder(*tenant.env, options);
    auto fleet =
        spec.combo.policy(builder.fleet_policy_context(spec.run_seed));
    auto trader = spec.combo.trader(builder.trader_context(spec.run_seed));
    tenant.engine = std::make_unique<sim::SlotEngine>(
        *tenant.env, options, std::move(fleet), std::move(trader),
        spec.run_seed, spec.combo.name);
    total_edges_ += tenant.env->num_edges();
    tenants_.push_back(std::move(tenant));
  }
}

void ServeController::set_observer(TenantSlotObserver* observer) {
  for (std::size_t i = 0; i < tenants_.size(); ++i) {
    tenants_[i].engine->set_observer(observer, i);
  }
}

std::size_t ServeController::slot() const noexcept {
  return tenants_.front().engine->slot();
}

void ServeController::step(const trading::TradeObservation& quote,
                           std::span<const int> workload_all) {
  if (workload_all.size() != total_edges_) {
    throw std::invalid_argument(
        "ServeController::step: workload width " +
        std::to_string(workload_all.size()) + " != total edges " +
        std::to_string(total_edges_));
  }
  // A negative count would reach the engines as a huge sample count, so
  // reject it here, before any tenant's state changes.
  const auto negative = std::find_if(workload_all.begin(), workload_all.end(),
                                     [](int count) { return count < 0; });
  if (negative != workload_all.end()) {
    std::size_t edge =
        static_cast<std::size_t>(negative - workload_all.begin());
    std::size_t tenant = 0;
    while (edge >= tenants_[tenant].env->num_edges())
      edge -= tenants_[tenant++].env->num_edges();
    throw std::invalid_argument(
        "ServeController::step: tenant '" + tenants_[tenant].name +
        "' edge " + std::to_string(edge) + ": negative arrival count " +
        std::to_string(*negative));
  }
  // Phase 1: every tenant decides its trade on the shared quote.
  std::vector<trading::TradeDecision> trades;
  trades.reserve(tenants_.size());
  for (auto& tenant : tenants_) {
    trades.push_back(tenant.engine->begin_slot(quote));
  }
  // Phase 2: clear against the shared per-slot liquidity, tenant-index
  // order (deterministic first-come allocation of scarce volume).
  if (market_.max_volume_per_slot > 0.0) {
    double buy_left = market_.max_volume_per_slot;
    double sell_left = market_.max_volume_per_slot;
    for (auto& trade : trades) {
      trade.buy = std::min(trade.buy, std::max(0.0, buy_left));
      trade.sell = std::min(trade.sell, std::max(0.0, sell_left));
      buy_left -= trade.buy;
      sell_left -= trade.sell;
    }
  }
  // Phase 3: execute (each engine applies its own holdings clamp, runs
  // its edge fan-out, and feeds its trader the executed decision).
  std::size_t offset = 0;
  for (std::size_t i = 0; i < tenants_.size(); ++i) {
    const std::size_t edges = tenants_[i].env->num_edges();
    tenants_[i].engine->finish_slot(quote, trades[i],
                                    workload_all.subspan(offset, edges));
    offset += edges;
  }
}

std::string ServeController::checkpoint_payload() const {
  // Between checkpoints the payload grows only by the recorded series'
  // new entries, so an eighth of headroom over the previous size makes
  // the whole encode one allocation with no regrowth copies.
  util::StateWriter writer(checkpoint_bytes_ + checkpoint_bytes_ / 8);
  writer.write_u64("serve.tenants", tenants_.size());
  writer.write_double("serve.market_cap", market_.max_volume_per_slot);
  for (const auto& tenant : tenants_) {
    writer.write_string("serve.tenant", tenant.name);
    writer.write_u64("serve.run_seed", tenant.run_seed);
    tenant.engine->save_state(writer);
  }
  checkpoint_bytes_ = writer.payload().size();
  return writer.take();
}

void ServeController::restore_payload(std::string_view payload) {
  util::StateReader reader(payload);
  if (reader.read_u64("serve.tenants") != tenants_.size()) {
    throw util::StateError(
        "checkpoint: tenant count does not match this controller");
  }
  if (reader.read_double("serve.market_cap") != market_.max_volume_per_slot) {
    throw util::StateError(
        "checkpoint: market rule does not match this controller");
  }
  for (auto& tenant : tenants_) {
    const std::string name = reader.read_string("serve.tenant");
    if (name != tenant.name) {
      throw util::StateError("checkpoint: tenant '" + name +
                             "' does not match configured tenant '" +
                             tenant.name + "'");
    }
    if (reader.read_u64("serve.run_seed") != tenant.run_seed) {
      throw util::StateError("checkpoint: run seed mismatch for tenant '" +
                             tenant.name + "'");
    }
    tenant.engine->restore_state(reader);
  }
  reader.expect_end();
  // All engines must agree on the slot cursor; a checkpoint can only be
  // taken at a controller slot boundary, so disagreement means a forged
  // or mixed-up payload.
  const std::size_t slot = tenants_.front().engine->slot();
  for (const auto& tenant : tenants_) {
    if (tenant.engine->slot() != slot) {
      throw util::StateError("checkpoint: tenants disagree on the slot");
    }
  }
}

}  // namespace cea::serve
