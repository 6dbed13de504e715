#include "sim/slot_engine.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "obs/telemetry.h"
#include "sim/audit.h"
#include "util/check.h"

namespace cea::sim {

SlotEngine::SlotEngine(const Environment& env, const SimOptions& options,
                       std::unique_ptr<bandit::FleetPolicy> fleet,
                       std::unique_ptr<trading::TradingPolicy> trader,
                       std::uint64_t run_seed, std::string algorithm_name,
                       const std::vector<std::size_t>* fixed_models)
    : env_(env),
      options_(options),
      fleet_(std::move(fleet)),
      trader_(std::move(trader)),
      fixed_choices_(fixed_models != nullptr),
      num_edges_(env.num_edges()),
      num_models_(env.num_models()),
      // Base of the per-(edge, slot) draw streams.
      draw_seed_(run_seed ^ 0xD1CE5EEDBEEFULL),
      state_(env) {
  assert(trader_ != nullptr);
  assert(fixed_choices_ || fleet_ != nullptr);
  if (fixed_models != nullptr) {
    assert(fixed_models->size() == num_edges_);
    fixed_models_ = *fixed_models;
  }
  const auto& config = env_.config();

  result_.algorithm = std::move(algorithm_name);
  const std::size_t horizon = env_.horizon();
  result_.inference_cost.reserve(horizon);
  result_.switching_cost.reserve(horizon);
  result_.trading_cost.reserve(horizon);
  result_.emissions.reserve(horizon);
  result_.buys.reserve(horizon);
  result_.sells.reserve(horizon);
  result_.accuracy.reserve(horizon);
  result_.workload.reserve(horizon);
  result_.selection_counts.assign(
      num_edges_, std::vector<std::size_t>(num_models_, 0));
  result_.carbon_cap = config.carbon_cap;
  result_.settlement_price =
      config.settlement_penalty_multiplier * env_.prices().buy.back();

  energy_per_sample_ = state_.energy_per_sample();
  mean_loss_ = state_.mean_loss();
  profiles_ = state_.profiles();
  shift_target_ = state_.shift_target();
  edge_switch_cost_ = state_.edge_switch_cost();
  comp_cost_ = state_.comp_cost();
  transfer_energy_ = state_.transfer_energy();
  edge_workload_ = state_.edge_workload();
  previous_model_ = state_.previous_model();
  part_inference_ = state_.part_inference();
  part_switch_cost_ = state_.part_switch_cost();
  part_energy_ = state_.part_energy();
  part_correct_ = state_.part_correct();
  part_samples_ = state_.part_samples();
  part_model_ = state_.part_model();
  part_switched_ = state_.part_switched();

  // Allowance balance R + sum(z - w - e); sales are clamped so it cannot
  // go negative through selling (SimConfig::clamp_sales_to_holdings).
  allowance_balance_ = config.carbon_cap;

  // Cross-edge batched OMD solving, serial engines only: fleet policies
  // that expose their next Tsallis solve (next_solve/accept_presolve) get
  // it solved in one SIMD batch at the start of each slot, before the
  // edge loop. Safe because a pending solve's inputs are frozen by the
  // edge's own previous feedback, and bit-identical because the batch
  // solver reproduces the scalar oracle exactly. A pooled engine leaves
  // each solve to its shard: the presolve is a serial phase every worker
  // would wait behind.
  any_batchable_ = options_.pool == nullptr && !fixed_choices_ &&
                   fleet_ != nullptr && fleet_->supports_batch_solve();

  // One contiguous shard per claim (see SimOptions::edge_shard_grain).
  shard_task_ = [this](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) run_edge(i);
  };
}

// Per-edge work: model selection, batched loss sampling, bandit feedback.
// Touches only state indexed by the edge (its fleet-policy slot, its
// previous model, its SoA partial lane), so it is safe to fan out under
// the one-writer-per-shard contract.
void SlotEngine::run_edge(std::size_t i) {
  const std::size_t t = t_;
  const auto& config = env_.config();
  std::int64_t obs_t0 = obs_detail_ ? obs::now_ns() : 0;
  double obs_bandit_ns = 0.0;
  const std::size_t model =
      fixed_choices_ ? fixed_models_[i] : fleet_->select(i, t);
  if (obs_detail_) {
    const std::int64_t now = obs::now_ns();
    obs_bandit_ns += static_cast<double>(now - obs_t0);
    obs_t0 = now;
  }
  const std::size_t loss_model = shifted_ ? shift_target_[model] : model;
  // The initial download (previous_model == kNoModel) costs transfer
  // energy but is not a "switch": the paper charges y_i^t u_i only when
  // a *hosted* model is replaced, while every model placement — initial
  // or not — moves bytes and therefore energy.
  const bool first_slot = previous_model_[i] == FleetState::kNoModel;
  const bool switched = !first_slot && model != previous_model_[i];
  double switch_cost = 0.0;
  double energy_kwh = 0.0;
  if (switched) switch_cost = edge_switch_cost_[i];
  if (switched || first_slot)
    energy_kwh += transfer_energy_[i * num_models_ + model];
  previous_model_[i] = static_cast<std::uint32_t>(model);
  part_model_[i] = static_cast<std::uint32_t>(model);
  part_switched_[i] = switched ? 1 : 0;
  CEA_CHECK(t > 0 || !switched, "simulator.first_slot_switch", i, t,
            static_cast<double>(model),
            "edge charged a switch at t=0 (initial download)");

  const auto samples = static_cast<std::size_t>(
      slot_workload_ != nullptr ? slot_workload_[i] : edge_workload_[i][t]);
  const std::size_t draws =
      config.loss_draw_cap == 0
          ? samples
          : std::min<std::size_t>(samples, config.loss_draw_cap);

  // Keyed directly by the (edge, slot) stream seed: no generator
  // construction on the hot path, same pure-function-of-(seed, i, t)
  // determinism contract.
  const data::LossBatch batch = profiles_[loss_model]->draw_batch_keyed(
      stream_seed(draw_seed_, i, t), draws);
  const double mean_sampled_loss =
      draws > 0 ? batch.loss_sum / static_cast<double>(draws) : 0.0;
  const double sample_accuracy =
      draws > 0 ? static_cast<double>(batch.correct_count) /
                      static_cast<double>(draws)
                : 0.0;
  if (obs_detail_) {
    static const obs::MetricId obs_draws = obs::counter("sim.draws");
    obs::add(obs_draws, static_cast<double>(draws));
    static const obs::MetricId obs_draw_hist =
        obs::duration_histogram("sim.edge.draw");
    const std::int64_t now = obs::now_ns();
    obs::observe(obs_draw_hist, static_cast<double>(now - obs_t0));
    obs_t0 = now;
  }

  // Bandit feedback: L_{i,J}^t + v_{i,J} (Insight 2).
  if (!fixed_choices_) {
    fleet_->feedback(i, t, model,
                     mean_sampled_loss + comp_cost_[i * num_models_ + model]);
  }
  if (obs_detail_) {
    static const obs::MetricId obs_bandit_hist =
        obs::duration_histogram("sim.edge.bandit");
    obs_bandit_ns += static_cast<double>(obs::now_ns() - obs_t0);
    obs::observe(obs_bandit_hist, obs_bandit_ns);
  }

  // Objective (1) charges the expectation E[l_n] + v_{i,n}.
  part_inference_[i] =
      mean_loss_[loss_model] + comp_cost_[i * num_models_ + model];
  energy_kwh += energy_per_sample_[model] * static_cast<double>(samples);
  part_switch_cost_[i] = switch_cost;
  part_energy_[i] = energy_kwh;
  part_correct_[i] = sample_accuracy * static_cast<double>(samples);
  part_samples_[i] = static_cast<double>(samples);
}

void SlotEngine::presolve() {
  CEA_SPAN_DETAIL("sim.presolve");
  batch_solver_.clear();
  // Slot-transient edge list from the slot arena — reset per slot,
  // reserved once at FleetState construction.
  state_.slot_arena().reset();
  std::uint32_t* batch_edges =
      state_.slot_arena().alloc_array<std::uint32_t>(num_edges_);
  std::size_t batch_count = 0;
  bandit::TsallisSolveRequest request;
  for (std::size_t i = 0; i < num_edges_; ++i) {
    if (fleet_->next_solve(i, request)) {
      batch_solver_.push(request.cumulative_losses, request.eta,
                         request.scaled_lambda_warm);
      batch_edges[batch_count++] = static_cast<std::uint32_t>(i);
    }
  }
  if (batch_count != 0) {
    batch_solver_.solve();
    for (std::size_t j = 0; j < batch_count; ++j) {
      fleet_->accept_presolve(batch_edges[j], batch_solver_.probabilities(j),
                              batch_solver_.scaled_lambda_warm(j));
    }
  }
}

trading::TradeDecision SlotEngine::begin_slot(
    const trading::TradeObservation& quote) {
  if (any_batchable_) presolve();
  trading::TradeDecision trade;
  {
    CEA_SPAN_DETAIL("sim.trader.decide");
    trade = trader_->decide(t_, quote);
  }
  return trade;
}

void SlotEngine::finish_slot(const trading::TradeObservation& quote,
                             trading::TradeDecision trade,
                             const int* slot_workload) {
  const auto& config = env_.config();
  if (config.clamp_sales_to_holdings) {
    trade.sell = std::min(trade.sell,
                          std::max(0.0, allowance_balance_ + trade.buy));
  }

  // Concept drift (SimConfig::loss_shift_slot): the loss distribution a
  // hosted model produces flips to its mirror after the shift slot.
  shifted_ = config.loss_shift_slot > 0 && t_ >= config.loss_shift_slot;
  slot_workload_ = slot_workload;

  // Per-edge phase split (bandit select+feedback vs sample draws) is too
  // hot to time unconditionally — several clock reads per edge per slot —
  // so it rides behind the detail switch the --telemetry harness flips
  // on. Read once per slot, shared read-only with the pool workers.
  obs_detail_ = obs::detail_enabled();

  {
    CEA_SPAN_DETAIL("sim.edges");
    if (options_.pool != nullptr) {
      options_.pool->parallel_for_blocked(num_edges_,
                                          options_.edge_shard_grain,
                                          shard_task_);
    } else {
      for (std::size_t i = 0; i < num_edges_; ++i) run_edge(i);
    }
  }

  // Serial reduction in edge order: identical floating-point accumulation
  // regardless of how the shards above were scheduled.
  double slot_inference = 0.0;
  double slot_switch_cost = 0.0;
  double slot_energy_kwh = 0.0;
  double weighted_correct = 0.0;
  double slot_samples = 0.0;
  {
    CEA_SPAN_DETAIL("sim.reduce");
    const std::size_t switches_before = result_.total_switches;
    for (std::size_t i = 0; i < num_edges_; ++i) {
      slot_inference += part_inference_[i];
      slot_switch_cost += part_switch_cost_[i];
      if (part_switched_[i]) ++result_.total_switches;
      ++result_.selection_counts[i][part_model_[i]];
      slot_energy_kwh += part_energy_[i];
      weighted_correct += part_correct_[i];
      slot_samples += part_samples_[i];
    }
    if (obs_detail_) {
      static const obs::MetricId obs_switches = obs::counter("sim.switches");
      obs::add(obs_switches,
               static_cast<double>(result_.total_switches - switches_before));
    }
  }

  const double emission = config.emission_rate * slot_energy_kwh;
#if defined(CEA_AUDIT)
  // Holdings clamp precondition, checked against the balance *before*
  // this slot's trades are applied.
  CEA_CHECK(!config.clamp_sales_to_holdings ||
                trade.sell <=
                    std::max(0.0, allowance_balance_ + trade.buy) + 1e-9,
            "simulator.holdings_clamp", audit::kNoIndex, t_, trade.sell,
            "sell " << trade.sell << " exceeds holdings "
                    << std::max(0.0, allowance_balance_ + trade.buy));
#endif
  allowance_balance_ += trade.buy - trade.sell - emission;
  result_.inference_cost.push_back(slot_inference);
  result_.switching_cost.push_back(slot_switch_cost);
  result_.emissions.push_back(emission);
  result_.buys.push_back(trade.buy);
  result_.sells.push_back(trade.sell);
  result_.trading_cost.push_back(trade.cost(quote));
  result_.accuracy.push_back(
      slot_samples > 0.0 ? weighted_correct / slot_samples : 0.0);
  result_.workload.push_back(slot_samples);

#if defined(CEA_AUDIT)
  {
    CEA_SPAN_DETAIL("sim.audit");
    // Ledger identity: allowance_balance == R + sum_{s<=t}(z - w - e),
    // re-derived from the recorded series (tolerance covers the different
    // accumulation grouping).
    audit_net_flow_ +=
        result_.buys[t_] - result_.sells[t_] - result_.emissions[t_];
    const double ledger = config.carbon_cap + audit_net_flow_;
    const double scale =
        std::max({1.0, std::abs(allowance_balance_), std::abs(ledger)});
    CEA_CHECK(std::abs(allowance_balance_ - ledger) <= 1e-9 * scale,
              "simulator.ledger_identity", audit::kNoIndex, t_,
              allowance_balance_ - ledger,
              "balance " << allowance_balance_
                         << " != R + sum(z - w - e) = " << ledger);
    // Emission identity: e^t == rho * slot energy, with the energy
    // re-summed from the per-edge partials in the same reduction order.
    double audit_energy = 0.0;
    for (std::size_t i = 0; i < num_edges_; ++i)
      audit_energy += part_energy_[i];
    CEA_CHECK(emission == config.emission_rate * audit_energy &&
                  std::isfinite(emission) && emission >= 0.0,
              "simulator.emission_identity", audit::kNoIndex, t_, emission,
              "emission " << emission << " != rho * energy = "
                          << config.emission_rate * audit_energy);
    // Per-slot sanity of the recorded series.
    CEA_CHECK(result_.buys[t_] >= 0.0 &&
                  result_.buys[t_] <= config.max_trade_per_slot + 1e-9 &&
                  result_.sells[t_] >= 0.0 &&
                  result_.sells[t_] <= config.max_trade_per_slot + 1e-9,
              "simulator.trade_box", audit::kNoIndex, t_,
              result_.buys[t_] - result_.sells[t_],
              "trade (" << result_.buys[t_] << ", " << result_.sells[t_]
                        << ") outside [0, " << config.max_trade_per_slot
                        << "]^2");
    CEA_CHECK(result_.accuracy[t_] >= 0.0 && result_.accuracy[t_] <= 1.0,
              "simulator.accuracy_range", audit::kNoIndex, t_,
              result_.accuracy[t_],
              "slot accuracy " << result_.accuracy[t_] << " outside [0, 1]");
  }
#endif

  {
    CEA_SPAN_DETAIL("sim.trader.feedback");
    trader_->feedback(t_, emission, quote, trade);
  }

  // Decision journal hook: one snapshot per slot, only when someone is
  // attached (the daemon; batch runs and perf_fleet attach nothing, so
  // this is one null check on their hot path). Every value is already
  // fixed by the serial reduction above.
  if (observer_ != nullptr) {
    obs_model_counts_.assign(num_models_, 0);
    for (std::size_t i = 0; i < num_edges_; ++i)
      ++obs_model_counts_[part_model_[i]];
    SlotObservation observed;
    observed.slot = t_;
    observed.model_counts = obs_model_counts_;
    observed.switches_total = result_.total_switches;
    observed.arena_overflows = state_.arena_overflows();
    observed.trader_dual = trader_->dual_value();
    observed.buy = trade.buy;
    observed.sell = trade.sell;
    observed.buy_price = quote.buy_price;
    observed.sell_price = quote.sell_price;
    observed.emission = emission;
    observed.balance = allowance_balance_;
    observed.carbon_cap = config.carbon_cap;
    observed.inference_cost = result_.inference_cost.back();
    observed.switching_cost = result_.switching_cost.back();
    observed.trading_cost = result_.trading_cost.back();
    observed.accuracy = result_.accuracy.back();
    observed.workload = result_.workload.back();
    observer_->on_slot(observed);
  }

  slot_workload_ = nullptr;
  ++t_;
}

void SlotEngine::step() {
  CEA_SPAN("sim.slot");
  const trading::TradeObservation quote{env_.prices().buy[t_],
                                        env_.prices().sell[t_]};
  const trading::TradeDecision trade = begin_slot(quote);
  finish_slot(quote, trade, nullptr);
}

void SlotEngine::step(const trading::TradeObservation& quote,
                      const int* slot_workload) {
  CEA_SPAN("sim.slot");
  const trading::TradeDecision trade = begin_slot(quote);
  finish_slot(quote, trade, slot_workload);
}

const RunResult& SlotEngine::result() noexcept {
  // Zero in steady state (bench/perf_fleet and tests/sim/test_fleet gate
  // on it): both arenas were reserved for their worst case up front.
  result_.arena_overflows = state_.arena_overflows();
  return result_;
}

RunResult SlotEngine::take_result() {
  result_.arena_overflows = state_.arena_overflows();
  return std::move(result_);
}

void SlotEngine::save_state(util::StateWriter& writer) const {
  writer.write_u64("engine.slot", t_);
  writer.write_u64("engine.edges", num_edges_);
  writer.write_u64("engine.models", num_models_);
  writer.write_string("engine.algorithm", result_.algorithm);
  writer.write_double("engine.balance", allowance_balance_);
  writer.write_u64("engine.total_switches", result_.total_switches);
  writer.write_doubles("engine.inference_cost", result_.inference_cost);
  writer.write_doubles("engine.switching_cost", result_.switching_cost);
  writer.write_doubles("engine.trading_cost", result_.trading_cost);
  writer.write_doubles("engine.emissions", result_.emissions);
  writer.write_doubles("engine.buys", result_.buys);
  writer.write_doubles("engine.sells", result_.sells);
  writer.write_doubles("engine.accuracy", result_.accuracy);
  writer.write_doubles("engine.workload", result_.workload);
  std::vector<std::uint64_t> scratch;
  scratch.reserve(num_edges_ * num_models_);
  for (const auto& row : result_.selection_counts)
    for (std::size_t c : row) scratch.push_back(c);
  writer.write_u64s("engine.selection_counts", scratch);
  scratch.clear();
  for (std::size_t i = 0; i < num_edges_; ++i)
    scratch.push_back(previous_model_[i]);
  writer.write_u64s("engine.previous_model", scratch);
  if (fixed_choices_) {
    writer.write_string("engine.policy", "fixed");
  } else {
    writer.write_string("engine.policy", fleet_->name());
    if (!fleet_->save_state(writer)) {
      throw util::StateError("checkpoint: fleet policy '" + fleet_->name() +
                             "' does not support checkpointing");
    }
  }
  writer.write_string("engine.trader", trader_->name());
  if (!trader_->save_state(writer)) {
    throw util::StateError("checkpoint: trading policy '" + trader_->name() +
                           "' does not support checkpointing");
  }
}

void SlotEngine::restore_state(util::StateReader& reader) {
  const std::uint64_t slot = reader.read_u64("engine.slot");
  const std::uint64_t edges = reader.read_u64("engine.edges");
  const std::uint64_t models = reader.read_u64("engine.models");
  if (edges != num_edges_ || models != num_models_) {
    throw util::StateError(
        "checkpoint: scenario shape mismatch (checkpoint " +
        std::to_string(edges) + "x" + std::to_string(models) +
        ", engine " + std::to_string(num_edges_) + "x" +
        std::to_string(num_models_) + ")");
  }
  const std::string algorithm = reader.read_string("engine.algorithm");
  if (algorithm != result_.algorithm) {
    throw util::StateError("checkpoint: algorithm mismatch (checkpoint '" +
                           algorithm + "', engine '" + result_.algorithm +
                           "')");
  }
  allowance_balance_ = reader.read_double("engine.balance");
  result_.total_switches = reader.read_u64("engine.total_switches");
  result_.inference_cost = reader.read_doubles("engine.inference_cost", slot);
  result_.switching_cost = reader.read_doubles("engine.switching_cost", slot);
  result_.trading_cost = reader.read_doubles("engine.trading_cost", slot);
  result_.emissions = reader.read_doubles("engine.emissions", slot);
  result_.buys = reader.read_doubles("engine.buys", slot);
  result_.sells = reader.read_doubles("engine.sells", slot);
  result_.accuracy = reader.read_doubles("engine.accuracy", slot);
  result_.workload = reader.read_doubles("engine.workload", slot);
  const auto counts =
      reader.read_u64s("engine.selection_counts", num_edges_ * num_models_);
  for (std::size_t i = 0; i < num_edges_; ++i)
    for (std::size_t n = 0; n < num_models_; ++n)
      result_.selection_counts[i][n] = counts[i * num_models_ + n];
  const auto hosted = reader.read_u64s("engine.previous_model", num_edges_);
  for (std::size_t i = 0; i < num_edges_; ++i) {
    if (hosted[i] != FleetState::kNoModel && hosted[i] >= num_models_) {
      throw util::StateError("checkpoint: hosted model out of range");
    }
    previous_model_[i] = static_cast<std::uint32_t>(hosted[i]);
  }
  const std::string policy = reader.read_string("engine.policy");
  if (fixed_choices_) {
    if (policy != "fixed") {
      throw util::StateError("checkpoint: policy mismatch (checkpoint '" +
                             policy + "', engine 'fixed')");
    }
  } else {
    if (policy != fleet_->name()) {
      throw util::StateError("checkpoint: policy mismatch (checkpoint '" +
                             policy + "', engine '" + fleet_->name() + "')");
    }
    if (!fleet_->load_state(reader)) {
      throw util::StateError("checkpoint: fleet policy '" + fleet_->name() +
                             "' does not support checkpointing");
    }
  }
  const std::string trader = reader.read_string("engine.trader");
  if (trader != trader_->name()) {
    throw util::StateError("checkpoint: trader mismatch (checkpoint '" +
                           trader + "', engine '" + trader_->name() + "')");
  }
  if (!trader_->load_state(reader)) {
    throw util::StateError("checkpoint: trading policy '" + trader_->name() +
                           "' does not support checkpointing");
  }
  t_ = slot;
#if defined(CEA_AUDIT)
  // Rebuild the independent audit ledger from the restored series in the
  // same per-slot accumulation order the uninterrupted run used.
  audit_net_flow_ = 0.0;
  for (std::size_t s = 0; s < t_; ++s) {
    audit_net_flow_ +=
        result_.buys[s] - result_.sells[s] - result_.emissions[s];
  }
#endif
}

}  // namespace cea::sim
