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
                       std::uint64_t run_seed, std::string algorithm_name)
    : env_(env),
      options_(options),
      fleet_(std::move(fleet)),
      trader_(std::move(trader)),
      num_edges_(env.num_edges()),
      num_models_(env.num_models()),
      // Base of the per-(edge, slot) draw streams.
      draw_seed_(run_seed ^ 0xD1CE5EEDBEEFULL),
      algorithm_(std::move(algorithm_name)),
      state_(env) {
  assert(fleet_ != nullptr && fleet_->num_edges() == num_edges_);
  assert(trader_ != nullptr);
  const auto& config = env_.config();

  // Environment fingerprint: every value the slot arithmetic, the fleet
  // policy (FleetPolicyContext) and the trader (TraderContext) read from
  // the environment, encoded once through a StateWriter and checksummed.
  // The loss profiles enter through their means; the run seed and the
  // shape are checked on their own.
  {
    const std::size_t E = num_edges_;
    const std::size_t N = num_models_;
    util::StateWriter values;
    values.write_u64("horizon", env_.horizon());
    values.write_double("carbon_cap", config.carbon_cap);
    values.write_double("max_trade_per_slot", config.max_trade_per_slot);
    values.write_double("emission_rate", config.emission_rate);
    values.write_u64("loss_draw_cap", config.loss_draw_cap);
    values.write_u64("loss_shift_slot", config.loss_shift_slot);
    values.write_bool("clamp_sales_to_holdings",
                      config.clamp_sales_to_holdings);
    values.write_double("settlement_price", env_.settlement_price());
    values.write_doubles("energy_per_sample", {state_.energy_per_sample(), N});
    values.write_doubles("mean_loss", {state_.mean_loss(), N});
    const std::vector<std::uint64_t> shift_target(
        state_.shift_target(), state_.shift_target() + N);
    values.write_u64s("shift_target", shift_target);
    values.write_doubles("edge_switch_cost", {state_.edge_switch_cost(), E});
    values.write_doubles("comp_cost", {state_.comp_cost(), E * N});
    values.write_doubles("transfer_energy", {state_.transfer_energy(), E * N});
    env_fingerprint_ = util::checkpoint_checksum(values.payload());
  }

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
  any_batchable_ =
      options_.pool == nullptr && fleet_->supports_batch_solve();

  // One contiguous shard per claim: each shard is written by exactly one
  // worker, and a per-edge claim would cost one atomic RMW per edge.
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
  const std::size_t model = fleet_->select(i, t);
  if (obs_detail_) {
    const std::int64_t now = obs::now_ns();
    obs_bandit_ns += static_cast<double>(now - obs_t0);
    obs_t0 = now;
  }
  const std::size_t loss_model =
      shifted_ ? state_.shift_target()[model] : model;
  // The initial download (previous_model == kNoModel) costs transfer
  // energy but is not a "switch": the paper charges y_i^t u_i only when
  // a *hosted* model is replaced, while every model placement — initial
  // or not — moves bytes and therefore energy.
  std::uint32_t* previous_model = state_.previous_model();
  const bool first_slot = previous_model[i] == FleetState::kNoModel;
  const bool switched = !first_slot && model != previous_model[i];
  double switch_cost = 0.0;
  double energy_kwh = 0.0;
  if (switched) switch_cost = state_.edge_switch_cost()[i];
  if (switched || first_slot)
    energy_kwh += state_.transfer_energy()[i * num_models_ + model];
  previous_model[i] = static_cast<std::uint32_t>(model);
  state_.part_model()[i] = static_cast<std::uint32_t>(model);
  state_.part_switched()[i] = switched ? 1 : 0;
  CEA_CHECK(t > 0 || !switched, "simulator.first_slot_switch", i, t,
            static_cast<double>(model),
            "edge charged a switch at t=0 (initial download)");

  const auto samples = static_cast<std::size_t>(slot_workload_[i]);
  const std::size_t draws =
      config.loss_draw_cap == 0
          ? samples
          : std::min<std::size_t>(samples, config.loss_draw_cap);

  // Keyed directly by the (edge, slot) stream seed: no generator
  // construction on the hot path, same pure-function-of-(seed, i, t)
  // determinism contract.
  const data::LossBatch batch =
      state_.profiles()[loss_model]->draw_batch_keyed(
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
  const double comp_cost = state_.comp_cost()[i * num_models_ + model];
  fleet_->feedback(i, t, model, mean_sampled_loss + comp_cost);
  if (obs_detail_) {
    static const obs::MetricId obs_bandit_hist =
        obs::duration_histogram("sim.edge.bandit");
    obs_bandit_ns += static_cast<double>(obs::now_ns() - obs_t0);
    obs::observe(obs_bandit_hist, obs_bandit_ns);
  }

  // Objective (1) charges the expectation E[l_n] + v_{i,n}.
  state_.part_inference()[i] = state_.mean_loss()[loss_model] + comp_cost;
  energy_kwh +=
      state_.energy_per_sample()[model] * static_cast<double>(samples);
  state_.part_switch_cost()[i] = switch_cost;
  state_.part_energy()[i] = energy_kwh;
  state_.part_correct()[i] = sample_accuracy * static_cast<double>(samples);
  state_.part_samples()[i] = static_cast<double>(samples);
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
                             std::span<const int> workload) {
  assert(workload.size() == num_edges_);
  const auto& config = env_.config();
  if (config.clamp_sales_to_holdings) {
    trade.sell = std::min(trade.sell,
                          std::max(0.0, allowance_balance_ + trade.buy));
  }

  // Concept drift (SimConfig::loss_shift_slot): the loss distribution a
  // hosted model produces flips to its mirror after the shift slot.
  shifted_ = config.loss_shift_slot > 0 && t_ >= config.loss_shift_slot;
  slot_workload_ = workload.data();

  // Per-edge phase split (bandit select+feedback vs sample draws) is too
  // hot to time unconditionally — several clock reads per edge per slot —
  // so it rides behind the detail switch the --telemetry harness flips
  // on. Read once per slot, shared read-only with the pool workers.
  obs_detail_ = obs::detail_enabled();

  {
    CEA_SPAN_DETAIL("sim.edges");
    if (options_.pool != nullptr) {
      options_.pool->parallel_for_blocked(num_edges_, 0, shard_task_);
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
    const std::uint64_t switches_before = total_switches_;
    const double* part_inference = state_.part_inference();
    const double* part_switch_cost = state_.part_switch_cost();
    const std::uint8_t* part_switched = state_.part_switched();
    const double* part_energy = state_.part_energy();
    const double* part_correct = state_.part_correct();
    const double* part_samples = state_.part_samples();
    for (std::size_t i = 0; i < num_edges_; ++i) {
      slot_inference += part_inference[i];
      slot_switch_cost += part_switch_cost[i];
      total_switches_ += part_switched[i];
      slot_energy_kwh += part_energy[i];
      weighted_correct += part_correct[i];
      slot_samples += part_samples[i];
    }
    if (obs_detail_) {
      static const obs::MetricId obs_switches = obs::counter("sim.switches");
      obs::add(obs_switches,
               static_cast<double>(total_switches_ - switches_before));
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
  emission_total_ += emission;
  const double slot_accuracy =
      slot_samples > 0.0 ? weighted_correct / slot_samples : 0.0;

#if defined(CEA_AUDIT)
  {
    CEA_SPAN_DETAIL("sim.audit");
    // Ledger identity: allowance_balance == R + sum_{s<=t}(z - w - e),
    // with the flows summed on their own (tolerance covers the different
    // accumulation grouping).
    audit_net_flow_ += trade.buy - trade.sell - emission;
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
      audit_energy += state_.part_energy()[i];
    CEA_CHECK(emission == config.emission_rate * audit_energy &&
                  std::isfinite(emission) && emission >= 0.0,
              "simulator.emission_identity", audit::kNoIndex, t_, emission,
              "emission " << emission << " != rho * energy = "
                          << config.emission_rate * audit_energy);
    // Per-slot sanity of the executed trade and the slot accuracy.
    CEA_CHECK(trade.buy >= 0.0 &&
                  trade.buy <= config.max_trade_per_slot + 1e-9 &&
                  trade.sell >= 0.0 &&
                  trade.sell <= config.max_trade_per_slot + 1e-9,
              "simulator.trade_box", audit::kNoIndex, t_,
              trade.buy - trade.sell,
              "trade (" << trade.buy << ", " << trade.sell
                        << ") outside [0, " << config.max_trade_per_slot
                        << "]^2");
    CEA_CHECK(slot_accuracy >= 0.0 && slot_accuracy <= 1.0,
              "simulator.accuracy_range", audit::kNoIndex, t_, slot_accuracy,
              "slot accuracy " << slot_accuracy << " outside [0, 1]");
  }
#endif

  {
    CEA_SPAN_DETAIL("sim.trader.feedback");
    trader_->feedback(t_, emission, quote, trade);
  }

  // The slot's only output: one snapshot for the attached observer (a
  // SeriesRecorder in batch runs; the daemon's journal and watchdog), or
  // one null check when there is none. Every value is already fixed by
  // the serial reduction above.
  if (observer_ != nullptr) {
    const std::uint32_t* part_model = state_.part_model();
    obs_model_counts_.assign(num_models_, 0);
    for (std::size_t i = 0; i < num_edges_; ++i)
      ++obs_model_counts_[part_model[i]];
    SlotObservation observed;
    observed.slot = t_;
    observed.model_counts = obs_model_counts_;
    observed.hosted_models = {part_model, num_edges_};
    observed.switches_total = total_switches_;
    observed.arena_overflows = state_.arena_overflows();
    observed.trader_dual = trader_->dual_value();
    observed.buy = trade.buy;
    observed.sell = trade.sell;
    observed.buy_price = quote.buy_price;
    observed.sell_price = quote.sell_price;
    observed.emission = emission;
    observed.balance = allowance_balance_;
    observed.carbon_cap = config.carbon_cap;
    observed.inference_cost = slot_inference;
    observed.switching_cost = slot_switch_cost;
    observed.trading_cost = trade.cost(quote);
    observed.accuracy = slot_accuracy;
    observed.workload = slot_samples;
    observer_->on_tenant_slot(observer_tenant_, observed);
  }

  ++t_;
}

void SlotEngine::save_state(util::StateWriter& writer) const {
  writer.write_u64("engine.slot", t_);
  writer.write_u64("engine.edges", num_edges_);
  writer.write_u64("engine.models", num_models_);
  writer.write_u64("engine.horizon", env_.horizon());
  writer.write_u64("engine.env_fingerprint", env_fingerprint_);
  writer.write_string("engine.algorithm", algorithm_);
  writer.write_double("engine.balance", allowance_balance_);
  writer.write_double("engine.emission_total", emission_total_);
  writer.write_u64("engine.total_switches", total_switches_);
  writer.write_u32s("engine.previous_model",
                    {state_.previous_model(), num_edges_});
  writer.write_string("engine.policy", fleet_->name());
  if (!fleet_->save_state(writer)) {
    throw util::StateError("checkpoint: fleet policy '" + fleet_->name() +
                           "' does not support checkpointing");
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
  const std::uint64_t horizon = reader.read_u64("engine.horizon");
  if (horizon != env_.horizon()) {
    throw util::StateError("checkpoint: engine.horizon mismatch (checkpoint " +
                           std::to_string(horizon) + ", engine " +
                           std::to_string(env_.horizon()) + ")");
  }
  if (reader.read_u64("engine.env_fingerprint") != env_fingerprint_) {
    throw util::StateError(
        "checkpoint: engine.env_fingerprint mismatch (the checkpoint was "
        "written for a different scenario: cap, trade box, emission rate, "
        "draw cap, loss shift, holdings clamp, prices or edge costs)");
  }
  const std::string algorithm = reader.read_string("engine.algorithm");
  if (algorithm != algorithm_) {
    throw util::StateError("checkpoint: algorithm mismatch (checkpoint '" +
                           algorithm + "', engine '" + algorithm_ + "')");
  }
  allowance_balance_ = reader.read_double("engine.balance");
  emission_total_ = reader.read_double("engine.emission_total");
  total_switches_ = reader.read_u64("engine.total_switches");
  const auto hosted = reader.read_u32s("engine.previous_model", num_edges_);
  for (std::size_t i = 0; i < num_edges_; ++i) {
    if (hosted[i] != FleetState::kNoModel && hosted[i] >= num_models_) {
      throw util::StateError("checkpoint: hosted model out of range");
    }
    state_.previous_model()[i] = hosted[i];
  }
  const std::string policy = reader.read_string("engine.policy");
  if (policy != fleet_->name()) {
    throw util::StateError("checkpoint: policy mismatch (checkpoint '" +
                           policy + "', engine '" + fleet_->name() + "')");
  }
  if (!fleet_->load_state(reader)) {
    throw util::StateError("checkpoint: fleet policy '" + fleet_->name() +
                           "' does not support checkpointing");
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
  // The checkpoint holds no flow history: the ledger check continues from
  // the restored balance and audits the flows from here on.
  audit_net_flow_ = allowance_balance_ - env_.config().carbon_cap;
#endif
}

}  // namespace cea::sim
