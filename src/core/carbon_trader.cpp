#include "core/carbon_trader.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <memory>

#include "obs/telemetry.h"
#include "util/check.h"
#include "util/state_io.h"

namespace cea::core {

OnlineCarbonTrader::OnlineCarbonTrader(const trading::TraderContext& context,
                                       const OnlineTraderConfig& config)
    : context_(context), lambda_(config.initial_lambda) {
  const double horizon =
      static_cast<double>(std::max<std::size_t>(context.horizon, 1));
  const double t_third = std::pow(horizon, -1.0 / 3.0);
  gamma1_ = config.gamma1_scale * t_third;
  gamma2_ = config.gamma2_scale * t_third;
  per_slot_cap_share_ = context.carbon_cap / horizon;
  prev_decision_ = {config.initial_buy, config.initial_sell};
}

trading::TradeDecision OnlineCarbonTrader::decide(
    std::size_t /*t*/, const trading::TradeObservation& /*obs*/) {
  if (!has_history_) {
    // Slot 1 has no (t-1) information; hold the initial decision Zbar^0.
    return prev_decision_;
  }
  trading::TradeDecision decision;
  const double raw_buy =
      prev_decision_.buy + gamma2_ * (lambda_ - prev_buy_price_);
  const double raw_sell =
      prev_decision_.sell + gamma2_ * (prev_sell_price_ - lambda_);
  decision.buy = trading::clamp_trade(raw_buy, context_);
  decision.sell = trading::clamp_trade(raw_sell, context_);
  if (obs::detail_enabled()) {
    // How often the rectified primal step's per-coordinate box clamp
    // actually binds (per coordinate, either box face). Fires once per
    // (edge-set, slot) decide — detail-gated with the rest of the
    // per-slot trader telemetry to keep the idle cost to the single
    // sim.slot span.
    static const obs::MetricId obs_clamp_buy =
        obs::counter("trader.primal_clamp.buy");
    static const obs::MetricId obs_clamp_sell =
        obs::counter("trader.primal_clamp.sell");
    if (decision.buy != raw_buy) obs::add(obs_clamp_buy);
    if (decision.sell != raw_sell) obs::add(obs_clamp_sell);
  }
  CEA_CHECK(decision.buy >= 0.0 && decision.buy <= context_.max_trade_per_slot,
            "trader.primal_box", audit::kNoIndex, audit::kNoIndex,
            decision.buy,
            "buy " << decision.buy << " outside [0, "
                   << context_.max_trade_per_slot << "]");
  CEA_CHECK(decision.sell >= 0.0 &&
                decision.sell <= context_.max_trade_per_slot,
            "trader.primal_box", audit::kNoIndex, audit::kNoIndex,
            decision.sell,
            "sell " << decision.sell << " outside [0, "
                    << context_.max_trade_per_slot << "]");
  return decision;
}

void OnlineCarbonTrader::feedback(std::size_t /*t*/, double emission,
                                  const trading::TradeObservation& obs,
                                  const trading::TradeDecision& executed) {
  const double g = emission - per_slot_cap_share_ - executed.buy +
                   executed.sell;
  lambda_ = std::max(0.0, lambda_ + gamma1_ * g);
  if (obs::detail_enabled()) {
    // Dual trajectory: last value as a gauge, distribution over the run as
    // a histogram, and — when tracing — a Perfetto counter track that
    // renders lambda over wall time.
    static const obs::MetricId obs_lambda_gauge =
        obs::gauge("trader.lambda");
    obs::set(obs_lambda_gauge, lambda_);
    static const double kLambdaEdges[] = {0.0,  0.01, 0.1, 0.5, 1.0,
                                          2.0,  5.0,  10.0, 50.0, 100.0};
    static const obs::MetricId obs_lambda_hist =
        obs::histogram("trader.lambda_path", kLambdaEdges);
    obs::observe(obs_lambda_hist, lambda_);
    obs::trace_counter("trader.lambda", lambda_);
  }
  // Dual feasibility: lambda^{t+1} = [lambda^t + gamma1 g^t]^+ must stay
  // finite and nonnegative; the executed trade the dual sees must lie in
  // the liquidity box (the simulator's holdings clamp only shrinks sells).
  CEA_CHECK(std::isfinite(lambda_) && lambda_ >= 0.0, "trader.dual_nonneg",
            audit::kNoIndex, audit::kNoIndex, lambda_,
            "lambda " << lambda_ << " after dual ascent with g = " << g);
  CEA_CHECK(executed.buy >= 0.0 &&
                executed.buy <= context_.max_trade_per_slot &&
                executed.sell >= 0.0 &&
                executed.sell <= context_.max_trade_per_slot,
            "trader.executed_box", audit::kNoIndex, audit::kNoIndex,
            executed.buy - executed.sell,
            "executed trade (" << executed.buy << ", " << executed.sell
                               << ") outside [0, "
                               << context_.max_trade_per_slot << "]^2");
  prev_buy_price_ = obs.buy_price;
  prev_sell_price_ = obs.sell_price;
  prev_decision_ = executed;
  has_history_ = true;
}

trading::TraderFactory OnlineCarbonTrader::factory(OnlineTraderConfig config) {
  return [config](const trading::TraderContext& context) {
    return std::make_unique<OnlineCarbonTrader>(context, config);
  };
}

bool OnlineCarbonTrader::save_state(util::StateWriter& writer) const {
  writer.write_double("onlinepd.lambda", lambda_);
  writer.write_double("onlinepd.prev_buy_price", prev_buy_price_);
  writer.write_double("onlinepd.prev_sell_price", prev_sell_price_);
  writer.write_double("onlinepd.prev_buy", prev_decision_.buy);
  writer.write_double("onlinepd.prev_sell", prev_decision_.sell);
  writer.write_bool("onlinepd.has_history", has_history_);
  return true;
}

bool OnlineCarbonTrader::load_state(util::StateReader& reader) {
  lambda_ = reader.read_double("onlinepd.lambda");
  prev_buy_price_ = reader.read_double("onlinepd.prev_buy_price");
  prev_sell_price_ = reader.read_double("onlinepd.prev_sell_price");
  prev_decision_.buy = reader.read_double("onlinepd.prev_buy");
  prev_decision_.sell = reader.read_double("onlinepd.prev_sell");
  has_history_ = reader.read_bool("onlinepd.has_history");
  return true;
}

}  // namespace cea::core
