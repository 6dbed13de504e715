#include "sim/audit.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "bandit/fleet_policy.h"
#include "bandit/random_policy.h"
#include "core/blocked_tsallis_fleet.h"
#include "core/carbon_trader.h"
#include "sim/experiment.h"
#include "sim/simulator.h"
#include "trading/random_trader.h"

namespace cea::sim {
namespace {

// Random selection runs behind the per-edge fleet adapter.
bandit::FleetPolicyFactory random_policy() {
  return bandit::adapt_per_edge(bandit::RandomPolicy::factory());
}

SimConfig audit_config() {
  SimConfig config;
  config.num_edges = 3;
  config.horizon = 40;
  config.workload.num_slots = 40;
  config.workload.mean_samples = 300.0;
  config.loss_draw_cap = 64;
  config.seed = 31;
  return config;
}

bool has_site(const std::vector<audit::Violation>& violations,
              const std::string& site) {
  return std::any_of(violations.begin(), violations.end(),
                     [&](const audit::Violation& v) { return v.site == site; });
}

class AuditRun : public ::testing::Test {
 protected:
  void SetUp() override { audit::clear(); }
  void TearDown() override { audit::clear(); }
};

TEST_F(AuditRun, CleanOnValidRun) {
  const auto env = Environment::make_parametric(audit_config());
  Simulator simulator(env);
  const auto result = simulator.run(core::BlockedTsallisFleetPolicy::factory(),
                                    core::OnlineCarbonTrader::factory(), 1,
                                    "Ours");
  const auto violations = audit_run(env, result);
  EXPECT_TRUE(violations.empty()) << format_violations(violations);
}

TEST_F(AuditRun, CleanOnEveryBaselineCombo) {
  const auto env = Environment::make_parametric(audit_config());
  for (const auto& combo : all_combos()) {
    const auto result = run_combo(env, combo, 2);
    EXPECT_TRUE(audit_run(env, result).empty()) << combo.name;
  }
}

TEST_F(AuditRun, CleanOnAveragedRun) {
  const auto env = Environment::make_parametric(audit_config());
  const auto avg = run_combo_averaged(env, ours_combo(), 3, 100);
  const auto violations = audit_run(env, avg, /*averaged=*/true);
  EXPECT_TRUE(violations.empty()) << format_violations(violations);
}

TEST_F(AuditRun, DetectsTamperedTradingCost) {
  const auto env = Environment::make_parametric(audit_config());
  Simulator simulator(env);
  auto result = simulator.run(random_policy(),
                              trading::RandomTrader::factory(), 4, "x");
  audit::clear();  // keep only the tamper-induced violations
  result.trading_cost[7] += 0.5;
  const auto violations = audit_run(env, result);
  ASSERT_TRUE(has_site(violations, "audit.trading_cost_identity"))
      << format_violations(violations);
  const auto it =
      std::find_if(violations.begin(), violations.end(),
                   [](const audit::Violation& v) {
                     return v.site == "audit.trading_cost_identity";
                   });
  EXPECT_EQ(it->slot, 7u);
  EXPECT_NEAR(it->quantity, 0.5, 1e-9);
}

TEST_F(AuditRun, DetectsLedgerBreakViaViolationMismatch) {
  // Inflating a sell both breaks the holdings clamp and shifts the ledger
  // the terminal fit is computed from.
  auto config = audit_config();
  config.clamp_sales_to_holdings = true;
  const auto env = Environment::make_parametric(config);
  Simulator simulator(env);
  auto result = simulator.run(core::BlockedTsallisFleetPolicy::factory(),
                              core::OnlineCarbonTrader::factory(), 5, "Ours");
  audit::clear();
  result.sells[3] += 1e6;
  const auto violations = audit_run(env, result);
  EXPECT_TRUE(has_site(violations, "audit.holdings_clamp") ||
              has_site(violations, "audit.trading_cost_identity"))
      << format_violations(violations);
}

TEST_F(AuditRun, DetectsOutOfBoxTrade) {
  const auto env = Environment::make_parametric(audit_config());
  Simulator simulator(env);
  auto result = simulator.run(random_policy(),
                              trading::RandomTrader::factory(), 6, "x");
  audit::clear();
  result.buys[2] = env.config().max_trade_per_slot + 1.0;
  result.trading_cost[2] = result.buys[2] * env.prices().buy[2] -
                           result.sells[2] * env.prices().sell[2];
  const auto violations = audit_run(env, result);
  ASSERT_TRUE(has_site(violations, "audit.trade_box"))
      << format_violations(violations);
}

TEST_F(AuditRun, DetectsSwitchCountAboveBound) {
  const auto env = Environment::make_parametric(audit_config());
  Simulator simulator(env);
  auto result = simulator.run(random_policy(),
                              trading::RandomTrader::factory(), 7, "x");
  audit::clear();
  result.total_switches = env.num_edges() * env.horizon();  // > I*(T-1)
  EXPECT_TRUE(has_site(audit_run(env, result), "audit.switch_bound"));
}

TEST_F(AuditRun, MirrorsIntoGlobalCollector) {
  const auto env = Environment::make_parametric(audit_config());
  Simulator simulator(env);
  auto result = simulator.run(random_policy(),
                              trading::RandomTrader::factory(), 8, "x");
  audit::clear();
  result.trading_cost[0] += 1.0;
  const auto violations = audit_run(env, result);
  ASSERT_FALSE(violations.empty());
  EXPECT_GE(audit::violation_count(), violations.size());
}

TEST_F(AuditRun, FormatIncludesSiteAndContext) {
  std::vector<audit::Violation> violations;
  violations.push_back({"audit.test_site", "something broke", 2, 17, -1.25});
  const auto text = format_violations(violations);
  EXPECT_NE(text.find("audit.test_site"), std::string::npos);
  EXPECT_NE(text.find("edge=2"), std::string::npos);
  EXPECT_NE(text.find("slot=17"), std::string::npos);
  EXPECT_NE(text.find("something broke"), std::string::npos);
}

TEST_F(AuditRun, FormatTruncatesLongLists) {
  std::vector<audit::Violation> violations(30, {"audit.x", "m", 0, 0, 0.0});
  const auto text = format_violations(violations, 5);
  EXPECT_NE(text.find("and 25 more"), std::string::npos);
}

}  // namespace
}  // namespace cea::sim
