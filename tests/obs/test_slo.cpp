#include "obs/slo.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

namespace cea::obs {
namespace {

SloTenantSlot slot(std::uint64_t t, double emission, double balance,
                   std::uint64_t horizon = 100) {
  SloTenantSlot observed;
  observed.slot = t;
  observed.horizon = horizon;
  observed.emission = emission;
  observed.balance = balance;
  return observed;
}

TEST(SloWatchdog, QuietWhenOnPace) {
  // 1 unit of emission per slot with a balance that always covers the
  // remaining horizon: no rule fires.
  SloWatchdog watchdog(SloConfig{}, 1);
  for (std::uint64_t t = 0; t < 50; ++t) {
    watchdog.observe_slot(0, slot(t, 1.0, 200.0));
  }
  EXPECT_TRUE(watchdog.drain().empty());
  EXPECT_EQ(watchdog.total(), 0u);
}

TEST(SloWatchdog, ProjectedCapBreachFiresOnceAndReports) {
  SloWatchdog watchdog(SloConfig{}, 1);
  // 2 units/slot, 90 slots remaining after t=9, balance 50: projected
  // remaining emissions 180 > 50 — on pace to settle uncovered.
  std::vector<SloAlert> raised;
  for (std::uint64_t t = 0; t < 10; ++t) {
    watchdog.observe_slot(0, slot(t, 2.0, 50.0));
    for (const SloAlert& alert : watchdog.drain()) raised.push_back(alert);
  }
  ASSERT_EQ(raised.size(), 1u);  // edge-triggered: one alert per episode
  EXPECT_EQ(raised[0].kind, SloKind::kProjectedCapBreach);
  EXPECT_EQ(raised[0].tenant, 0u);
  EXPECT_GT(raised[0].value, raised[0].threshold);
  EXPECT_EQ(watchdog.counts()[static_cast<std::size_t>(
                SloKind::kProjectedCapBreach)],
            1u);
}

TEST(SloWatchdog, BreachRearmsAfterRecovery) {
  SloWatchdog watchdog(SloConfig{.window = 4}, 1);
  std::size_t breaches = 0;
  auto count_breaches = [&] {
    for (const SloAlert& alert : watchdog.drain()) {
      if (alert.kind == SloKind::kProjectedCapBreach) ++breaches;
    }
  };
  // Burn hot (breach), cool down until the window mean clears, burn hot
  // again: the rule must re-arm and fire a second episode.
  std::uint64_t t = 0;
  for (; t < 8; ++t) watchdog.observe_slot(0, slot(t, 5.0, 10.0)), count_breaches();
  EXPECT_EQ(breaches, 1u);
  for (; t < 40; ++t) watchdog.observe_slot(0, slot(t, 0.0, 10.0)), count_breaches();
  EXPECT_EQ(breaches, 1u);  // recovered, no new alert
  for (; t < 48; ++t) watchdog.observe_slot(0, slot(t, 5.0, 10.0)), count_breaches();
  EXPECT_EQ(breaches, 2u);
}

TEST(SloWatchdog, InsolvencyFiresAtFloorPerTenant) {
  // Emissions near zero keep the breach projection quiet so the drained
  // alert is the insolvency alone.
  SloWatchdog watchdog(SloConfig{.min_balance = 1.0}, 2);
  watchdog.observe_slot(0, slot(0, 1e-6, 5.0));
  watchdog.observe_slot(1, slot(0, 1e-6, 0.5));  // below the floor
  const auto alerts = watchdog.drain();
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].kind, SloKind::kAllowanceInsolvency);
  EXPECT_EQ(alerts[0].tenant, 1u);
  EXPECT_DOUBLE_EQ(alerts[0].value, 0.5);
  EXPECT_DOUBLE_EQ(alerts[0].threshold, 1.0);
}

TEST(SloWatchdog, FeedStallIsEdgeTriggeredAndDisabledAtZero) {
  SloConfig config;
  config.feed_stall_ms = 100;
  SloWatchdog watchdog(config, 1);
  watchdog.observe_feed(3, /*now_ms=*/1000, /*last_ready_ms=*/950);
  EXPECT_TRUE(watchdog.drain().empty());
  watchdog.observe_feed(3, 1200, 950);  // 250ms stale
  auto alerts = watchdog.drain();
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].kind, SloKind::kFeedStall);
  EXPECT_EQ(alerts[0].tenant, kSloNoTenant);
  watchdog.observe_feed(3, 1300, 950);  // still the same stall episode
  EXPECT_TRUE(watchdog.drain().empty());
  watchdog.observe_feed(4, 1400, 1400);  // feed recovered
  watchdog.observe_feed(5, 1600, 1400);  // new stall episode
  EXPECT_EQ(watchdog.drain().size(), 1u);

  SloWatchdog disabled(SloConfig{}, 1);  // feed_stall_ms = 0
  disabled.observe_feed(0, 1'000'000, 0);
  EXPECT_TRUE(disabled.drain().empty());
}

TEST(SloWatchdog, DeadlineMissIsLevelTriggered) {
  SloConfig config;
  config.slot_deadline_ms = 10;
  SloWatchdog watchdog(config, 1);
  watchdog.observe_slot_wall(0, 5);
  watchdog.observe_slot_wall(1, 25);
  watchdog.observe_slot_wall(2, 25);  // every miss fires
  const auto alerts = watchdog.drain();
  ASSERT_EQ(alerts.size(), 2u);
  EXPECT_EQ(alerts[0].kind, SloKind::kSlotDeadlineMiss);
  EXPECT_EQ(alerts[1].slot, 2u);
  EXPECT_EQ(watchdog.total(), 2u);
}

TEST(SloWatchdog, IdenticalInputsRaiseIdenticalAlerts) {
  // Determinism pin: the watchdog is a pure function of its observation
  // sequence, so two instances fed the same slots agree alert-for-alert.
  SloConfig config;
  config.window = 8;
  config.slot_deadline_ms = 3;
  auto run = [&config] {
    SloWatchdog watchdog(config, 2);
    std::vector<SloAlert> raised;
    for (std::uint64_t t = 0; t < 64; ++t) {
      const double emission = 0.5 + static_cast<double>((t * 7) % 5);
      watchdog.observe_slot(0, slot(t, emission, 40.0 - emission, 64));
      watchdog.observe_slot(1, slot(t, 0.25, 100.0, 64));
      watchdog.observe_slot_wall(t, static_cast<std::int64_t>(t % 6));
      for (const SloAlert& alert : watchdog.drain()) raised.push_back(alert);
    }
    return raised;
  };
  const auto first = run();
  const auto second = run();
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].kind, second[i].kind);
    EXPECT_EQ(first[i].tenant, second[i].tenant);
    EXPECT_EQ(first[i].slot, second[i].slot);
    EXPECT_DOUBLE_EQ(first[i].value, second[i].value);
  }
}

TEST(SloWatchdog, AlertsDependOnlyOnTheWindowSlotAndBalance) {
  // A tenant's alerts are a function of its last `window` emissions, the
  // slot and the balance — not of what came before the window — so the
  // saved window (save_state) is all a restore needs.
  // One watchdog first sees a huge emission that has left the window; the
  // other never saw it.
  SloConfig config;
  config.window = 4;
  SloWatchdog long_history(config, 1);
  SloWatchdog window_only(config, 1);
  long_history.observe_slot(0, slot(0, 1e17, 1e30));
  for (std::uint64_t t = 1; t <= 4; ++t) {
    long_history.observe_slot(0, slot(t, 0.1, 1e30));
    window_only.observe_slot(0, slot(t, 0.1, 1e30));
  }
  EXPECT_TRUE(long_history.drain().empty());
  EXPECT_TRUE(window_only.drain().empty());

  long_history.observe_slot(0, slot(5, 0.1, 0.5));
  window_only.observe_slot(0, slot(5, 0.1, 0.5));
  const auto a = long_history.drain();
  const auto b = window_only.drain();
  ASSERT_EQ(a.size(), 1u);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(a[0].kind, SloKind::kProjectedCapBreach);
  EXPECT_EQ(a[0].kind, b[0].kind);
  EXPECT_EQ(a[0].slot, b[0].slot);
  EXPECT_EQ(std::memcmp(&a[0].value, &b[0].value, sizeof(double)), 0)
      << a[0].value << " vs " << b[0].value;
  EXPECT_EQ(std::memcmp(&a[0].threshold, &b[0].threshold, sizeof(double)),
            0);
}

// Both tenants' inputs at slot t: emissions cycling through 0.5-4.5 and
// balances that swing between plenty and a falling, finally negative
// floor, so breach episodes open and close and insolvency fires.
void feed(SloWatchdog& watchdog, std::uint64_t t) {
  const double emission = 0.5 + static_cast<double>((t * 7) % 5);
  const double low = 5.0 - 0.5 * static_cast<double>(t);
  watchdog.observe_slot(0, slot(t, emission, t % 16 < 8 ? 200.0 : low, 64));
  watchdog.observe_slot(
      1, slot(t, 0.25 * emission, 30.0 - static_cast<double>(t), 64));
}

std::string saved(const SloWatchdog& watchdog) {
  util::StateWriter writer;
  watchdog.save_state(writer);
  return writer.take();
}

void load(SloWatchdog& watchdog, const std::string& state) {
  util::StateReader reader(state);
  watchdog.load_state(reader);
  reader.expect_end();
}

TEST(SloWatchdog, StateRoundTripsAndContinuesIdentically) {
  // Saved at slot k (before the window fills, as it fills, and after)
  // and loaded into a fresh watchdog, the state raises exactly the alerts
  // the original raises from k on, with the same bits, and saves back to
  // the same bytes.
  SloConfig config;
  config.window = 8;
  std::size_t continued_alerts = 0;
  for (const std::uint64_t k : {0, 3, 8, 20}) {
    SloWatchdog original(config, 2);
    for (std::uint64_t t = 0; t < k; ++t) feed(original, t);
    original.drain();
    const std::string state = saved(original);
    SloWatchdog restored(config, 2);
    load(restored, state);
    EXPECT_EQ(saved(restored), state) << "k = " << k;
    for (std::uint64_t t = k; t < 64; ++t) {
      feed(original, t);
      feed(restored, t);
      const auto a = original.drain();
      const auto b = restored.drain();
      ASSERT_EQ(a.size(), b.size()) << "k = " << k << ", slot " << t;
      for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].kind, b[i].kind);
        EXPECT_EQ(a[i].tenant, b[i].tenant);
        EXPECT_EQ(a[i].slot, b[i].slot);
        EXPECT_EQ(std::memcmp(&a[i].value, &b[i].value, sizeof(double)), 0);
        EXPECT_EQ(
            std::memcmp(&a[i].threshold, &b[i].threshold, sizeof(double)), 0);
      }
      continued_alerts += a.size();
    }
    EXPECT_EQ(saved(restored), saved(original)) << "k = " << k;
  }
  EXPECT_GE(continued_alerts, 8u);  // the pattern does raise alerts

  // Under a smaller window each tenant keeps its newest samples.
  SloWatchdog wide(config, 2);
  for (std::uint64_t t = 0; t < 20; ++t) feed(wide, t);
  SloConfig narrow_config;
  narrow_config.window = 3;
  SloWatchdog narrow(narrow_config, 2);
  const std::string wide_bytes = saved(wide);
  load(narrow, wide_bytes);
  util::StateReader wide_state(wide_bytes);
  wide_state.read_u64("slo.window");
  wide_state.read_u64("slo.tenants");
  const std::vector<double> newest = wide_state.read_doubles("slo.emissions");
  ASSERT_EQ(newest.size(), 8u);
  const std::string narrow_bytes = saved(narrow);
  util::StateReader narrow_state(narrow_bytes);
  EXPECT_EQ(narrow_state.read_u64("slo.window"), 3u);
  EXPECT_EQ(narrow_state.read_u64("slo.tenants"), 2u);
  EXPECT_EQ(narrow_state.read_doubles("slo.emissions"),
            std::vector<double>(newest.end() - 3, newest.end()));

  // A state saved for another tenant count is refused.
  SloWatchdog other(config, 3);
  util::StateReader reader(wide_bytes);
  EXPECT_THROW(other.load_state(reader), util::StateError);
}

TEST(SloWatchdog, KindNamesAreStable) {
  // The journal's alert field and the metrics labels depend on these
  // exact spellings; renaming them is a format break.
  EXPECT_STREQ(slo_kind_name(SloKind::kProjectedCapBreach),
               "projected_cap_breach");
  EXPECT_STREQ(slo_kind_name(SloKind::kAllowanceInsolvency),
               "allowance_insolvency");
  EXPECT_STREQ(slo_kind_name(SloKind::kFeedStall), "feed_stall");
  EXPECT_STREQ(slo_kind_name(SloKind::kSlotDeadlineMiss),
               "slot_deadline_miss");
}

}  // namespace
}  // namespace cea::obs
