// ServeController input validation and setup cost: a rejected slot leaves
// every tenant untouched, and building tenants costs nothing per slot of
// the horizon.

#include "serve/controller.h"

#include <gtest/gtest.h>

#include <bit>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "serve/feed.h"

namespace cea::serve {
namespace {

TenantSpec make_spec(const std::string& name, std::size_t edges,
                     std::size_t horizon, std::uint64_t seed) {
  TenantSpec spec;
  spec.name = name;
  spec.scenario.num_edges = edges;
  spec.scenario.horizon = horizon;
  spec.scenario.workload.num_slots = horizon;
  spec.scenario.loss_draw_cap = 64;
  spec.scenario.seed = seed;
  spec.combo = sim::ours_combo();
  spec.run_seed = seed + 100;
  return spec;
}

// Every observation as one line of exact values (the counts span aliases
// engine scratch, so it is copied out here).
class ObservationLog final : public TenantSlotObserver {
 public:
  void on_tenant_slot(std::size_t tenant,
                      const sim::SlotObservation& o) override {
    std::ostringstream line;
    line << tenant << ' ' << o.slot << ' ' << o.switches_total << ' '
         << o.solver_lanes << ' ' << o.arena_overflows;
    for (double value :
         {o.trader_dual, o.buy, o.sell, o.buy_price, o.sell_price, o.emission,
          o.balance, o.carbon_cap, o.inference_cost, o.switching_cost,
          o.trading_cost, o.accuracy, o.workload}) {
      line << ' ' << std::bit_cast<std::uint64_t>(value);
    }
    for (std::uint64_t count : o.model_counts) line << ' ' << count;
    lines.push_back(line.str());
  }

  std::vector<std::string> lines;
};

TEST(ServeController, NegativeCountIsRejectedBeforeAnyTenantMoves) {
  const std::vector<TenantSpec> specs = {make_spec("first", 3, 16, 5),
                                         make_spec("second", 3, 16, 6)};
  ServeController rejecting(specs, sim::SimOptions{});
  ServeController clean(specs, sim::SimOptions{});
  ObservationLog rejecting_log;
  ObservationLog clean_log;
  rejecting.set_observer(&rejecting_log);
  clean.set_observer(&clean_log);

  SyntheticFeed feed(clean.total_edges(), 3);
  SlotInput input;
  for (std::size_t t = 0; t < 4; ++t) {
    ASSERT_EQ(feed.poll(t, input), FeedStatus::kReady);
    rejecting.step(input.quote, input.workload);
    clean.step(input.quote, input.workload);
  }

  // The bad count is in the second tenant, so a check made while the
  // tenants are processed in order would already have moved the first.
  ASSERT_EQ(feed.poll(4, input), FeedStatus::kReady);
  std::vector<int> bad = input.workload;
  bad[specs[0].scenario.num_edges + 1] = -1;  // the second tenant's edge 1
  try {
    rejecting.step(input.quote, bad);
    FAIL() << "a negative count was accepted";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("'second'"), std::string::npos) << what;
    EXPECT_NE(what.find("edge 1"), std::string::npos) << what;
    EXPECT_NE(what.find("-1"), std::string::npos) << what;
  }
  EXPECT_EQ(rejecting.slot(), 4u);

  rejecting.step(input.quote, input.workload);
  clean.step(input.quote, input.workload);
  EXPECT_EQ(rejecting_log.lines, clean_log.lines);
  EXPECT_EQ(rejecting.checkpoint_payload(), clean.checkpoint_payload());
}

// Peak resident set size of this process (VmHWM), in kB; 0 if unknown.
std::size_t peak_rss_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stoul(line.substr(6));
  }
  return 0;
}

TEST(ServeController, SetupMemoryIndependentOfHorizon) {
  const std::size_t before_kb = peak_rss_kb();
  if (before_kb == 0) GTEST_SKIP() << "VmHWM not available";
  // A year of 15-minute slots. Tenants take their counts from the feed, so
  // they must not build an [edges x horizon] workload trace, which here
  // would take ~280 MB.
  constexpr std::size_t kYear = 35'040;
  const std::vector<TenantSpec> specs = {make_spec("a", 1'000, kYear, 17),
                                         make_spec("b", 1'000, kYear, 18)};
  ServeController controller(specs, sim::SimOptions{});
  SyntheticFeed feed(controller.total_edges(), 1);
  SlotInput input;
  ASSERT_EQ(feed.poll(0, input), FeedStatus::kReady);
  controller.step(input.quote, input.workload);
  EXPECT_EQ(controller.slot(), 1u);
  EXPECT_LT(peak_rss_kb() - before_kb, 64u * 1024u);
}

}  // namespace
}  // namespace cea::serve
