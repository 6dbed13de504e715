#include <gtest/gtest.h>

#include "sim/environment.h"

namespace cea::sim {
namespace {

SimConfig small_config() {
  SimConfig config;
  config.num_edges = 3;
  config.horizon = 20;
  config.workload.num_slots = 20;
  config.seed = 13;
  return config;
}

data::WorkloadTraces make_traces(std::size_t edges, std::size_t slots,
                                 int value) {
  return data::WorkloadTraces(edges, std::vector<int>(slots, value));
}

data::PriceSeries make_prices(std::size_t slots, double buy) {
  data::PriceSeries series;
  series.buy.assign(slots, buy);
  series.sell.assign(slots, 0.9 * buy);
  return series;
}

TEST(ReplaceTraces, InjectsWorkload) {
  auto env = Environment::make_parametric(small_config());
  env.replace_traces(make_traces(3, 20, 777), {});
  EXPECT_EQ(env.workload()[1][5], 777);
  // Prices untouched.
  EXPECT_GT(env.prices().buy[0], 0.0);
}

TEST(ReplaceTraces, InjectsPrices) {
  auto env = Environment::make_parametric(small_config());
  const auto original_workload = env.workload();
  env.replace_traces({}, make_prices(20, 8.8));
  EXPECT_DOUBLE_EQ(env.prices().buy[3], 8.8);
  EXPECT_DOUBLE_EQ(env.prices().sell[3], 7.92);
  EXPECT_EQ(env.workload(), original_workload);
}

TEST(ReplaceTraces, RejectsWrongEdgeCount) {
  auto env = Environment::make_parametric(small_config());
  EXPECT_THROW(env.replace_traces(make_traces(2, 20, 5), {}),
               std::invalid_argument);
}

TEST(ReplaceTraces, RejectsShortTrace) {
  auto env = Environment::make_parametric(small_config());
  EXPECT_THROW(env.replace_traces(make_traces(3, 10, 5), {}),
               std::invalid_argument);
}

TEST(ReplaceTraces, RejectsShortPrices) {
  auto env = Environment::make_parametric(small_config());
  EXPECT_THROW(env.replace_traces({}, make_prices(5, 8.0)),
               std::invalid_argument);
}

TEST(ReplaceTraces, RejectsNegativeCount) {
  auto env = Environment::make_parametric(small_config());
  auto traces = make_traces(3, 20, 5);
  traces[2][7] = -1;
  EXPECT_THROW(env.replace_traces(traces, {}), std::invalid_argument);
  // Zero is a legal count: FailureInjection's outage slots use it.
  traces[2][7] = 0;
  env.replace_traces(traces, {});
  EXPECT_EQ(env.workload()[2][7], 0);
}

TEST(ReplaceTraces, LongerTracesAccepted) {
  // Real data may cover more slots than the configured horizon.
  auto env = Environment::make_parametric(small_config());
  EXPECT_NO_THROW(env.replace_traces(make_traces(3, 50, 5),
                                     make_prices(50, 7.0)));
}

}  // namespace
}  // namespace cea::sim
