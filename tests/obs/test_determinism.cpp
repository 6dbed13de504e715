// Telemetry is observational only: recording counters, spans and trace
// events must not perturb a single bit of the simulation output — with
// tracing on or off, detail on or off, serial or pooled. These tests are
// the enforcement of that contract (the golden-trace suite then pins the
// values themselves).

#include <gtest/gtest.h>

#include "../core/blocked_tsallis_inf.h"
#include "bandit/fleet_policy.h"
#include "obs/telemetry.h"
#include "sim/experiment.h"
#include "sim/simulator.h"
#include "util/thread_pool.h"

namespace cea::sim {
namespace {

SimConfig small_config() {
  SimConfig config;
  config.num_edges = 6;
  config.horizon = 50;
  config.workload.num_slots = 50;
  config.workload.mean_samples = 250.0;
  config.loss_draw_cap = 64;
  config.seed = 17;
  return config;
}

void expect_bit_identical(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.inference_cost, b.inference_cost);
  EXPECT_EQ(a.switching_cost, b.switching_cost);
  EXPECT_EQ(a.trading_cost, b.trading_cost);
  EXPECT_EQ(a.emissions, b.emissions);
  EXPECT_EQ(a.buys, b.buys);
  EXPECT_EQ(a.sells, b.sells);
  EXPECT_EQ(a.accuracy, b.accuracy);
  EXPECT_EQ(a.workload, b.workload);
  EXPECT_EQ(a.selection_counts, b.selection_counts);
  EXPECT_EQ(a.total_switches, b.total_switches);
}

RunResult run_once(const Environment& env, util::ThreadPool* pool) {
  const auto combo = ours_combo();
  SimOptions options;
  options.pool = pool;
  const Simulator simulator(env, options);
  return simulator.run(combo.policy, combo.trader, /*seed=*/5, combo.name);
}

class TelemetryDeterminism : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::disable_tracing();
    obs::set_detail(false);
    obs::reset();
  }
  void TearDown() override {
    obs::disable_tracing();
    obs::set_detail(false);
    obs::drain_trace();
    obs::reset();
  }
};

TEST_F(TelemetryDeterminism, TracingAndDetailDoNotPerturbSerialRun) {
  const auto env = Environment::make_parametric(small_config());
  const RunResult baseline = run_once(env, nullptr);

  obs::enable_tracing();
  obs::set_detail(true);
  const RunResult traced = run_once(env, nullptr);

  expect_bit_identical(baseline, traced);
  if (obs::compiled_in()) {
    // The traced run must actually have recorded something, otherwise this
    // test proves nothing.
    EXPECT_FALSE(obs::drain_trace().empty());
  }
}

TEST_F(TelemetryDeterminism, TracingAndDetailDoNotPerturbPooledRun) {
  const auto env = Environment::make_parametric(small_config());
  util::ThreadPool pool(3);
  const RunResult baseline = run_once(env, &pool);

  obs::enable_tracing();
  obs::set_detail(true);
  const RunResult traced = run_once(env, &pool);
  expect_bit_identical(baseline, traced);

  // And across engines while traced: pooled == serial, still bit-exact.
  const RunResult serial_traced = run_once(env, nullptr);
  expect_bit_identical(traced, serial_traced);
}

TEST_F(TelemetryDeterminism, BlockScheduleMetricsMatchAcrossPolicyPaths) {
  // The SoA fleet (every Ours run and the daemon) exports the block
  // schedule: it must report the same block count and block-length
  // histogram as the per-edge test oracle behind the fleet adapter, and
  // recording them changes no result bit.
  const auto env = Environment::make_parametric(small_config());
  const auto combo = ours_combo();
  const Simulator simulator(env);
  const RunResult quiet =
      simulator.run(combo.policy, combo.trader, 5, combo.name);

  obs::set_detail(true);
  struct BlockMetrics {
    double blocks = 0.0;
    obs::HistogramValue lengths;
  };
  const auto block_metrics = [] {
    BlockMetrics metrics;
    const auto snap = obs::snapshot();
    for (const auto& counter : snap.counters)
      if (counter.name == "bandit.blocks") metrics.blocks = counter.value;
    for (const auto& hist : snap.histograms)
      if (hist.name == "bandit.block_length") metrics.lengths = hist;
    return metrics;
  };
  obs::reset();
  const RunResult fleet =
      simulator.run(combo.policy, combo.trader, 5, combo.name);
  const BlockMetrics fleet_metrics = block_metrics();
  obs::reset();
  const RunResult per_edge = simulator.run(
      bandit::adapt_per_edge(core::BlockedTsallisInfPolicy::factory()),
      combo.trader, 5, combo.name);
  const BlockMetrics per_edge_metrics = block_metrics();

  expect_bit_identical(quiet, fleet);
  expect_bit_identical(fleet, per_edge);
  if (!obs::compiled_in()) return;
  EXPECT_GT(fleet_metrics.blocks, 0.0);
  EXPECT_EQ(fleet_metrics.blocks, per_edge_metrics.blocks);
  EXPECT_EQ(fleet_metrics.lengths.count,
            static_cast<std::uint64_t>(fleet_metrics.blocks));
  EXPECT_EQ(fleet_metrics.lengths.bucket_counts,
            per_edge_metrics.lengths.bucket_counts);
  EXPECT_EQ(fleet_metrics.lengths.count, per_edge_metrics.lengths.count);
  EXPECT_EQ(fleet_metrics.lengths.sum, per_edge_metrics.lengths.sum);
}

TEST_F(TelemetryDeterminism, SlotPhaseSpansCoverTheSlot) {
  if (!obs::compiled_in()) GTEST_SKIP() << "telemetry compiled out";
  const auto env = Environment::make_parametric(small_config());
  // The inner phase spans (decide/reduce/feedback/audit) are detail-gated
  // to keep the idle-telemetry cost under budget; enable detail so the
  // full phase breakdown records, as the --telemetry harness does.
  obs::set_detail(true);
  run_once(env, nullptr);

  const auto snap = obs::snapshot();
  double slot_sum = 0.0;
  double phase_sum = 0.0;
  std::uint64_t slot_count = 0;
  for (const auto& hist : snap.histograms) {
    if (hist.name == "sim.slot") {
      slot_sum = hist.sum;
      slot_count = hist.count;
    } else if (hist.name == "sim.presolve" || hist.name == "sim.edges" ||
               hist.name == "sim.reduce" ||
               hist.name == "sim.trader.decide" ||
               hist.name == "sim.trader.feedback" ||
               hist.name == "sim.audit") {
      phase_sum += hist.sum;
    }
  }
  EXPECT_EQ(slot_count, 50u);  // one span per slot
  EXPECT_GT(slot_sum, 0.0);
  // The named phases must account for the bulk of the slot span; the
  // remainder is loop scaffolding (a few scalar ops per slot).
  EXPECT_GT(phase_sum, 0.5 * slot_sum);
  EXPECT_LE(phase_sum, slot_sum * 1.01);
}

}  // namespace
}  // namespace cea::sim
