// Fleet-scale contract of the arena-backed SoA slot engine: serial and
// pooled edge-sharded execution are bit-identical (up to 10k edges x 160
// slots — the tentpole gate), every shard grain reduces identically, and
// the slot path never overflows its up-front arena reservation. A serial
// engine presolves each slot's OMD steps in one cross-edge batch while a
// pooled one solves them inside its shards, so the serial-vs-pooled
// checks also pin the two solve paths against each other.
#include <gtest/gtest.h>

#include "data/workload.h"
#include "sim/experiment.h"
#include "sim/simulator.h"
#include "util/thread_pool.h"

namespace cea::sim {
namespace {

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

/// fig03's scenario prorated to `edges` (like fig04/perf_fleet), with the
/// loss-draw cap lowered so the 10k-edge gate stays a fast test: the cap
/// only bounds per-slot sampling work, every engine mode applies it
/// identically, so bit-identity is unaffected.
Environment fleet_environment(std::size_t edges,
                              data::WorkloadKind kind =
                                  data::WorkloadKind::kDiurnal) {
  SimConfig config;
  config.num_edges = edges;
  config.carbon_cap = 50.0 * static_cast<double>(edges);
  config.max_trade_per_slot = 2.5 * static_cast<double>(edges);
  config.loss_draw_cap = 16;
  config.seed = 42;
  config.workload.kind = kind;
  return Environment::make_parametric(config);
}

TEST(FleetEngine, TenThousandEdgesSerialVsPooledBitIdentical) {
  // The tentpole acceptance gate: 10,000 edges x 160 slots, SoA fleet
  // policy, pooled run bit-identical to the serial run, zero arena
  // overflows on both.
  const auto env = fleet_environment(10000);
  const auto combo = ours_combo();
  util::ThreadPool pool(4);
  const auto serial = run_combo(env, combo, 3);
  const auto pooled = run_combo_pooled(env, combo, 3, &pool);
  expect_bit_identical(serial, pooled);
  EXPECT_EQ(serial.arena_overflows, 0u);
  EXPECT_EQ(pooled.arena_overflows, 0u);
}

TEST(FleetEngine, ShardGrainDoesNotChangeResults) {
  // edge_shard_grain is purely a scheduling knob: the serial edge-ordered
  // reduction makes every grain (including grain >= num_edges, which runs
  // as one shard) bit-identical.
  const auto env = fleet_environment(300);
  const auto combo = ours_combo();
  const auto reference = run_combo(env, combo, 5);
  util::ThreadPool pool(3);
  for (std::size_t grain : {std::size_t{1}, std::size_t{7}, std::size_t{64},
                            std::size_t{1000}}) {
    const auto sharded = run_combo_pooled(env, combo, 5, &pool, grain);
    expect_bit_identical(reference, sharded);
    EXPECT_EQ(sharded.arena_overflows, 0u) << "grain " << grain;
  }
}

TEST(FleetEngine, HeavyTailWorkloadSerialVsPooledBitIdentical) {
  // The keyed heavy-tailed generator drives the engine the same way the
  // diurnal one does; pooled execution stays bit-identical under it.
  const auto env = fleet_environment(500, data::WorkloadKind::kHeavyTail);
  const auto combo = ours_combo();
  util::ThreadPool pool(2);
  expect_bit_identical(run_combo(env, combo, 1),
                       run_combo_pooled(env, combo, 1, &pool));
}

TEST(FleetEngine, FlashCrowdWorkloadSerialVsPooledBitIdentical) {
  const auto env = fleet_environment(500, data::WorkloadKind::kFlashCrowd);
  const auto combo = ours_combo();
  util::ThreadPool pool(2);
  expect_bit_identical(run_combo(env, combo, 1),
                       run_combo_pooled(env, combo, 1, &pool));
}

TEST(FleetEngine, ZeroOverflowsAcrossEngineModes) {
  // The arena reservation covers every engine mode's slot path: serial
  // (with the cross-edge presolve), pooled, and fixed-choice.
  const auto env = fleet_environment(50);
  const auto combo = ours_combo();
  EXPECT_EQ(run_combo(env, combo, 2).arena_overflows, 0u);
  util::ThreadPool pool(2);
  EXPECT_EQ(run_combo_pooled(env, combo, 2, &pool).arena_overflows, 0u);
  const Simulator simulator(env);
  const std::vector<std::size_t> choice(env.num_edges(), 0);
  EXPECT_EQ(simulator.run(bandit::fixed_policy(choice), combo.trader, 2,
                          "fixed")
                .arena_overflows,
            0u);
}

TEST(FleetEngine, AveragedPooledMatchesAveragedSerial) {
  // The experiment-level pooled helper reduces run averages identically to
  // the serial helper (same seeds, serial run loop, pooled inner engine).
  const auto env = fleet_environment(40);
  const auto combo = ours_combo();
  util::ThreadPool pool(3);
  const auto serial = run_combo_averaged(env, combo, 4, 100);
  const auto pooled = run_combo_averaged_pooled(env, combo, 4, 100, &pool);
  EXPECT_EQ(serial.inference_cost, pooled.inference_cost);
  EXPECT_EQ(serial.trading_cost, pooled.trading_cost);
  EXPECT_EQ(serial.accuracy, pooled.accuracy);
  EXPECT_EQ(serial.selection_counts, pooled.selection_counts);
  EXPECT_EQ(serial.total_switches, pooled.total_switches);
}

}  // namespace
}  // namespace cea::sim
