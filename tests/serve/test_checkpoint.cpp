// The checkpoint/restore bit-identity contract of the serving stack
// (ISSUE: kill at ANY slot boundary + restore == uninterrupted run, bit
// for bit, for serial and pooled engines and multi-tenant controllers),
// plus rejection of damaged or mismatched checkpoints.

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "../integration/golden_trace.h"
#include "bandit/fleet_policy.h"
#include "obs/journal.h"
#include "obs/prom.h"
#include "serve/controller.h"
#include "serve/daemon.h"
#include "serve/feed.h"
#include "sim/experiment.h"
#include "sim/series_recorder.h"
#include "util/state_io.h"
#include "util/thread_pool.h"

namespace cea::serve {
namespace {

using sim::golden::Trace;
using sim::golden::diff_traces;
using sim::golden::join_diffs;
using sim::golden::trace_of;

// One tenant on the golden scenario shape, customizable per test.
TenantSpec make_spec(const std::string& name, std::uint64_t env_seed,
                     std::uint64_t run_seed, std::size_t horizon,
                     std::size_t edges = 3) {
  TenantSpec spec;
  spec.name = name;
  spec.scenario = sim::golden::golden_config();
  spec.scenario.num_edges = edges;
  spec.scenario.horizon = horizon;
  spec.scenario.workload.num_slots = horizon;
  spec.scenario.seed = env_seed;
  spec.combo = sim::ours_combo();
  spec.run_seed = run_seed;
  return spec;
}

// Advance the controller to `until` by polling the feed slot by slot.
void drive(ServeController& controller, FeedSource& feed, std::size_t until) {
  SlotInput input;
  while (controller.slot() < until) {
    ASSERT_EQ(feed.poll(controller.slot(), input), FeedStatus::kReady);
    controller.step(input.quote, input.workload);
  }
}

// The engines keep no history: a test records a controller's slots by
// attaching a SeriesRecorder to every tenant engine.
void record(ServeController& controller, sim::SeriesRecorder& series) {
  for (std::size_t i = 0; i < controller.num_tenants(); ++i) {
    controller.tenant_engine(i).set_observer(&series, i);
  }
}

// The record of a run split across two lives: the first life's slots,
// then the second's. Selection counts add up; the switch total and the
// arena overflows are cumulative, so the later life's stand.
sim::RunResult joined(sim::RunResult first, const sim::RunResult& second) {
  const auto append = [](std::vector<double>& to,
                         const std::vector<double>& from) {
    to.insert(to.end(), from.begin(), from.end());
  };
  append(first.inference_cost, second.inference_cost);
  append(first.switching_cost, second.switching_cost);
  append(first.trading_cost, second.trading_cost);
  append(first.emissions, second.emissions);
  append(first.buys, second.buys);
  append(first.sells, second.sells);
  append(first.accuracy, second.accuracy);
  append(first.workload, second.workload);
  if (second.horizon() == 0) return first;
  if (first.selection_counts.empty()) {
    first.selection_counts = second.selection_counts;
  } else {
    for (std::size_t i = 0; i < first.selection_counts.size(); ++i)
      for (std::size_t n = 0; n < first.selection_counts[i].size(); ++n)
        first.selection_counts[i][n] += second.selection_counts[i][n];
  }
  first.total_switches = second.total_switches;
  first.arena_overflows = second.arena_overflows;
  first.carbon_cap = second.carbon_cap;
  return first;
}

std::vector<Trace> traces_of(const sim::SeriesRecorder& series) {
  std::vector<Trace> traces;
  for (std::size_t i = 0; i < series.num_tenants(); ++i) {
    traces.push_back(trace_of(series.result(i)));
  }
  return traces;
}

// Every tenant's recorded slots match, and so do the controllers' final
// decision states, byte for byte.
void expect_identical(ServeController& expected,
                      const std::vector<Trace>& expected_traces,
                      ServeController& actual,
                      const std::vector<Trace>& actual_traces) {
  ASSERT_EQ(expected.num_tenants(), actual.num_tenants());
  ASSERT_EQ(expected_traces.size(), actual_traces.size());
  for (std::size_t i = 0; i < expected_traces.size(); ++i) {
    const auto diffs = diff_traces(expected_traces[i], actual_traces[i]);
    EXPECT_TRUE(diffs.empty())
        << "tenant " << expected.tenant_name(i) << ":\n" << join_diffs(diffs);
  }
  EXPECT_EQ(expected.checkpoint_payload(), actual.checkpoint_payload());
}

// A second life's record continues the first life's.
std::vector<Trace> traces_of(const sim::SeriesRecorder& first_life,
                             const sim::SeriesRecorder& second_life) {
  std::vector<Trace> traces;
  for (std::size_t i = 0; i < first_life.num_tenants(); ++i) {
    traces.push_back(
        trace_of(joined(first_life.result(i), second_life.result(i))));
  }
  return traces;
}

std::string temp_checkpoint_path() {
  return ::testing::TempDir() + "cea_serve_ckpt_" +
         ::testing::UnitTest::GetInstance()->current_test_info()->name();
}

/// Remove a checkpoint and the temp file its writer keeps beside it.
void remove_checkpoint(const std::string& path) {
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
}

// ---------------------------------------------------------------------------
// Streaming == batch: a daemon replaying the environment's own traces
// reproduces Simulator::run (via run_combo) bit for bit.
// ---------------------------------------------------------------------------

TEST(ServeVsSimulator, ReplayedDaemonMatchesBatchRunBitForBit) {
  const auto config = sim::golden::golden_config();
  const auto env = sim::Environment::make_parametric(config);
  const auto combo = sim::ours_combo();
  const auto batch = sim::run_combo(env, combo, sim::golden::kGoldenRunSeed);

  std::vector<TenantSpec> specs = {make_spec("solo", config.seed,
                                             sim::golden::kGoldenRunSeed,
                                             config.horizon)};
  ServeController controller(specs, sim::SimOptions{});
  ReplayFeed feed(env.workload(), env.prices());
  sim::SeriesRecorder series(1);
  ServeDaemon daemon(controller, feed, DaemonConfig{}, &series);
  const DaemonReport report = daemon.run();

  EXPECT_TRUE(report.feed_ended);
  EXPECT_EQ(report.final_slot, config.horizon);
  EXPECT_EQ(report.slots_processed, config.horizon);
  // The settlement price is a scenario fact, not a slot's output.
  sim::RunResult served = series.result(0);
  served.algorithm = batch.algorithm;
  served.settlement_price = controller.tenant_env(0).settlement_price();
  const auto diffs = diff_traces(trace_of(batch), trace_of(served));
  EXPECT_TRUE(diffs.empty()) << join_diffs(diffs);
}

// ---------------------------------------------------------------------------
// Kill-at-ANY-slot-boundary: checkpoint at every k in [0, horizon], restore
// into a fresh controller, continue — the final state must be bit-identical
// to the uninterrupted run.
// ---------------------------------------------------------------------------

TEST(CheckpointRoundTrip, EverySlotBoundaryRestoresBitIdentically) {
  constexpr std::size_t kHorizon = 12;
  const auto specs = std::vector<TenantSpec>{make_spec("t0", 21, 5, kHorizon,
                                                       /*edges=*/2)};
  SyntheticFeed feed(2, 77);

  ServeController reference(specs, sim::SimOptions{});
  sim::SeriesRecorder reference_series(1);
  record(reference, reference_series);
  drive(reference, feed, kHorizon);
  const auto reference_traces = traces_of(reference_series);
  const std::string reference_payload = reference.checkpoint_payload();

  for (std::size_t k = 0; k <= kHorizon; ++k) {
    ServeController first_life(specs, sim::SimOptions{});
    sim::SeriesRecorder first_series(1);
    record(first_life, first_series);
    drive(first_life, feed, k);
    const std::string payload = first_life.checkpoint_payload();

    ServeController second_life(specs, sim::SimOptions{});
    sim::SeriesRecorder second_series(1);
    record(second_life, second_series);
    second_life.restore_payload(payload);
    ASSERT_EQ(second_life.slot(), k);
    drive(second_life, feed, kHorizon);

    const auto restored = traces_of(first_series, second_series);
    const auto diffs = diff_traces(reference_traces[0], restored[0]);
    EXPECT_TRUE(diffs.empty())
        << "checkpoint at slot " << k << ":\n" << join_diffs(diffs);
    EXPECT_EQ(second_life.checkpoint_payload(), reference_payload)
        << "checkpoint at slot " << k;
  }
}

TEST(Checkpoint, PerEdgeBytesFollowTheRecordLayout) {
  // Per edge and model: the Chat and p slabs (f64), 16 bytes. Per edge:
  // one rng[] element (41), the warm root and block loss (f64, 16), the
  // block index, arm and slots left (u32, 12), the block-open and
  // presolved flags (u8, 2) and the hosted model (u32, 4), 75 bytes.
  // Everything else is the same for any E.
  constexpr std::size_t kEdges = 5;
  constexpr std::size_t kSlots = 7;
  std::vector<std::size_t> sizes;
  std::size_t models = 0;
  for (const std::size_t edges : {kEdges, 2 * kEdges}) {
    const std::vector<TenantSpec> specs = {
        make_spec("solo", 21, 5, 2 * kSlots, edges)};
    ServeController controller(specs, sim::SimOptions{});
    SyntheticFeed feed(edges, 77);
    drive(controller, feed, kSlots);
    sizes.push_back(controller.checkpoint_payload().size());
    models = controller.tenant_engine(0).num_models();
  }
  ASSERT_GT(models, 0u);
  EXPECT_EQ(sizes[1] - sizes[0], kEdges * (16 * models + 75));
}

TEST(Checkpoint, PayloadSizeIndependentOfRunLength) {
  // The payload holds decision state only: no per-slot history. Without
  // an observer it is the same size after 1 slot and after 1,000; with the
  // daemon's observer it grows only until the SLO window (16 slots) fills.
  constexpr std::size_t kSlots = 1000;
  const std::vector<TenantSpec> specs = {make_spec("t0", 21, 5, kSlots)};
  {
    ServeController controller(specs, sim::SimOptions{});
    SyntheticFeed feed(3, 77);
    drive(controller, feed, 1);
    const std::size_t early = controller.checkpoint_payload().size();
    drive(controller, feed, kSlots);
    EXPECT_EQ(controller.checkpoint_payload().size(), early);
  }
  {
    ServeController controller(specs, sim::SimOptions{});
    SyntheticFeed feed(3, 77);
    DaemonConfig config;  // observability on, no files
    config.slo.slot_deadline_ms = 1000000;
    ASSERT_EQ(config.slo.window, 16u);
    ServeDaemon daemon(controller, feed, config);
    drive(controller, feed, 20);
    const std::size_t early = controller.checkpoint_payload().size();
    drive(controller, feed, kSlots);
    EXPECT_EQ(controller.checkpoint_payload().size(), early);
  }
}

TEST(CheckpointRoundTrip, FixedPolicyTenantRestoresBitIdentically) {
  // The fixed policy is stateless: its checkpoint section is empty, and a
  // tenant restored mid-run continues exactly like the uninterrupted one.
  constexpr std::size_t kHorizon = 12;
  auto spec = make_spec("fixed", 21, 5, kHorizon, /*edges=*/2);
  spec.combo.name = "Fixed";
  spec.combo.policy = bandit::fixed_policy({1, 4});
  SyntheticFeed feed(2, 77);

  ServeController reference({spec}, sim::SimOptions{});
  sim::SeriesRecorder reference_series(1);
  record(reference, reference_series);
  drive(reference, feed, kHorizon);

  ServeController first_life({spec}, sim::SimOptions{});
  sim::SeriesRecorder first_series(1);
  record(first_life, first_series);
  drive(first_life, feed, kHorizon / 2);
  ServeController second_life({spec}, sim::SimOptions{});
  sim::SeriesRecorder second_series(1);
  record(second_life, second_series);
  second_life.restore_payload(first_life.checkpoint_payload());
  drive(second_life, feed, kHorizon);
  expect_identical(reference, traces_of(reference_series), second_life,
                   traces_of(first_series, second_series));
  const auto counts =
      joined(first_series.result(0), second_series.result(0))
          .selection_counts;
  EXPECT_EQ(counts[0][1], kHorizon);
  EXPECT_EQ(counts[1][4], kHorizon);
}

TEST(CheckpointRoundTrip, RestoresAcrossObserverKinds) {
  // The observer record is optional on both sides. A checkpoint written
  // with no observer, or with a stateless one, restores into a daemon with
  // observability on, whose watchdog then starts fresh; a daemon's
  // checkpoint, watchdog state included, restores into a bare controller,
  // which ignores that record, and into another daemon, which saves it
  // back byte for byte. Every second life continues the uninterrupted run.
  constexpr std::size_t kHorizon = 40;
  constexpr std::size_t kAt = 20;
  const std::vector<TenantSpec> specs = {make_spec("alpha", 17, 7, kHorizon),
                                         make_spec("beta", 18, 8, kHorizon)};
  const std::string path = temp_checkpoint_path();
  SyntheticFeed feed(6, 1234);
  DaemonConfig observed;  // observability on, no files
  observed.slo.slot_deadline_ms = 1000000;

  ServeController reference(specs, sim::SimOptions{});
  sim::SeriesRecorder reference_series(2);
  record(reference, reference_series);
  drive(reference, feed, kHorizon);

  struct Stateless final : sim::SlotObserver {
    void on_tenant_slot(std::size_t, const sim::SlotObservation&) override {}
  };
  enum class Writer { kNone, kStateless, kDaemon };
  for (const Writer kind : {Writer::kNone, Writer::kStateless,
                            Writer::kDaemon}) {
    ServeController first_life(specs, sim::SimOptions{});
    sim::SeriesRecorder first_series(2);
    Stateless stateless;
    std::string payload;
    if (kind == Writer::kDaemon) {
      ServeDaemon daemon(first_life, feed, observed, &first_series);
      drive(first_life, feed, kAt);
      payload = first_life.checkpoint_payload();
    } else {
      if (kind == Writer::kStateless) first_life.set_observer(&stateless);
      record(first_life, first_series);
      drive(first_life, feed, kAt);
      payload = first_life.checkpoint_payload();
      first_life.set_observer(nullptr);
    }
    util::write_checkpoint_file(path, payload);

    {  // Into a daemon with observability on.
      ServeController second_life(specs, sim::SimOptions{});
      sim::SeriesRecorder second_series(2);
      {
        ServeDaemon daemon(second_life, feed, observed, &second_series);
        daemon.restore_from(path);
        ASSERT_EQ(second_life.slot(), kAt);
        if (kind == Writer::kDaemon) {
          EXPECT_EQ(second_life.checkpoint_payload(), payload);
        }
        drive(second_life, feed, kHorizon);
      }
      expect_identical(reference, traces_of(reference_series), second_life,
                       traces_of(first_series, second_series));
    }
    {  // Into a bare controller.
      ServeController second_life(specs, sim::SimOptions{});
      sim::SeriesRecorder second_series(2);
      record(second_life, second_series);
      second_life.restore_payload(payload);
      drive(second_life, feed, kHorizon);
      expect_identical(reference, traces_of(reference_series), second_life,
                       traces_of(first_series, second_series));
    }
  }
  remove_checkpoint(path);
}

// ---------------------------------------------------------------------------
// The headline drill: 160 slots straight vs checkpoint@80 + restore +
// continue, through the daemon and real checkpoint files — serial, pooled,
// and multi-tenant with a binding shared market cap.
// ---------------------------------------------------------------------------

void run_kill_restore_drill(const std::vector<TenantSpec>& specs,
                            const sim::SimOptions& options,
                            MarketRule market, std::size_t total_edges) {
  constexpr std::size_t kHorizon = 160;
  constexpr std::size_t kKillAt = 80;
  const std::string path = temp_checkpoint_path();
  remove_checkpoint(path);

  SyntheticFeed feed(total_edges, 1234);

  // Uninterrupted run.
  ServeController straight(specs, options, market);
  sim::SeriesRecorder straight_series(specs.size());
  {
    DaemonConfig config;
    config.max_slots = kHorizon;
    ServeDaemon daemon(straight, feed, config, &straight_series);
    const auto report = daemon.run();
    ASSERT_EQ(report.final_slot, kHorizon);
  }

  // First life: killed at slot 80 (final checkpoint at the boundary).
  sim::SeriesRecorder first_series(specs.size());
  {
    ServeController first_life(specs, options, market);
    DaemonConfig config;
    config.checkpoint_path = path;
    config.stop_after_slots = kKillAt;
    ServeDaemon daemon(first_life, feed, config, &first_series);
    const auto report = daemon.run();
    ASSERT_EQ(report.final_slot, kKillAt);
    ASSERT_GE(report.checkpoints_written, 1u);
  }

  // Second life: restore and finish.
  ServeController second_life(specs, options, market);
  sim::SeriesRecorder second_series(specs.size());
  {
    DaemonConfig config;
    config.checkpoint_path = path;
    config.max_slots = kHorizon;
    ServeDaemon daemon(second_life, feed, config, &second_series);
    ASSERT_TRUE(daemon.restore_if_present());
    ASSERT_EQ(second_life.slot(), kKillAt);
    const auto report = daemon.run();
    ASSERT_EQ(report.final_slot, kHorizon);
    ASSERT_EQ(report.slots_processed, kHorizon - kKillAt);
  }
  remove_checkpoint(path);

  expect_identical(straight, traces_of(straight_series), second_life,
                   traces_of(first_series, second_series));
}

TEST(KillRestoreDrill, SerialSingleTenant) {
  run_kill_restore_drill({make_spec("t0", 17, 7, 160)}, sim::SimOptions{},
                         MarketRule{}, 3);
}

TEST(KillRestoreDrill, PooledSingleTenant) {
  sim::SimOptions options;
  options.pool = &util::ThreadPool::global();
  run_kill_restore_drill({make_spec("t0", 17, 7, 160)}, options, MarketRule{},
                         3);
}

TEST(KillRestoreDrill, MultiTenantWithSharedMarketCap) {
  const std::vector<TenantSpec> specs = {make_spec("alpha", 17, 7, 160),
                                         make_spec("beta", 18, 8, 160)};
  run_kill_restore_drill(specs, sim::SimOptions{}, MarketRule{2.0}, 6);
}

TEST(KillRestoreDrill, PooledMultiTenant) {
  sim::SimOptions options;
  options.pool = &util::ThreadPool::global();
  const std::vector<TenantSpec> specs = {make_spec("alpha", 17, 7, 160),
                                         make_spec("beta", 18, 8, 160)};
  run_kill_restore_drill(specs, options, MarketRule{2.0}, 6);
}

// Pooled and serial engines must agree bit-for-bit through the serve path
// too (the engine contract, re-pinned at the controller level).
TEST(KillRestoreDrill, PooledMatchesSerial) {
  const std::vector<TenantSpec> specs = {make_spec("t0", 17, 7, 48)};
  SyntheticFeed feed(3, 55);
  ServeController serial(specs, sim::SimOptions{});
  sim::SeriesRecorder serial_series(1);
  record(serial, serial_series);
  sim::SimOptions pooled_options;
  pooled_options.pool = &util::ThreadPool::global();
  ServeController pooled(specs, pooled_options);
  sim::SeriesRecorder pooled_series(1);
  record(pooled, pooled_series);
  drive(serial, feed, 48);
  drive(pooled, feed, 48);
  expect_identical(serial, traces_of(serial_series), pooled,
                   traces_of(pooled_series));
}

// ---------------------------------------------------------------------------
// Rejection: damaged files and mismatched controllers must throw
// util::StateError, never restore garbage.
// ---------------------------------------------------------------------------

class CheckpointRejectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = temp_checkpoint_path();
    remove_checkpoint(path_);
  }
  void TearDown() override { remove_checkpoint(path_); }

  // A 2-tenant controller advanced a few slots, checkpointed to path_.
  std::vector<TenantSpec> specs() const {
    return {make_spec("alpha", 17, 7, 16), make_spec("beta", 18, 8, 16)};
  }
  std::string make_payload() {
    ServeController controller(specs(), sim::SimOptions{});
    SyntheticFeed feed(6, 9);
    drive(controller, feed, 5);
    return controller.checkpoint_payload();
  }
  std::string path_;
};

TEST_F(CheckpointRejectionTest, RestoreRejectsMismatchedConfigurations) {
  const std::string payload = make_payload();

  {  // tenant count
    ServeController other({make_spec("alpha", 17, 7, 16)}, sim::SimOptions{});
    EXPECT_THROW(other.restore_payload(payload), util::StateError);
  }
  {  // tenant name
    ServeController other({make_spec("alpha", 17, 7, 16),
                           make_spec("gamma", 18, 8, 16)},
                          sim::SimOptions{});
    EXPECT_THROW(other.restore_payload(payload), util::StateError);
  }
  {  // run seed
    ServeController other({make_spec("alpha", 17, 7, 16),
                           make_spec("beta", 18, 9, 16)},
                          sim::SimOptions{});
    EXPECT_THROW(other.restore_payload(payload), util::StateError);
  }
  {  // fleet shape
    ServeController other({make_spec("alpha", 17, 7, 16),
                           make_spec("beta", 18, 8, 16, /*edges=*/4)},
                          sim::SimOptions{});
    EXPECT_THROW(other.restore_payload(payload), util::StateError);
  }
  {  // market rule
    ServeController other(specs(), sim::SimOptions{}, MarketRule{3.0});
    EXPECT_THROW(other.restore_payload(payload), util::StateError);
  }
  {  // algorithm pairing
    auto changed = specs();
    changed[1].combo = sim::baseline_combos().front();
    ServeController other(changed, sim::SimOptions{});
    EXPECT_THROW(other.restore_payload(payload), util::StateError);
  }
  // The scenario itself: each engine's horizon and environment
  // fingerprint. A restore into a different horizon would continue with
  // that horizon's step sizes and R/T, which no uninterrupted run has.
  const auto expect_rejected = [&payload](std::vector<TenantSpec> changed,
                                          const std::string& field) {
    ServeController other(changed, sim::SimOptions{});
    try {
      other.restore_payload(payload);
      ADD_FAILURE() << field << ": mismatched checkpoint restored";
    } catch (const util::StateError& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << e.what();
    }
  };
  {  // horizon
    auto changed = specs();
    changed[1].scenario.horizon = 24;
    changed[1].scenario.workload.num_slots = 24;
    expect_rejected(changed, "engine.horizon");
  }
  {  // carbon cap
    auto changed = specs();
    changed[0].scenario.carbon_cap *= 2.0;
    expect_rejected(changed, "engine.env_fingerprint");
  }
  {  // trade box
    auto changed = specs();
    changed[1].scenario.max_trade_per_slot += 1.0;
    expect_rejected(changed, "engine.env_fingerprint");
  }
  {  // scenario seed
    auto changed = specs();
    changed[1].scenario.seed += 1;
    expect_rejected(changed, "engine.env_fingerprint");
  }
}

TEST_F(CheckpointRejectionTest, MismatchLeavesTheEngineUntouched) {
  // The shape, horizon and fingerprint are checked before any state
  // changes: the rejected engine still runs like a fresh one.
  const std::string payload = make_payload();
  auto changed = specs();
  changed[0].scenario.carbon_cap *= 2.0;
  ServeController rejected(changed, sim::SimOptions{});
  EXPECT_THROW(rejected.restore_payload(payload), util::StateError);
  ServeController fresh(changed, sim::SimOptions{});
  sim::SeriesRecorder rejected_series(2), fresh_series(2);
  record(rejected, rejected_series);
  record(fresh, fresh_series);
  SyntheticFeed feed(6, 9);
  drive(rejected, feed, 4);
  drive(fresh, feed, 4);
  expect_identical(fresh, traces_of(fresh_series), rejected,
                   traces_of(rejected_series));
}

TEST_F(CheckpointRejectionTest, RestoreRejectsFieldCorruptedPayload) {
  std::string payload = make_payload();
  const auto pos = payload.find("engine.balance");
  ASSERT_NE(pos, std::string::npos);
  payload.replace(pos, 14, "engine.balence");
  ServeController controller(specs(), sim::SimOptions{});
  EXPECT_THROW(controller.restore_payload(payload), util::StateError);
}

TEST_F(CheckpointRejectionTest, RestoreRejectsTruncatedPayload) {
  const std::string payload = make_payload();
  ServeController controller(specs(), sim::SimOptions{});
  EXPECT_THROW(controller.restore_payload(
                   payload.substr(0, payload.size() / 2)),
               util::StateError);
}

TEST_F(CheckpointRejectionTest, RestoreRejectsTrailingGarbage) {
  std::string payload = make_payload();
  payload += "extra.key 42\n";
  ServeController controller(specs(), sim::SimOptions{});
  EXPECT_THROW(controller.restore_payload(payload), util::StateError);
}

TEST_F(CheckpointRejectionTest, DaemonRejectsCorruptedCheckpointFile) {
  util::write_checkpoint_file(path_, make_payload());
  // Flip one payload byte in place.
  std::string bytes;
  {
    std::ifstream in(path_, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    bytes = buffer.str();
  }
  bytes[bytes.size() / 2] ^= 0x01;
  {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out << bytes;
  }
  ServeController controller(specs(), sim::SimOptions{});
  SyntheticFeed feed(6, 9);
  DaemonConfig config;
  config.checkpoint_path = path_;
  ServeDaemon daemon(controller, feed, config);
  EXPECT_THROW(daemon.restore_if_present(), util::StateError);
}

TEST_F(CheckpointRejectionTest, DaemonRejectsVersionMismatchedFile) {
  util::write_checkpoint_file(path_, make_payload());
  std::string bytes;
  {
    std::ifstream in(path_, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    bytes = buffer.str();
  }
  const auto pos =
      bytes.find(" v" + std::to_string(util::kCheckpointVersion) + " ");
  ASSERT_NE(pos, std::string::npos);
  bytes[pos + 2] = '7';
  {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out << bytes;
  }
  ServeController controller(specs(), sim::SimOptions{});
  SyntheticFeed feed(6, 9);
  ServeDaemon daemon(controller, feed, DaemonConfig{});
  EXPECT_THROW(daemon.restore_from(path_), util::StateError);
}

TEST_F(CheckpointRejectionTest, RestoreIfPresentIsFalseWithoutAFile) {
  ServeController controller(specs(), sim::SimOptions{});
  SyntheticFeed feed(6, 9);
  DaemonConfig config;
  config.checkpoint_path = path_;
  ServeDaemon daemon(controller, feed, config);
  EXPECT_FALSE(daemon.restore_if_present());
  EXPECT_EQ(controller.slot(), 0u);
}

// ---------------------------------------------------------------------------
// Daemon behaviour around feeds and periodic checkpoints.
// ---------------------------------------------------------------------------

TEST(ServeDaemon, WritesPeriodicAndFinalCheckpoints) {
  const std::string path = temp_checkpoint_path();
  remove_checkpoint(path);
  ServeController controller({make_spec("t0", 17, 7, 32)}, sim::SimOptions{});
  SyntheticFeed feed(3, 3);
  DaemonConfig config;
  config.checkpoint_path = path;
  config.checkpoint_every = 8;
  config.max_slots = 32;
  ServeDaemon daemon(controller, feed, config);
  const auto report = daemon.run();
  EXPECT_EQ(report.slots_processed, 32u);
  // 4 periodic (slots 8, 16, 24, 32) + the final one.
  EXPECT_EQ(report.checkpoints_written, 5u);
  // The file restores into a fresh controller at the final boundary.
  ServeController restored({make_spec("t0", 17, 7, 32)}, sim::SimOptions{});
  restored.restore_payload(util::read_checkpoint_file(path));
  EXPECT_EQ(restored.slot(), 32u);
  remove_checkpoint(path);
}

TEST(ServeDaemon, CountsOnlyCheckpointsItWrites) {
  ServeController controller({make_spec("t0", 17, 7, 32)}, sim::SimOptions{});
  SyntheticFeed feed(3, 3);
  DaemonConfig config;  // no checkpoint path: every boundary writes nothing
  config.checkpoint_every = 8;
  config.max_slots = 32;
  ServeDaemon daemon(controller, feed, config);
  const auto report = daemon.run();
  EXPECT_EQ(report.slots_processed, 32u);
  EXPECT_EQ(report.checkpoints_written, 0u);
}

/// What a daemon has published at one slot boundary.
struct Published {
  std::string checkpoint;             ///< the checkpoint file's bytes
  std::vector<std::string> segments;  ///< every journal segment, in order
  std::string tenant_lines;           ///< the page's cea_tenant_* lines
};

/// Remove a journal directory, segments first (a failed run may have
/// left one behind).
void remove_journal(const std::string& dir) {
  for (std::size_t i = 0; i < 64; ++i) {
    std::remove(obs::segment_path(dir, i).c_str());
  }
  ::rmdir(dir.c_str());
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// A SyntheticFeed that reads what the daemon has published each time it
/// is asked for the next slot.
class PublicationProbe final : public FeedSource {
 public:
  PublicationProbe(std::size_t edges, std::string checkpoint,
                   std::string journal, std::string page)
      : feed_(edges, 91),
        checkpoint_(std::move(checkpoint)),
        journal_(std::move(journal)),
        page_(std::move(page)) {}

  FeedStatus poll(std::size_t t, SlotInput& out) override {
    if (t == boundaries.size() + 1) boundaries.push_back(read());
    return feed_.poll(t, out);
  }
  std::size_t num_edges() const noexcept override {
    return feed_.num_edges();
  }
  std::string name() const override { return "probe"; }

  Published read() const {
    Published published;
    published.checkpoint = file_bytes(checkpoint_);
    for (std::size_t i = 0;; ++i) {
      const std::string segment = obs::segment_path(journal_, i);
      struct stat info {};
      if (::stat(segment.c_str(), &info) != 0) break;
      published.segments.push_back(file_bytes(segment));
    }
    std::istringstream page(file_bytes(page_));
    for (std::string line; std::getline(page, line);) {
      if (line.rfind("cea_tenant_", 0) == 0) {
        published.tenant_lines += line + '\n';
      }
    }
    return published;
  }

  std::vector<Published> boundaries;  ///< boundaries[i]: slot i + 1's

 private:
  SyntheticFeed feed_;
  std::string checkpoint_, journal_, page_;
};

// The slot tail writes the checkpoint and the metrics page side by side on
// the controller's pool. What a daemon publishes must not depend on that:
// at every boundary, before it asks for the next slot, a pooled daemon has
// published what a serial one has, and each checkpoint restores.
TEST(ServeDaemon, PooledTailPublishesWhatTheSerialTailPublishes) {
  constexpr std::size_t kSlots = 24;
  const std::vector<TenantSpec> specs = {make_spec("alpha", 17, 7, kSlots),
                                         make_spec("beta", 18, 8, kSlots)};
  const MarketRule market{2.0};
  util::ThreadPool pool(3);
  std::vector<Published> runs[2];
  for (const bool pooled : {false, true}) {
    const std::string base =
        temp_checkpoint_path() + (pooled ? "_pooled" : "_serial");
    DaemonConfig config;
    config.checkpoint_path = base + ".ckpt";
    config.checkpoint_every = 1;
    config.journal_dir = base + "_journal";
    config.metrics_path = base + ".prom";
    remove_journal(config.journal_dir);
    ASSERT_EQ(::mkdir(config.journal_dir.c_str(), 0755), 0);
    config.max_slots = kSlots;
    sim::SimOptions options;
    options.pool = pooled ? &pool : nullptr;
    ServeController controller(specs, options, market);
    PublicationProbe probe(6, config.checkpoint_path, config.journal_dir,
                           config.metrics_path);
    ServeDaemon daemon(controller, probe, config);
    ASSERT_EQ(daemon.run().final_slot, kSlots);
    probe.boundaries.push_back(probe.read());  // the last slot's
    runs[pooled] = std::move(probe.boundaries);
    remove_checkpoint(config.checkpoint_path);
    std::remove(config.metrics_path.c_str());
    remove_journal(config.journal_dir);
  }

  ASSERT_EQ(runs[0].size(), kSlots);
  ASSERT_EQ(runs[1].size(), kSlots);
  const std::string restore_path = temp_checkpoint_path() + "_restore.ckpt";
  for (std::size_t i = 0; i < kSlots; ++i) {
    const std::size_t slot = i + 1;
    SCOPED_TRACE("boundary " + std::to_string(slot));
    const Published& serial = runs[0][i];
    const Published& pooled = runs[1][i];
    EXPECT_EQ(pooled.checkpoint, serial.checkpoint);
    EXPECT_EQ(pooled.segments, serial.segments);
    EXPECT_EQ(pooled.tenant_lines, serial.tenant_lines);
    // Slot `slot`'s artefacts, all of them: one journal segment a slot,
    // a checkpoint at this slot, and the page of this slot's state.
    EXPECT_EQ(pooled.segments.size(), slot);
    {
      std::ofstream out(restore_path, std::ios::binary | std::ios::trunc);
      out << pooled.checkpoint;
    }
    ServeController restored(specs, sim::SimOptions{}, market);
    SyntheticFeed feed(6, 91);
    DaemonConfig config;
    config.metrics_path = restore_path + ".prom";  // an observer to restore
    ServeDaemon daemon(restored, feed, config);
    ASSERT_NO_THROW(daemon.restore_from(restore_path));
    EXPECT_EQ(restored.slot(), slot);
    EXPECT_EQ(restored.checkpoint_payload(),
              util::decode_checkpoint(pooled.checkpoint));
    const std::string emission =
        "cea_tenant_emission_total{tenant=\"beta\"} " +
        obs::prom_value(restored.tenant_engine(1).emission_total()) + "\n";
    EXPECT_NE(pooled.tenant_lines.find(emission), std::string::npos)
        << pooled.tenant_lines;
  }
  std::remove(restore_path.c_str());
}

TEST(ServeDaemon, StopsWhenFeedStaysPending) {
  const std::string dir = ::testing::TempDir() + "cea_serve_pending";
  ::mkdir(dir.c_str(), 0755);
  ServeController controller({make_spec("t0", 17, 7, 8)}, sim::SimOptions{});
  DirectoryTailFeed feed(dir, 3);
  DaemonConfig config;
  config.poll_interval_ms = 0;
  config.max_pending_polls = 3;
  ServeDaemon daemon(controller, feed, config);
  const auto report = daemon.run();
  EXPECT_EQ(report.slots_processed, 0u);
  EXPECT_FALSE(report.feed_ended);
  ::rmdir(dir.c_str());
}

TEST(ServeDaemon, RejectsFeedWidthMismatch) {
  ServeController controller({make_spec("t0", 17, 7, 8)}, sim::SimOptions{});
  SyntheticFeed feed(5, 1);  // controller needs 3
  EXPECT_THROW(ServeDaemon(controller, feed, DaemonConfig{}),
               std::invalid_argument);
}

TEST(ServeDaemon, RejectsACheckpointAndAPageOnOnePath) {
  // The slot tail writes the two side by side, through one temp name.
  ServeController controller({make_spec("t0", 17, 7, 8)}, sim::SimOptions{});
  SyntheticFeed feed(3, 1);
  DaemonConfig config;
  config.checkpoint_path = temp_checkpoint_path();
  config.metrics_path = config.checkpoint_path;
  EXPECT_THROW(ServeDaemon(controller, feed, config), std::invalid_argument);
}

}  // namespace
}  // namespace cea::serve
