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
#include <vector>

#include "../integration/golden_trace.h"
#include "bandit/fleet_policy.h"
#include "serve/controller.h"
#include "serve/daemon.h"
#include "serve/feed.h"
#include "sim/experiment.h"
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

std::vector<Trace> traces_of(ServeController& controller) {
  std::vector<Trace> traces;
  for (std::size_t i = 0; i < controller.num_tenants(); ++i) {
    traces.push_back(trace_of(controller.tenant_engine(i).result()));
  }
  return traces;
}

void expect_identical(ServeController& expected, ServeController& actual) {
  ASSERT_EQ(expected.num_tenants(), actual.num_tenants());
  const auto expected_traces = traces_of(expected);
  const auto actual_traces = traces_of(actual);
  for (std::size_t i = 0; i < expected_traces.size(); ++i) {
    const auto diffs = diff_traces(expected_traces[i], actual_traces[i]);
    EXPECT_TRUE(diffs.empty())
        << "tenant " << expected.tenant_name(i) << ":\n" << join_diffs(diffs);
  }
}

std::string temp_checkpoint_path() {
  return ::testing::TempDir() + "cea_serve_ckpt_" +
         ::testing::UnitTest::GetInstance()->current_test_info()->name();
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
  ServeDaemon daemon(controller, feed, DaemonConfig{});
  const DaemonReport report = daemon.run();

  EXPECT_TRUE(report.feed_ended);
  EXPECT_EQ(report.final_slot, config.horizon);
  EXPECT_EQ(report.slots_processed, config.horizon);
  const auto diffs =
      diff_traces(trace_of(batch),
                  trace_of(controller.tenant_engine(0).result()));
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
  drive(reference, feed, kHorizon);
  const auto reference_traces = traces_of(reference);

  for (std::size_t k = 0; k <= kHorizon; ++k) {
    ServeController first_life(specs, sim::SimOptions{});
    drive(first_life, feed, k);
    const std::string payload = first_life.checkpoint_payload();

    ServeController second_life(specs, sim::SimOptions{});
    second_life.restore_payload(payload);
    ASSERT_EQ(second_life.slot(), k);
    drive(second_life, feed, kHorizon);

    const auto restored = traces_of(second_life);
    const auto diffs = diff_traces(reference_traces[0], restored[0]);
    EXPECT_TRUE(diffs.empty())
        << "checkpoint at slot " << k << ":\n" << join_diffs(diffs);
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
  drive(reference, feed, kHorizon);

  ServeController first_life({spec}, sim::SimOptions{});
  drive(first_life, feed, kHorizon / 2);
  ServeController second_life({spec}, sim::SimOptions{});
  second_life.restore_payload(first_life.checkpoint_payload());
  drive(second_life, feed, kHorizon);
  expect_identical(reference, second_life);
  const auto& counts =
      second_life.tenant_engine(0).result().selection_counts;
  EXPECT_EQ(counts[0][1], kHorizon);
  EXPECT_EQ(counts[1][4], kHorizon);
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
  std::remove(path.c_str());

  SyntheticFeed feed(total_edges, 1234);

  // Uninterrupted run.
  ServeController straight(specs, options, market);
  {
    DaemonConfig config;
    config.max_slots = kHorizon;
    ServeDaemon daemon(straight, feed, config);
    const auto report = daemon.run();
    ASSERT_EQ(report.final_slot, kHorizon);
  }

  // First life: killed at slot 80 (final checkpoint at the boundary).
  {
    ServeController first_life(specs, options, market);
    DaemonConfig config;
    config.checkpoint_path = path;
    config.stop_after_slots = kKillAt;
    ServeDaemon daemon(first_life, feed, config);
    const auto report = daemon.run();
    ASSERT_EQ(report.final_slot, kKillAt);
    ASSERT_GE(report.checkpoints_written, 1u);
  }

  // Second life: restore and finish.
  ServeController second_life(specs, options, market);
  {
    DaemonConfig config;
    config.checkpoint_path = path;
    config.max_slots = kHorizon;
    ServeDaemon daemon(second_life, feed, config);
    ASSERT_TRUE(daemon.restore_if_present());
    ASSERT_EQ(second_life.slot(), kKillAt);
    const auto report = daemon.run();
    ASSERT_EQ(report.final_slot, kHorizon);
    ASSERT_EQ(report.slots_processed, kHorizon - kKillAt);
  }
  std::remove(path.c_str());

  expect_identical(straight, second_life);
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
  sim::SimOptions pooled_options;
  pooled_options.pool = &util::ThreadPool::global();
  ServeController pooled(specs, pooled_options);
  drive(serial, feed, 48);
  drive(pooled, feed, 48);
  expect_identical(serial, pooled);
}

// ---------------------------------------------------------------------------
// Rejection: damaged files and mismatched controllers must throw
// util::StateError, never restore garbage.
// ---------------------------------------------------------------------------

class CheckpointRejectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = temp_checkpoint_path();
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }

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
  SyntheticFeed feed(6, 9);
  drive(rejected, feed, 4);
  drive(fresh, feed, 4);
  expect_identical(fresh, rejected);
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
  std::remove(path.c_str());
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
  std::remove(path.c_str());
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

}  // namespace
}  // namespace cea::serve
