// Observability contract of the serving stack (DESIGN.md §13): the
// decision journal is bit-identical across serial and pooled execution,
// sealed segments are a bit-exact prefix of the uninterrupted run at any
// stop/restore boundary, watchdog alerts land in the journal, and the
// metrics exposition publishes well-formed Prometheus text.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "../integration/golden_trace.h"
#include "obs/journal.h"
#include "obs/slo.h"
#include "serve/controller.h"
#include "serve/daemon.h"
#include "serve/feed.h"
#include "serve/metrics_server.h"
#include "sim/experiment.h"
#include "util/thread_pool.h"

namespace cea::serve {
namespace {

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

std::string temp_dir(const std::string& tag) {
  const std::string dir =
      ::testing::TempDir() + "cea_obs_" + tag + "_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name();
  ::mkdir(dir.c_str(), 0755);
  return dir;
}

void remove_dir(const std::string& dir) {
  for (std::size_t i = 0; i < 64; ++i) {
    std::remove(obs::segment_path(dir, i).c_str());
  }
  ::rmdir(dir.c_str());
}

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

DaemonReport run_daemon(const std::vector<TenantSpec>& specs,
                        const sim::SimOptions& options, std::uint64_t feed_seed,
                        std::size_t edges, DaemonConfig config) {
  ServeController controller(specs, options);
  SyntheticFeed feed(edges, feed_seed);
  ServeDaemon daemon(controller, feed, config);
  return daemon.run();
}

TEST(DecisionJournal, DaemonRunIsVerifiableAndCounted) {
  const std::string dir = temp_dir("basic");
  DaemonConfig config;
  config.max_slots = 16;
  config.journal_dir = dir;
  config.journal_every = 4;
  const DaemonReport report =
      run_daemon({make_spec("t0", 17, 7, 16)}, sim::SimOptions{}, 3, 3,
                 config);
  EXPECT_EQ(report.slots_processed, 16u);
  EXPECT_GE(report.journal_records, 16u);  // >= one slot record per slot
  EXPECT_GE(report.journal_segments, 4u);

  const obs::JournalStats stats = obs::verify_journal(dir);
  EXPECT_TRUE(stats.ok) << stats.error;
  EXPECT_EQ(stats.records, report.journal_records);
  EXPECT_EQ(stats.segments, report.journal_segments);

  // Every slot of every tenant appears exactly once, in slot order.
  std::uint64_t expected_slot = 0;
  for (const obs::JournalRecord& record : obs::read_journal(dir)) {
    if (record.kind != obs::JournalRecord::Kind::kSlot) continue;
    EXPECT_EQ(record.tenant, "t0");
    EXPECT_EQ(record.slot, expected_slot++);
    EXPECT_EQ(record.arena_overflows, 0u);  // slot path never fell back
    EXPECT_EQ(record.solver_lanes, 0u);     // reserved field
    std::uint64_t edges_counted = 0;
    for (const std::uint64_t count : record.model_counts)
      edges_counted += count;
    EXPECT_EQ(edges_counted, 3u);
  }
  EXPECT_EQ(expected_slot, 16u);
  remove_dir(dir);
}

TEST(DecisionJournal, SerialAndPooledJournalsAreByteIdentical) {
  const std::string serial_dir = temp_dir("serial");
  const std::string pooled_dir = temp_dir("pooled");
  const std::vector<TenantSpec> specs = {make_spec("alpha", 17, 7, 24),
                                         make_spec("beta", 18, 8, 24)};
  DaemonConfig config;
  config.max_slots = 24;
  config.journal_every = 1;

  config.journal_dir = serial_dir;
  run_daemon(specs, sim::SimOptions{}, 5, 6, config);

  sim::SimOptions pooled_options;
  pooled_options.pool = &util::ThreadPool::global();
  config.journal_dir = pooled_dir;
  run_daemon(specs, pooled_options, 5, 6, config);

  // Not just equal records: the segment files themselves are identical.
  const obs::JournalStats serial_stats = obs::verify_journal(serial_dir);
  const obs::JournalStats pooled_stats = obs::verify_journal(pooled_dir);
  ASSERT_TRUE(serial_stats.ok) << serial_stats.error;
  ASSERT_TRUE(pooled_stats.ok) << pooled_stats.error;
  ASSERT_EQ(serial_stats.segments, pooled_stats.segments);
  for (std::size_t i = 0; i < serial_stats.segments; ++i) {
    EXPECT_EQ(read_bytes(obs::segment_path(serial_dir, i)),
              read_bytes(obs::segment_path(pooled_dir, i)))
        << "segment " << i;
  }
  remove_dir(serial_dir);
  remove_dir(pooled_dir);
}

TEST(DecisionJournal, StoppedRunJournalIsBitExactPrefixOfFullRun) {
  const std::string full_dir = temp_dir("full");
  const std::string stopped_dir = temp_dir("stopped");
  const std::vector<TenantSpec> specs = {make_spec("t0", 21, 9, 32)};
  DaemonConfig config;
  config.journal_every = 1;

  config.max_slots = 32;
  config.journal_dir = full_dir;
  run_daemon(specs, sim::SimOptions{}, 11, 3, config);

  config.max_slots = 0;
  config.stop_after_slots = 20;
  config.journal_dir = stopped_dir;
  run_daemon(specs, sim::SimOptions{}, 11, 3, config);

  const auto full = obs::read_journal_lines(full_dir);
  const auto stopped = obs::read_journal_lines(stopped_dir);
  ASSERT_FALSE(stopped.empty());
  ASSERT_LT(stopped.size(), full.size());
  for (std::size_t i = 0; i < stopped.size(); ++i) {
    EXPECT_EQ(stopped[i], full[i]) << "journal line " << i;
  }
  // Sealing every slot, the stopped run's segment files are byte-for-byte
  // the full run's first segments — the on-disk form of the SIGKILL
  // guarantee (a kill can only lose the open buffer, never a segment).
  const std::size_t stopped_segments = obs::verify_journal(stopped_dir).segments;
  for (std::size_t i = 0; i < stopped_segments; ++i) {
    EXPECT_EQ(read_bytes(obs::segment_path(stopped_dir, i)),
              read_bytes(obs::segment_path(full_dir, i)))
        << "segment " << i;
  }
  remove_dir(full_dir);
  remove_dir(stopped_dir);
}

TEST(DecisionJournal, KillRestoreRunRebuildsTheUninterruptedJournal) {
  const std::string straight_dir = temp_dir("straight");
  const std::string revived_dir = temp_dir("revived");
  const std::string ckpt = ::testing::TempDir() + "cea_obs_journal_ckpt";
  std::remove(ckpt.c_str());
  const std::vector<TenantSpec> specs = {make_spec("t0", 21, 9, 32)};

  DaemonConfig config;
  config.journal_every = 1;
  config.max_slots = 32;
  config.journal_dir = straight_dir;
  run_daemon(specs, sim::SimOptions{}, 11, 3, config);

  {  // First life: killed (gracefully) at slot 20 with a checkpoint.
    ServeController first(specs, sim::SimOptions{});
    SyntheticFeed feed(3, 11);
    DaemonConfig life;
    life.journal_every = 1;
    life.journal_dir = revived_dir;
    life.checkpoint_path = ckpt;
    life.stop_after_slots = 20;
    ServeDaemon daemon(first, feed, life);
    ASSERT_EQ(daemon.run().final_slot, 20u);
  }
  {  // Second life: restore and finish; the writer appends after the
    // surviving segments.
    ServeController second(specs, sim::SimOptions{});
    SyntheticFeed feed(3, 11);
    DaemonConfig life;
    life.journal_every = 1;
    life.journal_dir = revived_dir;
    life.checkpoint_path = ckpt;
    life.max_slots = 32;
    ServeDaemon daemon(second, feed, life);
    ASSERT_TRUE(daemon.restore_if_present());
    ASSERT_EQ(daemon.run().final_slot, 32u);
  }
  std::remove(ckpt.c_str());
  std::remove((ckpt + ".tmp").c_str());

  const auto straight = obs::read_journal_lines(straight_dir);
  const auto revived = obs::read_journal_lines(revived_dir);
  EXPECT_EQ(straight, revived);
  remove_dir(straight_dir);
  remove_dir(revived_dir);
}

TEST(SloIntegration, InsolvencyAlertsLandInJournalAndReport) {
  const std::string dir = temp_dir("alerts");
  DaemonConfig config;
  config.max_slots = 8;
  config.journal_dir = dir;
  // An impossible floor: every tenant is "insolvent" from slot 0, so the
  // alert path fires deterministically.
  config.slo.min_balance = 1e18;
  const DaemonReport report =
      run_daemon({make_spec("t0", 17, 7, 8)}, sim::SimOptions{}, 3, 3,
                 config);
  const auto kind =
      static_cast<std::size_t>(obs::SloKind::kAllowanceInsolvency);
  EXPECT_GE(report.alerts[kind], 1u);
  EXPECT_EQ(report.alerts_total, report.alerts[kind]);

  bool journaled = false;
  for (const obs::JournalRecord& record : obs::read_journal(dir)) {
    if (record.kind != obs::JournalRecord::Kind::kAlert) continue;
    EXPECT_EQ(record.alert, "allowance_insolvency");
    EXPECT_EQ(record.tenant, "t0");
    EXPECT_DOUBLE_EQ(record.threshold, 1e18);
    journaled = true;
  }
  EXPECT_TRUE(journaled);
  remove_dir(dir);
}

TEST(MetricsExposition, DaemonPublishesWellFormedPrometheusText) {
  const std::string path =
      ::testing::TempDir() + "cea_obs_metrics_page.prom";
  const std::string journal_dir = temp_dir("metrics");
  std::remove(path.c_str());
  DaemonConfig config;
  config.max_slots = 12;
  config.metrics_path = path;
  config.metrics_every = 4;
  config.journal_dir = journal_dir;  // journal gauges appear when journaling
  run_daemon({make_spec("t0", 17, 7, 12)}, sim::SimOptions{}, 3, 3, config);

  const std::string text = read_bytes(path);
  ASSERT_FALSE(text.empty());
  EXPECT_NE(text.find("cea_tenant_allowance_balance{tenant=\"t0\"}"),
            std::string::npos);
  EXPECT_NE(text.find("cea_tenant_emission_total{tenant=\"t0\"}"),
            std::string::npos);
  EXPECT_NE(text.find("cea_tenant_cap_burn_rate{tenant=\"t0\"}"),
            std::string::npos);
  EXPECT_NE(text.find("cea_journal_records_sealed"), std::string::npos);

  // Minimal format check: every line is a comment or `name[{labels}] value`
  // with a parseable value.
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty());
    if (line[0] == '#') {
      EXPECT_EQ(line.rfind("# TYPE cea_", 0), 0u) << line;
      continue;
    }
    const auto space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const std::string value = line.substr(space + 1);
    EXPECT_TRUE(value == "NaN" || value == "+Inf" || value == "-Inf" ||
                value.find_first_not_of("0123456789+-.eE") ==
                    std::string::npos)
        << line;
  }
  std::remove(path.c_str());
  remove_dir(journal_dir);
}

// The page's cea_tenant_* lines, in page order.
std::vector<std::string> tenant_lines(const std::string& page) {
  std::vector<std::string> lines;
  std::istringstream in(page);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("cea_tenant_", 0) == 0) lines.push_back(line);
  }
  return lines;
}

TEST(MetricsExposition, RestoredPageMatchesTheUninterruptedPage) {
  // A daemon restored at slot 80 that runs zero slots publishes the same
  // tenant gauges — balance, emissions, burn rate, solvency, trader dual,
  // switches — as the life that wrote the checkpoint: every gauge is read
  // from the engines, whose state the checkpoint restores.
  const std::string ckpt = ::testing::TempDir() + "cea_obs_metrics_ckpt";
  const std::string first_page =
      ::testing::TempDir() + "cea_obs_metrics_first.prom";
  const std::string restored_page =
      ::testing::TempDir() + "cea_obs_metrics_restored.prom";
  std::remove(ckpt.c_str());
  const std::vector<TenantSpec> specs = {make_spec("alpha", 17, 7, 160),
                                         make_spec("beta", 18, 8, 160)};
  {
    ServeController controller(specs, sim::SimOptions{}, MarketRule{2.0});
    SyntheticFeed feed(6, 1234);
    DaemonConfig config;
    config.checkpoint_path = ckpt;
    config.metrics_path = first_page;
    config.max_slots = 80;
    ServeDaemon daemon(controller, feed, config);
    ASSERT_EQ(daemon.run().final_slot, 80u);
  }
  {
    ServeController controller(specs, sim::SimOptions{}, MarketRule{2.0});
    SyntheticFeed feed(6, 1234);
    DaemonConfig config;
    config.checkpoint_path = ckpt;
    config.metrics_path = restored_page;
    config.max_slots = 80;
    ServeDaemon daemon(controller, feed, config);
    ASSERT_TRUE(daemon.restore_if_present());
    ASSERT_EQ(daemon.run().slots_processed, 0u);
  }
  const auto expected = tenant_lines(read_bytes(first_page));
  const auto actual = tenant_lines(read_bytes(restored_page));
  ASSERT_EQ(expected.size(), 12u);  // six gauges x two tenants
  EXPECT_EQ(expected, actual);
  for (const std::string& line : actual) {
    EXPECT_EQ(line.find("NaN"), std::string::npos) << line;
  }
  std::remove(ckpt.c_str());
  std::remove((ckpt + ".tmp").c_str());
  std::remove(first_page.c_str());
  std::remove(restored_page.c_str());
}

TEST(MetricsExposition, TcpEndpointServesTheLatestPage) {
  MetricsServer server(0);  // ephemeral port
  ASSERT_GT(server.port(), 0);
  server.publish("# TYPE cea_up gauge\ncea_up 1\n");

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(server.port()));
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const char request[] = "GET /metrics HTTP/1.0\r\n\r\n";
  ASSERT_EQ(::send(fd, request, sizeof(request) - 1, 0),
            static_cast<ssize_t>(sizeof(request) - 1));
  std::string response;
  char buffer[512];
  ssize_t got = 0;
  while ((got = ::recv(fd, buffer, sizeof(buffer), 0)) > 0) {
    response.append(buffer, static_cast<std::size_t>(got));
  }
  ::close(fd);
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_NE(response.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(response.find("cea_up 1\n"), std::string::npos);
}

}  // namespace
}  // namespace cea::serve
