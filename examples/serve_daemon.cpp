// Slot-streaming serving daemon CLI: multi-tenant controller on live or
// replayed feeds with bit-exact checkpoint/restore.
//
// Typical drills (see EXPERIMENTS.md "Serving daemon"):
//   # full run, hex-exact trace out
//   serve_daemon --tenants 2 --edges 3 --slots 160 --checkpoint ck.bin
//                --trace-out full.csv
//   # run the first 80 slots, "crash", restore, finish, compare traces
//   # (--trace-out covers only a process's own slots; the journal covers
//   # both lives)
//   serve_daemon ... --stop-after 80 --checkpoint ck.bin --journal jdir
//   serve_daemon ... --restore --checkpoint ck.bin --journal jdir
//   journal_query jdir --format trace --out resumed.csv
//   cmp full.csv resumed.csv
//
// Observability (DESIGN.md §13):
//   serve_daemon ... --journal jdir --metrics-out metrics.prom
//                    --metrics-port 0 --slo-window 16
//   journal_query jdir --verify
//
// Exit codes: 0 success, 1 bad usage, 2 runtime failure, 3 success but
// the carbon-SLO watchdog raised at least one alert.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <limits>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "serve/controller.h"
#include "serve/daemon.h"
#include "serve/feed.h"
#include "sim/experiment.h"
#include "sim/series_recorder.h"
#include "util/csv.h"
#include "util/numio.h"
#include "util/thread_pool.h"

namespace {

using namespace cea;

struct Args {
  std::size_t tenants = 1;
  std::size_t edges = 3;
  std::size_t slots = 64;       // 0 = run to feed end
  std::string combo = "Ours";
  std::string feed = "synthetic";  // synthetic | replay | tail
  std::string workload_csv;
  std::string prices_csv;
  std::string feed_dir;
  std::string checkpoint;
  std::size_t checkpoint_every = 16;
  bool restore = false;
  std::size_t stop_after = 0;
  std::size_t slot_delay_ms = 0;
  std::string trace_out;
  double market_cap = 0.0;
  double mean_samples = 400.0;
  std::uint64_t seed = 7;
  bool pooled = false;
  // Observability.
  std::string journal_dir;
  std::size_t journal_every = 1;
  std::string metrics_out;
  std::size_t metrics_every = 1;
  int metrics_port = -1;
  std::size_t slo_window = 16;
  double slo_margin = 1.0;
  double slo_min_balance = 0.0;
  std::size_t slo_feed_stall_ms = 0;
  std::size_t slo_deadline_ms = 0;
};

// Flag values parse in full or not at all: no sign on a count, no
// trailing garbage, no overflow, and only finite doubles.
bool parse_count(const char* v, std::size_t& out) {
  std::uint64_t value = 0;
  if (!util::parse_u64(v, value)) return false;
  out = static_cast<std::size_t>(value);
  return true;
}

bool parse_int(const char* v, int& out) {
  std::int64_t value = 0;
  if (!util::parse_i64(v, value) ||
      value < std::numeric_limits<int>::min() ||
      value > std::numeric_limits<int>::max())
    return false;
  out = static_cast<int>(value);
  return true;
}

bool parse_real(const char* v, double& out) {
  double value = 0.0;
  if (!util::parse_double(v, value) || !std::isfinite(value)) return false;
  out = value;
  return true;
}

bool parse_args(int argc, char** argv, Args& args) {
  auto need_value = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", argv[i]);
      return nullptr;
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    const char* v = nullptr;
    bool ok = true;
    if (!std::strcmp(a, "--tenants") && (v = need_value(i))) {
      ok = parse_count(v, args.tenants);
    } else if (!std::strcmp(a, "--edges") && (v = need_value(i))) {
      ok = parse_count(v, args.edges);
    } else if (!std::strcmp(a, "--slots") && (v = need_value(i))) {
      ok = parse_count(v, args.slots);
    } else if (!std::strcmp(a, "--combo") && (v = need_value(i))) {
      args.combo = v;
    } else if (!std::strcmp(a, "--feed") && (v = need_value(i))) {
      args.feed = v;
    } else if (!std::strcmp(a, "--workload") && (v = need_value(i))) {
      args.workload_csv = v;
    } else if (!std::strcmp(a, "--prices") && (v = need_value(i))) {
      args.prices_csv = v;
    } else if (!std::strcmp(a, "--feed-dir") && (v = need_value(i))) {
      args.feed_dir = v;
    } else if (!std::strcmp(a, "--checkpoint") && (v = need_value(i))) {
      args.checkpoint = v;
    } else if (!std::strcmp(a, "--checkpoint-every") && (v = need_value(i))) {
      ok = parse_count(v, args.checkpoint_every);
    } else if (!std::strcmp(a, "--restore")) {
      args.restore = true;
    } else if (!std::strcmp(a, "--stop-after") && (v = need_value(i))) {
      ok = parse_count(v, args.stop_after);
    } else if (!std::strcmp(a, "--slot-delay-ms") && (v = need_value(i))) {
      ok = parse_count(v, args.slot_delay_ms);
    } else if (!std::strcmp(a, "--trace-out") && (v = need_value(i))) {
      args.trace_out = v;
    } else if (!std::strcmp(a, "--market-cap") && (v = need_value(i))) {
      ok = parse_real(v, args.market_cap);
    } else if (!std::strcmp(a, "--mean") && (v = need_value(i))) {
      ok = parse_real(v, args.mean_samples);
    } else if (!std::strcmp(a, "--seed") && (v = need_value(i))) {
      ok = util::parse_u64(v, args.seed);
    } else if (!std::strcmp(a, "--pooled")) {
      args.pooled = true;
    } else if (!std::strcmp(a, "--journal") && (v = need_value(i))) {
      args.journal_dir = v;
    } else if (!std::strcmp(a, "--journal-every") && (v = need_value(i))) {
      ok = parse_count(v, args.journal_every);
    } else if (!std::strcmp(a, "--metrics-out") && (v = need_value(i))) {
      args.metrics_out = v;
    } else if (!std::strcmp(a, "--metrics-every") && (v = need_value(i))) {
      ok = parse_count(v, args.metrics_every);
    } else if (!std::strcmp(a, "--metrics-port") && (v = need_value(i))) {
      ok = parse_int(v, args.metrics_port);
    } else if (!std::strcmp(a, "--slo-window") && (v = need_value(i))) {
      ok = parse_count(v, args.slo_window);
    } else if (!std::strcmp(a, "--slo-margin") && (v = need_value(i))) {
      ok = parse_real(v, args.slo_margin);
    } else if (!std::strcmp(a, "--slo-min-balance") && (v = need_value(i))) {
      ok = parse_real(v, args.slo_min_balance);
    } else if (!std::strcmp(a, "--slo-feed-stall-ms") && (v = need_value(i))) {
      ok = parse_count(v, args.slo_feed_stall_ms);
    } else if (!std::strcmp(a, "--slo-deadline-ms") && (v = need_value(i))) {
      ok = parse_count(v, args.slo_deadline_ms);
    } else {
      std::fprintf(stderr, "unknown or incomplete flag: %s\n", a);
      return false;
    }
    if (!ok) {
      std::fprintf(stderr, "bad value for %s: %s\n", a, v);
      return false;
    }
  }
  return true;
}

sim::AlgorithmCombo find_combo(const std::string& name) {
  for (auto& combo : sim::all_combos()) {
    if (combo.name == name) return combo;
  }
  throw std::runtime_error("unknown combo '" + name + "'");
}

/// Hex-exact per-tenant trace of the slots this process executed —
/// byte-comparable across runs, and with journal_query --format trace,
/// which writes the same rows from the journal (the kill/restore and
/// observability gates `cmp` them). Throws when the file cannot be
/// written.
void write_trace(serve::ServeController& controller,
                 const sim::SeriesRecorder& series, const std::string& path) {
  CsvWriter writer(path);
  for (std::size_t i = 0; i < controller.num_tenants(); ++i) {
    const sim::SlotEngine& engine = controller.tenant_engine(i);
    sim::write_trace_rows(writer, controller.tenant_name(i), series.result(i),
                          engine.total_switches(), engine.allowance_balance());
  }
  writer.close();
}

}  // namespace

int main(int argc, char** argv) {
  // --telemetry [path]: same session harness as the benches — tracing +
  // detail instrumentation on, profile JSON + Chrome trace out at exit.
  bench::TelemetrySession telemetry =
      bench::TelemetrySession::from_args(argc, argv);
  Args args;
  if (!parse_args(argc, argv, args)) return 1;
  try {
    // One tenant spec per tenant: same scenario shape, distinct run seeds
    // (and distinct environment seeds so the scenarios differ too).
    std::vector<serve::TenantSpec> specs;
    for (std::size_t i = 0; i < args.tenants; ++i) {
      serve::TenantSpec spec;
      spec.name = "tenant" + std::to_string(i);
      spec.scenario.num_edges = args.edges;
      spec.scenario.horizon = args.slots == 0 ? 160 : args.slots;
      spec.scenario.workload.num_slots = spec.scenario.horizon;
      spec.scenario.workload.mean_samples = args.mean_samples;
      spec.scenario.carbon_cap = 40.0;
      spec.scenario.loss_draw_cap = 64;
      spec.scenario.seed = 17 + i;
      spec.combo = find_combo(args.combo);
      spec.run_seed = args.seed + i;
      specs.push_back(std::move(spec));
    }
    sim::SimOptions options;
    if (args.pooled) options.pool = &util::ThreadPool::global();
    serve::MarketRule market{args.market_cap};
    serve::ServeController controller(specs, options, market);

    std::unique_ptr<serve::FeedSource> feed;
    if (args.feed == "synthetic") {
      feed = std::make_unique<serve::SyntheticFeed>(
          controller.total_edges(), args.seed, args.mean_samples);
    } else if (args.feed == "replay") {
      if (args.workload_csv.empty() || args.prices_csv.empty()) {
        std::fprintf(stderr, "--feed replay needs --workload and --prices\n");
        return 1;
      }
      feed = std::make_unique<serve::ReplayFeed>(serve::ReplayFeed::from_files(
          args.workload_csv, args.prices_csv));
    } else if (args.feed == "tail") {
      if (args.feed_dir.empty()) {
        std::fprintf(stderr, "--feed tail needs --feed-dir\n");
        return 1;
      }
      feed = std::make_unique<serve::DirectoryTailFeed>(
          args.feed_dir, controller.total_edges());
    } else {
      std::fprintf(stderr, "unknown feed '%s'\n", args.feed.c_str());
      return 1;
    }

    serve::DaemonConfig config;
    config.checkpoint_path = args.checkpoint;
    config.checkpoint_every = args.checkpoint_every;
    config.max_slots = args.slots;
    config.stop_after_slots = args.stop_after;
    config.slot_delay_ms = args.slot_delay_ms;
    config.journal_dir = args.journal_dir;
    config.journal_every = args.journal_every;
    config.metrics_path = args.metrics_out;
    config.metrics_every = args.metrics_every;
    config.metrics_port = args.metrics_port;
    config.slo.window = args.slo_window;
    config.slo.breach_margin = args.slo_margin;
    config.slo.min_balance = args.slo_min_balance;
    config.slo.feed_stall_ms =
        static_cast<std::int64_t>(args.slo_feed_stall_ms);
    config.slo.slot_deadline_ms =
        static_cast<std::int64_t>(args.slo_deadline_ms);
    sim::SeriesRecorder series(controller.num_tenants());
    serve::ServeDaemon daemon(controller, *feed, config,
                              args.trace_out.empty() ? nullptr : &series);
    if (daemon.metrics_port() >= 0) {
      // Flush so a scraper that parses our stdout for the ephemeral port
      // sees the line before the (long-running) run loop starts.
      std::printf("serve_daemon: metrics endpoint on 127.0.0.1:%d\n",
                  daemon.metrics_port());
      std::fflush(stdout);
    }

    bool restored = false;
    if (args.restore) restored = daemon.restore_if_present();
    const serve::DaemonReport report = daemon.run();

    std::printf("serve_daemon: %zu slot(s) this run, final slot %zu, "
                "%zu checkpoint(s)%s%s\n",
                report.slots_processed, report.final_slot,
                report.checkpoints_written,
                restored ? ", restored from checkpoint" : "",
                report.feed_ended ? ", feed ended" : "");
    for (std::size_t i = 0; i < controller.num_tenants(); ++i) {
      const sim::SlotEngine& engine = controller.tenant_engine(i);
      std::printf("  %s: emissions %.4f, balance %.4f, switches %llu\n",
                  controller.tenant_name(i).c_str(), engine.emission_total(),
                  engine.allowance_balance(),
                  static_cast<unsigned long long>(engine.total_switches()));
    }
    if (!args.trace_out.empty()) {
      write_trace(controller, series, args.trace_out);
      std::printf("  trace written to %s\n", args.trace_out.c_str());
    }
    if (report.journal_records > 0) {
      std::printf("  journal: %zu record(s) in %zu segment(s)\n",
                  report.journal_records, report.journal_segments);
    }
    if (report.alerts_total > 0) {
      std::printf("  SLO alerts: %llu (cap_breach %llu, insolvency %llu, "
                  "feed_stall %llu, deadline_miss %llu)\n",
                  static_cast<unsigned long long>(report.alerts_total),
                  static_cast<unsigned long long>(report.alerts[0]),
                  static_cast<unsigned long long>(report.alerts[1]),
                  static_cast<unsigned long long>(report.alerts[2]),
                  static_cast<unsigned long long>(report.alerts[3]));
      return 3;
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "serve_daemon: %s\n", e.what());
    return 2;
  }
}
