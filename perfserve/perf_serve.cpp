// Serving benchmark harness: one pass of the multi-tenant serving daemon
// (serve::ServeDaemon) over a synthetic feed, for a fixed number of slots,
// printed as one JSON object of raw measurements on stdout. run.py, next
// to this file, builds it, picks the workload shapes, repeats passes,
// checks the outputs and derives the reported metrics (README.md).
//
//   perf_serve timed|restore|traced --tenants T --edges E --threads K
//       --slots N --checkpoint-every C --seed S --dir D
//
// timed   ServeDaemon::run() with the program's detail telemetry off. A
//         slot's latency runs from the feed's poll(t) returning to the
//         daemon's poll(t+1) call, so input generation is never timed.
// restore ServeDaemon::restore_from on the last checkpoint a timed pass
//         left in D, into a freshly built controller and daemon.
// traced  The same slots, driven by this file's copy of the daemon's slot
//         loop (same calls, same order, same journal records), with a span
//         kept in memory around every call into the serve/obs/util layers
//         and the program's detail histograms (obs::set_detail) on. Spans
//         are written to <dir>/spans.tsv when the run ends.
//
// Every mode runs on one util::ThreadPool of K-1 workers plus the driving
// thread (K <= 1: no pool), and opens no port.

#include <sys/resource.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "obs/export.h"
#include "obs/journal.h"
#include "obs/prom.h"
#include "obs/slo.h"
#include "obs/telemetry.h"
#include "serve/controller.h"
#include "serve/daemon.h"
#include "serve/feed.h"
#include "sim/experiment.h"
#include "util/rng.h"
#include "util/state_io.h"
#include "util/thread_pool.h"

namespace {

std::atomic<std::uint64_t> g_fsyncs{0};

}  // namespace

// The daemon's files (journal, metrics page, checkpoints) go wherever --dir
// points; run.py puts them on a RAM-backed filesystem when the host lets
// it, and on the checkout's disk otherwise. Either way this binary replaces
// fsync with a counter: every file still goes through the program's
// temp-write, rename and directory-sync sequence, but costs what it costs
// on a RAM-backed filesystem, where fsync returns at once, and not the
// latency of a shared disk. run.py reports the count per slot.
extern "C" int fsync(int /*fd*/) {
  g_fsyncs.fetch_add(1, std::memory_order_relaxed);
  return 0;
}

namespace {

using namespace cea;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

constexpr double kMeanSamples = 400.0;  // serve_daemon CLI default
constexpr std::size_t kLossDrawCap = 64;

std::int64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Options {
  std::string mode;
  std::size_t tenants = 1;
  std::size_t edges = 1;
  std::size_t threads = 1;
  std::size_t slots = 1;
  std::size_t checkpoint_every = 0;
  std::uint64_t seed = 1;
  std::string dir;
};

bool parse_options(int argc, char** argv, Options& options) {
  if (argc < 2) return false;
  options.mode = argv[1];
  if (options.mode != "timed" && options.mode != "restore" &&
      options.mode != "traced") {
    return false;
  }
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--dir") {
      options.dir = value;
      continue;
    }
    char* end = nullptr;
    const unsigned long long number = std::strtoull(value, &end, 10);
    if (end == value || *end != '\0') return false;
    if (flag == "--tenants") {
      options.tenants = number;
    } else if (flag == "--edges") {
      options.edges = number;
    } else if (flag == "--threads") {
      options.threads = number;
    } else if (flag == "--slots") {
      options.slots = number;
    } else if (flag == "--checkpoint-every") {
      options.checkpoint_every = number;
    } else if (flag == "--seed") {
      options.seed = number;
    } else {
      return false;
    }
  }
  return (argc % 2) == 0 && !options.dir.empty() && options.tenants > 0 &&
         options.edges > 0 && options.slots > 0 && options.threads > 0;
}

/// Every tenant runs the "Ours" combo at the serve_daemon CLI's sampling
/// defaults; cap and per-slot trade limit are prorated to edges as in
/// bench/perf_fleet, and each tenant's horizon is the run's slot count.
std::vector<serve::TenantSpec> tenant_specs(const Options& options) {
  std::vector<serve::TenantSpec> specs;
  const double edges = static_cast<double>(options.edges);
  for (std::size_t i = 0; i < options.tenants; ++i) {
    serve::TenantSpec spec;
    spec.name = "tenant" + std::to_string(i);
    spec.scenario.num_edges = options.edges;
    spec.scenario.horizon = options.slots;
    spec.scenario.workload.num_slots = options.slots;
    spec.scenario.workload.mean_samples = kMeanSamples;
    spec.scenario.loss_draw_cap = kLossDrawCap;
    spec.scenario.carbon_cap = 50.0 * edges;
    spec.scenario.max_trade_per_slot = 2.5 * edges;
    spec.scenario.seed = stream_seed(options.seed, i, 1);
    spec.combo = sim::ours_combo();
    spec.run_seed = stream_seed(options.seed, i, 2);
    specs.push_back(std::move(spec));
  }
  return specs;
}

/// Shared market liquidity: half of the tenants' summed per-slot limits.
serve::MarketRule market_rule(const Options& options) {
  return {1.25 * static_cast<double>(options.tenants * options.edges)};
}

serve::DaemonConfig daemon_config(const Options& options,
                                  const std::string& tag) {
  serve::DaemonConfig config;
  config.checkpoint_path = options.dir + "/" + tag + "checkpoint";
  config.checkpoint_every = options.checkpoint_every;
  config.journal_dir = options.dir + "/" + tag + "journal";
  config.journal_every = 1;
  config.metrics_path = options.dir + "/" + tag + "metrics.prom";
  config.metrics_every = 1;
  return config;  // SLO rules at the serve_daemon CLI defaults
}

std::unique_ptr<util::ThreadPool> make_pool(std::size_t threads) {
  if (threads <= 1) return nullptr;
  return std::make_unique<util::ThreadPool>(threads - 1);
}

/// SyntheticFeed that ends after `slots` slots and stamps the slot clock:
/// slot t runs from poll(t) returning to the poll(t + 1) call.
class BenchFeed final : public serve::FeedSource {
 public:
  BenchFeed(std::size_t num_edges, std::uint64_t seed, std::size_t slots)
      : synthetic_(num_edges, seed, kMeanSamples), slots_(slots) {
    latency_ns_.reserve(slots);
  }

  serve::FeedStatus poll(std::size_t t, serve::SlotInput& out) override {
    const Clock::time_point entered = Clock::now();
    if (t > 0 && t == latency_ns_.size() + 1) {
      latency_ns_.push_back(ns_between(slot_start_, entered));
    }
    if (t >= slots_) return serve::FeedStatus::kEnd;
    synthetic_.poll(t, out);
    slot_start_ = Clock::now();
    return serve::FeedStatus::kReady;
  }
  std::size_t num_edges() const noexcept override {
    return synthetic_.num_edges();
  }
  std::string name() const override { return "bench"; }

  /// Latency of every slot completed so far (a slot completes when the
  /// daemon asks for the next one).
  const std::vector<std::int64_t>& latency_ns() const { return latency_ns_; }

 private:
  serve::SyntheticFeed synthetic_;
  std::size_t slots_;
  Clock::time_point slot_start_;
  std::vector<std::int64_t> latency_ns_;
};

// ------------------------------------------------------------ JSON out

class JsonObject {
 public:
  void number(const char* key, double value) {
    char text[64];
    std::snprintf(text, sizeof(text), "%.17g", value);
    field(key, text);
  }
  void integer(const char* key, std::uint64_t value) {
    field(key, std::to_string(value));
  }
  void boolean(const char* key, bool value) {
    field(key, value ? "true" : "false");
  }
  void string(const char* key, std::string_view value) {
    field(key, "\"" + obs::json_escape(value) + "\"");
  }
  void integers(const char* key, const std::vector<std::int64_t>& values) {
    std::string text = "[";
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (i > 0) text += ',';
      text += std::to_string(values[i]);
    }
    field(key, text + "]");
  }
  void numbers(const char* key, const std::vector<double>& values) {
    std::string text = "[";
    char cell[64];
    for (std::size_t i = 0; i < values.size(); ++i) {
      std::snprintf(cell, sizeof(cell), "%s%.17g", i > 0 ? "," : "",
                    values[i]);
      text += cell;
    }
    field(key, text + "]");
  }
  void object(const char* key, const JsonObject& value) {
    field(key, value.text());
  }
  std::string text() const { return "{" + body_ + "}"; }

 private:
  void field(const char* key, const std::string& value) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + obs::json_escape(key) + "\": " + value;
  }
  std::string body_;
};

// ------------------------------------------------------ journal checks

/// What a finished run's journal says: envelope verification, which
/// slots lack a record for some tenant, and the digest of the decision
/// fields of every slot record. The digest covers model counts, trades,
/// quotes, emission, balance, costs, accuracy and workload — not the
/// implementation counters (solver lanes, arena overflows).
struct JournalSummary {
  bool ok = false;
  std::string error;
  std::size_t segments = 0;
  std::size_t records = 0;
  std::uint64_t bytes = 0;
  std::size_t missing_slots = 0;  ///< completed slots without all records
  std::string digest;
};

JournalSummary summarize_journal(const std::string& dir,
                                 const std::vector<std::string>& tenants,
                                 std::size_t completed_slots) {
  JournalSummary summary;
  const obs::JournalStats stats = obs::verify_journal(dir);
  summary.ok = stats.ok;
  summary.error = stats.error;
  summary.segments = stats.segments;
  summary.records = stats.records;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file()) summary.bytes += entry.file_size();
  }
  if (!stats.ok) {
    summary.missing_slots = completed_slots;
    return summary;
  }
  std::vector<std::vector<bool>> seen(
      tenants.size(), std::vector<bool>(completed_slots, false));
  std::string canonical;
  char cell[40];
  for (const obs::JournalRecord& record : obs::read_journal(dir)) {
    if (record.kind != obs::JournalRecord::Kind::kSlot) continue;
    for (std::size_t i = 0; i < tenants.size(); ++i) {
      if (tenants[i] == record.tenant && record.slot < completed_slots) {
        seen[i][record.slot] = true;
      }
    }
    canonical += record.tenant;
    canonical += ' ' + std::to_string(record.slot);
    for (const std::uint64_t count : record.model_counts) {
      canonical += ' ' + std::to_string(count);
    }
    for (const double value :
         {record.buy, record.sell, record.buy_price, record.sell_price,
          record.emission, record.balance, record.inference_cost,
          record.switching_cost, record.trading_cost, record.accuracy,
          record.workload}) {
      std::snprintf(cell, sizeof(cell), " %a", value);
      canonical += cell;
    }
    canonical += '\n';
  }
  for (std::size_t t = 0; t < completed_slots; ++t) {
    for (const auto& tenant_seen : seen) {
      if (!tenant_seen[t]) {
        ++summary.missing_slots;
        break;
      }
    }
  }
  char digest[24];
  std::snprintf(digest, sizeof(digest), "%016" PRIx64,
                util::fnv1a64(canonical));
  summary.digest = digest;
  return summary;
}

void put_journal(JsonObject& out, const JournalSummary& journal) {
  out.boolean("journal_ok", journal.ok);
  out.string("journal_error", journal.error);
  out.integer("journal_segments", journal.segments);
  out.integer("journal_records", journal.records);
  out.integer("journal_bytes", journal.bytes);
  out.integer("journal_missing_slots", journal.missing_slots);
  out.string("digest", journal.digest);
}

std::uint64_t peak_rss_kb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<std::uint64_t>(usage.ru_maxrss);
}

std::vector<std::string> tenant_names(const Options& options) {
  std::vector<std::string> names;
  for (const auto& spec : tenant_specs(options)) names.push_back(spec.name);
  return names;
}

// ----------------------------------------------------------- timed mode

int run_timed(const Options& options) {
  const auto pool = make_pool(options.threads);
  sim::SimOptions sim_options;
  sim_options.pool = pool.get();
  const auto specs = tenant_specs(options);
  const serve::MarketRule market = market_rule(options);
  const std::size_t width = options.tenants * options.edges;
  const serve::DaemonConfig config = daemon_config(options, "");
  fs::create_directories(config.journal_dir);

  JsonObject out;
  std::string error;
  BenchFeed feed(width, options.seed, options.slots);
  {
    const Clock::time_point t0 = Clock::now();
    serve::ServeController controller(specs, sim_options, market);
    const Clock::time_point t1 = Clock::now();
    serve::ServeDaemon daemon(controller, feed, config);
    const Clock::time_point t2 = Clock::now();
    out.number("setup_s", seconds_between(t0, t2));
    out.number("setup_controller_s", seconds_between(t0, t1));
    out.number("setup_daemon_s", seconds_between(t1, t2));
    try {
      daemon.run();
    } catch (const std::exception& e) {
      error = e.what();
    }
  }
  out.number("peak_rss_mb", static_cast<double>(peak_rss_kb()) / 1024.0);
  const std::size_t completed = feed.latency_ns().size();
  const JournalSummary journal =
      summarize_journal(config.journal_dir, tenant_names(options), completed);
  out.string("mode", "timed");
  out.integer("slots", options.slots);
  out.integer("completed", completed);
  out.string("error", error);
  out.integers("latency_ns", feed.latency_ns());
  put_journal(out, journal);
  std::printf("%s\n", out.text().c_str());
  return 0;
}

// --------------------------------------------------------- restore mode

/// Restore the last checkpoint a timed pass left in --dir into a freshly
/// built controller and daemon (whose own journal and metrics go
/// elsewhere), and check that the restored state serializes back to the
/// same payload.
int run_restore(const Options& options) {
  const auto pool = make_pool(options.threads);
  sim::SimOptions sim_options;
  sim_options.pool = pool.get();
  const std::string checkpoint = daemon_config(options, "").checkpoint_path;
  const serve::DaemonConfig config = daemon_config(options, "r_");
  fs::create_directories(config.journal_dir);
  BenchFeed feed(options.tenants * options.edges, options.seed,
                 options.slots);
  JsonObject out;
  std::string error;
  bool roundtrip = false;
  std::size_t restored_slot = 0;
  try {
    const Clock::time_point t0 = Clock::now();
    serve::ServeController controller(tenant_specs(options), sim_options,
                                      market_rule(options));
    serve::ServeDaemon daemon(controller, feed, config);
    const Clock::time_point t1 = Clock::now();
    daemon.restore_from(checkpoint);
    const Clock::time_point t2 = Clock::now();
    out.number("setup_s", seconds_between(t0, t1));
    out.number("restore_s", seconds_between(t1, t2));
    restored_slot = controller.slot();
    roundtrip = controller.checkpoint_payload() ==
                util::read_checkpoint_file(checkpoint);
  } catch (const std::exception& e) {
    error = e.what();
  }
  out.string("mode", "restore");
  out.string("error", error);
  out.integer("restored_slot", restored_slot);
  out.boolean("restore_roundtrip", roundtrip);
  std::printf("%s\n", out.text().c_str());
  return 0;
}

// ---------------------------------------------------------- traced mode

/// Layers the traced loop puts a span around. Order = column of the
/// layer table run.py prints.
enum Layer : std::uint8_t {
  kSlot,            // one slot, poll excluded
  kStep,            // serve::ServeController::step
  kJournalAppend,   // obs::JournalWriter::append (record built inside)
  kSloObserve,      // obs::SloWatchdog::observe_slot (observer callback)
  kSloDrain,        // observe_slot_wall + drain + alert routing
  kJournalSeal,     // obs::JournalWriter::seal
  kMetricsRender,   // obs::snapshot + obs::prometheus_text
  kMetricsPublish,  // util::write_file_atomic of the page
  kCkptEncode,      // ServeController::checkpoint_payload
  kCkptWrite,       // util::write_checkpoint_file
  kLayerCount,
};

constexpr const char* kLayerNames[kLayerCount] = {
    "serve.slot",    "serve.step",      "journal.append",
    "slo.observe",   "slo.drain",       "journal.seal",
    "metrics.render", "metrics.publish", "ckpt.encode",
    "ckpt.write"};

struct Span {
  Layer layer = kSlot;
  std::int32_t parent = -1;
  std::uint32_t slot = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// In-memory span log of the driving thread; written out after the run.
class SpanLog {
 public:
  explicit SpanLog(std::size_t reserve) { spans_.reserve(reserve); }

  std::size_t open(Layer layer, std::size_t slot) {
    spans_.push_back({layer, current_, static_cast<std::uint32_t>(slot),
                      obs::now_ns(), 0});
    current_ = static_cast<std::int32_t>(spans_.size() - 1);
    return spans_.size() - 1;
  }
  void close(std::size_t index) {
    spans_[index].end_ns = obs::now_ns();
    current_ = spans_[index].parent;
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::int32_t current_ = -1;
};

class Scope {
 public:
  Scope(SpanLog& log, Layer layer, std::size_t slot)
      : log_(log), index_(log.open(layer, slot)) {}
  ~Scope() { log_.close(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog& log_;
  std::size_t index_;
};

/// The daemon's observability state (serve/daemon.cpp, ServeDaemon::Obs),
/// rebuilt from public parts: it journals the same records in the same
/// order and feeds the same watchdog, with a span around each call.
struct TracedObserver final : serve::TenantSlotObserver {
  struct TenantView {
    std::string name;
    std::uint64_t horizon = 0;
    double carbon_cap = 0.0;
    double balance = 0.0;
    double emission_total = 0.0;
    double trader_dual = std::numeric_limits<double>::quiet_NaN();
    std::uint64_t switches_total = 0;
  };

  TracedObserver(serve::ServeController& controller_in,
                 const serve::DaemonConfig& config, SpanLog& log_in)
      : controller(controller_in),
        log(log_in),
        watchdog(config.slo, controller_in.num_tenants()),
        journal(config.journal_dir) {
    tenants.resize(controller.num_tenants());
    for (std::size_t i = 0; i < tenants.size(); ++i) {
      tenants[i].name = controller.tenant_name(i);
      tenants[i].horizon = controller.tenant_env(i).horizon();
      tenants[i].carbon_cap = controller.tenant_env(i).config().carbon_cap;
      tenants[i].balance = controller.tenant_engine(i).allowance_balance();
    }
  }

  void on_tenant_slot(std::size_t tenant,
                      const sim::SlotObservation& observed) override {
    TenantView& view = tenants[tenant];
    view.balance = observed.balance;
    view.emission_total += observed.emission;
    view.trader_dual = observed.trader_dual;
    view.switches_total = observed.switches_total;
    {
      const Scope span(log, kJournalAppend, observed.slot);
      obs::JournalRecord record;
      record.kind = obs::JournalRecord::Kind::kSlot;
      record.tenant = view.name;
      record.slot = observed.slot;
      record.model_counts.assign(observed.model_counts.begin(),
                                 observed.model_counts.end());
      record.switches_total = observed.switches_total;
      record.solver_lanes = observed.solver_lanes;
      record.arena_overflows = observed.arena_overflows;
      record.trader_dual = observed.trader_dual;
      record.buy = observed.buy;
      record.sell = observed.sell;
      record.buy_price = observed.buy_price;
      record.sell_price = observed.sell_price;
      record.emission = observed.emission;
      record.balance = observed.balance;
      record.carbon_cap = observed.carbon_cap;
      record.inference_cost = observed.inference_cost;
      record.switching_cost = observed.switching_cost;
      record.trading_cost = observed.trading_cost;
      record.accuracy = observed.accuracy;
      record.workload = observed.workload;
      journal.append(record);
    }
    const Scope span(log, kSloObserve, observed.slot);
    watchdog.observe_slot(tenant, {observed.slot, view.horizon,
                                   observed.emission, observed.balance});
  }

  /// State rules go to the journal (the daemon's journaled_alert rule).
  void record_alerts(std::size_t slot,
                     const std::vector<obs::SloAlert>& alerts) {
    for (const obs::SloAlert& alert : alerts) {
      if (alert.kind != obs::SloKind::kProjectedCapBreach &&
          alert.kind != obs::SloKind::kAllowanceInsolvency) {
        continue;
      }
      const Scope span(log, kJournalAppend, slot);
      obs::JournalRecord record;
      record.kind = obs::JournalRecord::Kind::kAlert;
      record.tenant = alert.tenant < tenants.size()
                          ? tenants[alert.tenant].name
                          : std::string("-");
      record.slot = alert.slot;
      record.alert = obs::slo_kind_name(alert.kind);
      record.value = alert.value;
      record.threshold = alert.threshold;
      journal.append(record);
    }
  }

  /// The daemon's metrics page: the same samples, rendered the same way.
  std::string render_metrics(std::int64_t staleness_ms) {
    const std::size_t slots_done = controller.slot();
    std::vector<obs::PromSample> extra;
    auto per_tenant = [&](const char* name, const char* type, auto value) {
      for (const TenantView& view : tenants) {
        extra.push_back({name, {{"tenant", view.name}}, value(view), type});
      }
    };
    per_tenant("tenant_allowance_balance", "gauge",
               [](const TenantView& v) { return v.balance; });
    per_tenant("tenant_emission_total", "counter",
               [](const TenantView& v) { return v.emission_total; });
    per_tenant("tenant_cap_burn_rate", "gauge", [&](const TenantView& v) {
      if (slots_done == 0 || v.carbon_cap <= 0.0 || v.horizon == 0) {
        return 0.0;
      }
      return (v.emission_total * static_cast<double>(v.horizon)) /
             (v.carbon_cap * static_cast<double>(slots_done));
    });
    per_tenant("tenant_allowance_solvency", "gauge", [](const TenantView& v) {
      return v.carbon_cap > 0.0 ? v.balance / v.carbon_cap : v.balance;
    });
    per_tenant("tenant_trader_dual", "gauge",
               [](const TenantView& v) { return v.trader_dual; });
    per_tenant("tenant_switches_total", "counter", [](const TenantView& v) {
      return static_cast<double>(v.switches_total);
    });
    for (std::size_t kind = 0; kind < obs::kSloKindCount; ++kind) {
      extra.push_back(
          {"slo_alerts_total",
           {{"kind", obs::slo_kind_name(static_cast<obs::SloKind>(kind))}},
           static_cast<double>(watchdog.counts()[kind]),
           "counter"});
    }
    extra.push_back({"feed_staleness_ms", {},
                     static_cast<double>(staleness_ms), "gauge"});
    extra.push_back({"journal_records_sealed", {},
                     static_cast<double>(journal.records_sealed()), "gauge"});
    extra.push_back({"journal_segments_sealed", {},
                     static_cast<double>(journal.segments_sealed()), "gauge"});
    const obs::Snapshot snap = obs::snapshot();
    for (const obs::HistogramValue& histogram : snap.histograms) {
      if (histogram.name != "serve.slot") continue;
      for (const double q : {0.5, 0.99}) {
        extra.push_back({"slot_wall_ns",
                         {{"quantile", q == 0.5 ? "0.5" : "0.99"}},
                         obs::histogram_quantile(histogram, q),
                         "gauge"});
      }
    }
    return obs::prometheus_text(snap, extra);
  }

  serve::ServeController& controller;
  SpanLog& log;
  obs::SloWatchdog watchdog;
  obs::JournalWriter journal;
  std::vector<TenantView> tenants;
};

std::int64_t steady_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             Clock::now().time_since_epoch())
      .count();
}

void write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) throw std::runtime_error("cannot write " + path);
  for (const Span& span : spans) {
    std::fprintf(file, "%s\t%d\t%u\t%" PRId64 "\t%" PRId64 "\n",
                 kLayerNames[span.layer], span.parent, span.slot,
                 span.start_ns, span.end_ns);
  }
  std::fclose(file);
}

JsonObject telemetry_json(const obs::Snapshot& snap) {
  JsonObject histograms;
  for (const obs::HistogramValue& histogram : snap.histograms) {
    JsonObject cell;
    cell.integer("count", histogram.count);
    cell.number("sum", histogram.sum);
    histograms.object(histogram.name.c_str(), cell);
  }
  JsonObject counters;
  for (const obs::CounterValue& counter : snap.counters) {
    counters.number(counter.name.c_str(), counter.value);
  }
  JsonObject out;
  out.object("histograms", histograms);
  out.object("counters", counters);
  return out;
}

int run_traced(const Options& options) {
  const auto pool = make_pool(options.threads);
  sim::SimOptions sim_options;
  sim_options.pool = pool.get();
  const auto specs = tenant_specs(options);
  const serve::MarketRule market = market_rule(options);
  const std::size_t width = options.tenants * options.edges;
  const serve::DaemonConfig config = daemon_config(options, "");
  fs::create_directories(config.journal_dir);

  JsonObject out;
  std::string error;
  std::size_t completed = 0;
  std::uint64_t ckpt_bytes_first = 0, ckpt_bytes_last = 0;
  std::uint64_t metrics_bytes = 0, loop_fsyncs = 0;
  SpanLog log(options.slots * (12 + 3 * options.tenants));
  BenchFeed feed(width, options.seed, options.slots);
  obs::Snapshot telemetry;
  {
    serve::ServeController controller(specs, sim_options, market);
    TracedObserver observer(controller, config, log);
    controller.set_observer(&observer);
    serve::SlotInput input;
    const std::size_t every = config.checkpoint_every;
    auto checkpoint_size = [&] {
      return static_cast<std::uint64_t>(fs::file_size(config.checkpoint_path));
    };
    obs::reset();
    obs::set_detail(true);
    const std::uint64_t fsyncs_before = g_fsyncs.load();
    std::int64_t last_ready_ms = steady_ms();
    try {
      for (std::size_t t = 0; t < options.slots; ++t) {
        feed.poll(t, input);
        const std::int64_t wall_start_ms = steady_ms();
        last_ready_ms = wall_start_ms;
        bool boundary = false;
        {
          const Scope slot_span(log, kSlot, t);
          {
            const Scope span(log, kStep, t);
            controller.step(input.quote, input.workload);
          }
          {
            const Scope span(log, kSloDrain, t);
            observer.watchdog.observe_slot_wall(t,
                                                steady_ms() - wall_start_ms);
            observer.record_alerts(t, observer.watchdog.drain());
          }
          {
            const Scope span(log, kJournalSeal, t);
            observer.journal.seal();
          }
          std::string page;
          {
            const Scope span(log, kMetricsRender, t);
            page = observer.render_metrics(steady_ms() - last_ready_ms);
          }
          {
            const Scope span(log, kMetricsPublish, t);
            util::write_file_atomic(config.metrics_path, page);
          }
          metrics_bytes = page.size();
          boundary = every != 0 && controller.slot() % every == 0;
          if (boundary) {
            {
              const Scope span(log, kJournalSeal, t);
              observer.journal.seal();
            }
            std::string payload;
            {
              const Scope span(log, kCkptEncode, t);
              payload = controller.checkpoint_payload();
            }
            const Scope span(log, kCkptWrite, t);
            util::write_checkpoint_file(config.checkpoint_path, payload);
            // The daemon's payload is a temporary freed inside its write.
            std::string().swap(payload);
          }
        }
        if (boundary) {
          ckpt_bytes_last = checkpoint_size();
          if (ckpt_bytes_first == 0) ckpt_bytes_first = ckpt_bytes_last;
        }
        completed = t + 1;
      }
      loop_fsyncs = g_fsyncs.load() - fsyncs_before;
      obs::set_detail(false);
      telemetry = obs::snapshot();
      // Shutdown, as ServeDaemon::run ends: seal, final checkpoint.
      observer.journal.seal();
      util::write_checkpoint_file(config.checkpoint_path,
                                  controller.checkpoint_payload());
      ckpt_bytes_last = checkpoint_size();
      if (ckpt_bytes_first == 0) ckpt_bytes_first = ckpt_bytes_last;
    } catch (const std::exception& e) {
      error = e.what();
      obs::set_detail(false);
    }
    controller.set_observer(nullptr);
  }

  // Restore split: restore_from = read + parse + SLO-history replay. Each
  // part is timed kRestoreRepeats times into the same restored controller;
  // run.py takes medians.
  constexpr int kRestoreRepeats = 5;
  std::vector<double> read_s, parse_s, restore_s;
  try {
    const serve::DaemonConfig restore_config = daemon_config(options, "r_");
    fs::create_directories(restore_config.journal_dir);
    BenchFeed restore_feed(width, options.seed, options.slots);
    serve::ServeController controller(specs, sim_options, market);
    serve::ServeDaemon daemon(controller, restore_feed, restore_config);
    for (int repeat = 0; repeat < kRestoreRepeats; ++repeat) {
      const Clock::time_point t0 = Clock::now();
      daemon.restore_from(config.checkpoint_path);
      const Clock::time_point t1 = Clock::now();
      const std::string payload =
          util::read_checkpoint_file(config.checkpoint_path);
      const Clock::time_point t2 = Clock::now();
      controller.restore_payload(payload);
      const Clock::time_point t3 = Clock::now();
      restore_s.push_back(seconds_between(t0, t1));
      read_s.push_back(seconds_between(t1, t2));
      parse_s.push_back(seconds_between(t2, t3));
    }
  } catch (const std::exception& e) {
    if (error.empty()) error = std::string("restore: ") + e.what();
  }

  write_spans(options.dir + "/spans.tsv", log.spans());
  const JournalSummary journal =
      summarize_journal(config.journal_dir, tenant_names(options), completed);
  out.string("mode", "traced");
  out.integer("slots", options.slots);
  out.integer("completed", completed);
  out.string("error", error);
  out.integer("ckpt_bytes_first", ckpt_bytes_first);
  out.integer("ckpt_bytes_last", ckpt_bytes_last);
  out.integer("metrics_bytes", metrics_bytes);
  out.integer("fsyncs", loop_fsyncs);
  out.numbers("restore_s", restore_s);
  out.numbers("restore_read_s", read_s);
  out.numbers("restore_parse_s", parse_s);
  out.object("telemetry", telemetry_json(telemetry));
  put_journal(out, journal);
  std::printf("%s\n", out.text().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!parse_options(argc, argv, options)) {
    std::fprintf(stderr,
                 "usage: perf_serve timed|restore|traced --tenants T --edges E "
                 "--threads K --slots N --checkpoint-every C --seed S "
                 "--dir D\n");
    return 1;
  }
  try {
    fs::create_directories(options.dir);
    if (options.mode == "timed") return run_timed(options);
    if (options.mode == "restore") return run_restore(options);
    return run_traced(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perf_serve: %s\n", e.what());
    return 2;
  }
}
