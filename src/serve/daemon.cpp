#include "serve/daemon.h"

#include <sys/stat.h>

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <utility>

#include "obs/journal.h"
#include "obs/prom.h"
#include "obs/telemetry.h"
#include "serve/metrics_server.h"
#include "util/state_io.h"
#include "util/thread_pool.h"

namespace cea::serve {
namespace {

bool file_exists(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0;
}

void sleep_ms(std::size_t ms) {
  if (ms > 0) std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

std::int64_t steady_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Journal only the state-driven rules: they are pure functions of the
/// engines' computed state, so serial and pooled runs journal identical
/// alerts. The clock-driven rules (feed stall, deadline miss) surface on
/// the metrics page and in the exit code only.
bool journaled_alert(obs::SloKind kind) {
  return kind == obs::SloKind::kProjectedCapBreach ||
         kind == obs::SloKind::kAllowanceInsolvency;
}

}  // namespace

// All observability state of one daemon: the journal writer, the SLO
// watchdog, the metrics page and the optional TCP endpoint. Implements the
// engines' observer so every (tenant, slot) decision lands here
// synchronously, at a pool-quiescent point, in deterministic tenant order,
// and forwards it to the daemon's series recorder when there is one. The
// watchdog's state travels in the controller's checkpoint (save_state /
// load_state), so a restored run raises the same alerts with the same
// values as the uninterrupted one: the journal bit-identity contract
// extends across restores.
struct ServeDaemon::Obs final : sim::SlotObserver {
  ServeController& controller;
  const DaemonConfig& config;
  sim::SeriesRecorder* series;
  obs::SloWatchdog watchdog;
  std::unique_ptr<obs::JournalWriter> journal;
  std::unique_ptr<MetricsServer> server;

  /// The per-tenant constants the metrics page and the watchdog need; the
  /// changing gauges are read from the engines at render time.
  struct TenantView {
    std::string name;
    std::uint64_t horizon = 0;
    double carbon_cap = 0.0;
  };
  std::vector<TenantView> tenants;
  std::int64_t last_ready_ms = 0;

  Obs(ServeController& controller_in, const DaemonConfig& config_in,
      sim::SeriesRecorder* series_in)
      : controller(controller_in),
        config(config_in),
        series(series_in),
        watchdog(config_in.slo, controller_in.num_tenants()) {
    if (!config.journal_dir.empty()) {
      journal = std::make_unique<obs::JournalWriter>(config.journal_dir);
    }
    if (config.metrics_port >= 0) {
      server = std::make_unique<MetricsServer>(config.metrics_port);
    }
    tenants.resize(controller.num_tenants());
    for (std::size_t i = 0; i < tenants.size(); ++i) {
      tenants[i].name = controller.tenant_name(i);
      tenants[i].horizon = controller.tenant_env(i).horizon();
      tenants[i].carbon_cap = controller.tenant_env(i).config().carbon_cap;
    }
  }

  std::string save_state() const override {
    util::StateWriter writer;
    watchdog.save_state(writer);
    return writer.take();
  }

  /// Empty state (a checkpoint written with no observer or a stateless
  /// one) starts a fresh watchdog. Alert counts start from 0 either way.
  void load_state(std::string_view state) override {
    watchdog = obs::SloWatchdog(config.slo, tenants.size());
    if (state.empty()) return;
    util::StateReader reader(state);
    watchdog.load_state(reader);
    reader.expect_end();
  }

  void on_tenant_slot(std::size_t tenant,
                      const sim::SlotObservation& observed) override {
    const TenantView& view = tenants[tenant];
    if (journal != nullptr) {
      obs::JournalRecord record;
      record.kind = obs::JournalRecord::Kind::kSlot;
      record.tenant = view.name;
      record.slot = observed.slot;
      record.model_counts.assign(observed.model_counts.begin(),
                                 observed.model_counts.end());
      static_cast<obs::SlotValues&>(record) = observed;
      journal->append(record);
    }

    watchdog.observe_slot(tenant, {observed.slot, view.horizon,
                                   observed.emission, observed.balance});
    if (series != nullptr) series->on_tenant_slot(tenant, observed);
  }

  /// Route freshly drained alerts: state rules into the journal (as
  /// kAlert records, after the slot records that produced them), every
  /// rule into the counters the metrics page exports.
  void record_alerts(const std::vector<obs::SloAlert>& alerts) {
    if (journal == nullptr) return;
    for (const obs::SloAlert& alert : alerts) {
      if (!journaled_alert(alert.kind)) continue;
      obs::JournalRecord record;
      record.kind = obs::JournalRecord::Kind::kAlert;
      record.tenant = alert.tenant < tenants.size()
                          ? tenants[alert.tenant].name
                          : std::string("-");
      record.slot = alert.slot;
      record.alert = obs::slo_kind_name(alert.kind);
      record.value = alert.value;
      record.threshold = alert.threshold;
      journal->append(record);
    }
  }

  void seal_journal() {
    if (journal != nullptr) journal->seal();
  }

  bool metrics_enabled() const {
    return !config.metrics_path.empty() || server != nullptr;
  }

  /// What the metrics page shows at one slot boundary: the registry
  /// snapshot and the serving samples.
  obs::Snapshot page_snapshot;
  std::vector<obs::PromSample> page_samples;

  /// Fill the page's contents from the engines, the watchdog, the journal
  /// and the registry. Caller guarantees pool quiescence (slot boundary),
  /// the point obs/telemetry.h requires for a snapshot.
  void collect_metrics(std::int64_t now_ms) {
    const std::size_t slots_done = controller.slot();
    std::vector<obs::PromSample> extra;
    // Per-tenant series, one loop per metric name so consecutive samples
    // share a TYPE header (obs/prom.h grouping rule).
    auto per_tenant = [&](const char* name, const char* type,
                          auto&& value_of) {
      for (std::size_t i = 0; i < tenants.size(); ++i) {
        extra.push_back({name,
                         {{"tenant", tenants[i].name}},
                         value_of(tenants[i], controller.tenant_engine(i)),
                         type});
      }
    };
    per_tenant("tenant_allowance_balance", "gauge",
               [](const TenantView&, const sim::SlotEngine& engine) {
                 return engine.allowance_balance();
               });
    per_tenant("tenant_emission_total", "counter",
               [](const TenantView&, const sim::SlotEngine& engine) {
                 return engine.emission_total();
               });
    // Fraction of the carbon cap already emitted, relative to the fraction
    // of the horizon already served: 1.0 = exactly on pace to land at the
    // cap, >1 = burning allowances faster than time.
    per_tenant("tenant_cap_burn_rate", "gauge",
               [slots_done](const TenantView& view,
                            const sim::SlotEngine& engine) {
                 if (slots_done == 0 || view.carbon_cap <= 0.0 ||
                     view.horizon == 0) {
                   return 0.0;
                 }
                 return (engine.emission_total() *
                         static_cast<double>(view.horizon)) /
                        (view.carbon_cap * static_cast<double>(slots_done));
               });
    // Remaining allowance headroom as a fraction of the cap; negative when
    // the tenant is emitting uncovered.
    per_tenant("tenant_allowance_solvency", "gauge",
               [](const TenantView& view, const sim::SlotEngine& engine) {
                 return view.carbon_cap > 0.0
                            ? engine.allowance_balance() / view.carbon_cap
                            : engine.allowance_balance();
               });
    per_tenant("tenant_trader_dual", "gauge",
               [](const TenantView&, const sim::SlotEngine& engine) {
                 return engine.trader_dual();
               });
    per_tenant("tenant_switches_total", "counter",
               [](const TenantView&, const sim::SlotEngine& engine) {
                 return static_cast<double>(engine.total_switches());
               });
    for (std::size_t kind = 0; kind < obs::kSloKindCount; ++kind) {
      extra.push_back(
          {"slo_alerts_total",
           {{"kind", obs::slo_kind_name(static_cast<obs::SloKind>(kind))}},
           static_cast<double>(watchdog.counts()[kind]),
           "counter"});
    }
    extra.push_back({"feed_staleness_ms",
                     {},
                     static_cast<double>(now_ms - last_ready_ms),
                     "gauge"});
    if (journal != nullptr) {
      extra.push_back({"journal_records_sealed",
                       {},
                       static_cast<double>(journal->records_sealed()),
                       "gauge"});
      extra.push_back({"journal_segments_sealed",
                       {},
                       static_cast<double>(journal->segments_sealed()),
                       "gauge"});
    }
    page_snapshot = obs::snapshot();
    // Slot wall-time quantiles out of the existing span histogram.
    for (const obs::HistogramValue& histogram : page_snapshot.histograms) {
      if (histogram.name != "serve.slot") continue;
      extra.push_back({"slot_wall_ns",
                       {{"quantile", "0.5"}},
                       obs::histogram_quantile(histogram, 0.5),
                       "gauge"});
      extra.push_back({"slot_wall_ns",
                       {{"quantile", "0.99"}},
                       obs::histogram_quantile(histogram, 0.99),
                       "gauge"});
    }
    page_samples = std::move(extra);
  }

  /// Render the page collect_metrics gathered and push it to every
  /// configured sink. Reads nothing else of the daemon's, so it can run on
  /// a pool worker beside the checkpoint task.
  void publish_metrics() {
    const std::string text =
        obs::prometheus_text(page_snapshot, page_samples);
    if (!config.metrics_path.empty()) {
      util::write_file_atomic(config.metrics_path, text);
    }
    if (server != nullptr) server->publish(text);
  }
};

ServeDaemon::ServeDaemon(ServeController& controller, FeedSource& feed,
                         DaemonConfig config, sim::SeriesRecorder* series)
    : controller_(controller),
      feed_(feed),
      config_(std::move(config)),
      series_(series) {
  if (feed_.num_edges() != controller_.total_edges()) {
    throw std::invalid_argument(
        "ServeDaemon: feed supplies " + std::to_string(feed_.num_edges()) +
        " edges, controller needs " +
        std::to_string(controller_.total_edges()));
  }
  // The two are written side by side at each slot boundary.
  if (!config_.checkpoint_path.empty() &&
      config_.checkpoint_path == config_.metrics_path) {
    throw std::invalid_argument(
        "ServeDaemon: the checkpoint and the metrics page share the path " +
        config_.checkpoint_path);
  }
  const bool observability = !config_.journal_dir.empty() ||
                             !config_.metrics_path.empty() ||
                             config_.metrics_port >= 0 ||
                             config_.slo.feed_stall_ms > 0 ||
                             config_.slo.slot_deadline_ms > 0;
  // With observability the recorder rides behind Obs, which forwards
  // every observation to it; a bare recorder's state is empty, so either
  // way the checkpoint's observer record holds the watchdog or nothing.
  sim::SlotObserver* observer = series_;
  if (observability) {
    obs_ = std::make_unique<Obs>(controller_, config_, series_);
    observer = obs_.get();
  }
  if (observer != nullptr) controller_.set_observer(observer);
}

ServeDaemon::~ServeDaemon() {
  if (obs_ != nullptr || series_ != nullptr) controller_.set_observer(nullptr);
}

int ServeDaemon::metrics_port() const noexcept {
  if (obs_ != nullptr && obs_->server != nullptr) {
    return obs_->server->port();
  }
  return -1;
}

bool ServeDaemon::restore_if_present() {
  if (config_.checkpoint_path.empty() ||
      !file_exists(config_.checkpoint_path)) {
    return false;
  }
  restore_from(config_.checkpoint_path);
  return true;
}

void ServeDaemon::restore_from(const std::string& path) {
  controller_.restore_payload(util::read_checkpoint_file(path));
}

bool ServeDaemon::write_checkpoint() {
  if (config_.checkpoint_path.empty()) return false;
  util::write_checkpoint_file(config_.checkpoint_path,
                              controller_.checkpoint_payload());
  CEA_TELEM(static const obs::MetricId obs_ckpt =
                obs::counter("serve.checkpoints");
            obs::add(obs_ckpt, 1.0););
  return true;
}

bool ServeDaemon::publish_outputs(bool checkpoint_due, bool metrics_due) {
  const bool checkpoint = checkpoint_due && !config_.checkpoint_path.empty();
  const bool page =
      metrics_due && obs_ != nullptr && obs_->metrics_enabled();
  if (page) obs_->collect_metrics(steady_ms());
  // The checkpoint is index 0: the caller claims the first index, so it
  // writes the longer task while a worker publishes the page.
  const auto task = [&](std::size_t index) {
    if (checkpoint && index == 0) {
      write_checkpoint();
    } else {
      obs_->publish_metrics();
    }
  };
  const std::size_t tasks = std::size_t{checkpoint} + std::size_t{page};
  if (util::ThreadPool* pool = controller_.pool(); pool != nullptr) {
    pool->parallel_for(tasks, task);
  } else {
    for (std::size_t index = 0; index < tasks; ++index) task(index);
  }
  return checkpoint;
}

DaemonReport ServeDaemon::run() {
  DaemonReport report;
  std::size_t pending_streak = 0;
  SlotInput input;
  const std::size_t journal_every =
      config_.journal_every == 0 ? 1 : config_.journal_every;
  const std::size_t metrics_every =
      config_.metrics_every == 0 ? 1 : config_.metrics_every;
  if (obs_ != nullptr) {
    report.metrics_port = metrics_port();
    obs_->last_ready_ms = steady_ms();  // the stall clock starts now
  }
  while (true) {
    const std::size_t t = controller_.slot();
    if (config_.max_slots != 0 && t >= config_.max_slots) break;
    const FeedStatus status = feed_.poll(t, input);
    if (status == FeedStatus::kEnd) {
      report.feed_ended = true;
      break;
    }
    if (status == FeedStatus::kPending) {
      CEA_TELEM(static const obs::MetricId obs_pending =
                    obs::counter("serve.feed_pending");
                obs::add(obs_pending, 1.0););
      if (obs_ != nullptr) {
        obs_->watchdog.observe_feed(t, steady_ms(), obs_->last_ready_ms);
      }
      ++pending_streak;
      if (config_.max_pending_polls != 0 &&
          pending_streak >= config_.max_pending_polls) {
        break;
      }
      sleep_ms(config_.poll_interval_ms);
      continue;
    }
    pending_streak = 0;
    std::int64_t wall_start_ms = 0;
    if (obs_ != nullptr) {
      wall_start_ms = steady_ms();
      obs_->last_ready_ms = wall_start_ms;
    }
    {
      CEA_SPAN("serve.slot");
      controller_.step(input.quote, input.workload);
    }
    ++report.slots_processed;
    CEA_TELEM(static const obs::MetricId obs_slots =
                  obs::counter("serve.slots");
              obs::add(obs_slots, 1.0););
    const std::size_t done = controller_.slot();
    const bool checkpoint_due =
        config_.checkpoint_every != 0 && done % config_.checkpoint_every == 0;
    if (obs_ != nullptr) {
      obs_->watchdog.observe_slot_wall(t, steady_ms() - wall_start_ms);
      obs_->record_alerts(obs_->watchdog.drain());
      // The journal must cover everything the checkpoint claims happened:
      // seal before the checkpoint task starts, so a crash between the
      // two leaves a journal that is at least as long as the checkpoint.
      if (checkpoint_due || done % journal_every == 0) obs_->seal_journal();
    }
    sleep_ms(config_.slot_delay_ms);
    if (publish_outputs(checkpoint_due, done % metrics_every == 0)) {
      ++report.checkpoints_written;
    }
    if (config_.stop_after_slots != 0 &&
        report.slots_processed >= config_.stop_after_slots) {
      break;
    }
  }
  if (obs_ != nullptr) obs_->seal_journal();
  if (publish_outputs(true, true)) ++report.checkpoints_written;
  report.final_slot = controller_.slot();
  if (obs_ != nullptr) {
    report.alerts = obs_->watchdog.counts();
    report.alerts_total = obs_->watchdog.total();
    if (obs_->journal != nullptr) {
      report.journal_records = obs_->journal->records_sealed();
      report.journal_segments = obs_->journal->segments_sealed();
    }
  }
  return report;
}

}  // namespace cea::serve
