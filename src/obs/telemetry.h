#pragma once

// Process-wide runtime telemetry: named counters, gauges and fixed-bucket
// histograms, recorded into per-thread shards (plain stores on the hot
// path — no atomics, no locks) and aggregated only when a snapshot is
// drained. A scoped phase timer (CEA_SPAN) feeds a duration histogram and,
// when tracing is enabled, a bounded per-thread ring buffer of trace
// events exportable in Chrome trace-event format (obs/export.h).
//
// Contracts:
//  * Telemetry is observational only — nothing recorded here may feed
//    control flow, so instrumented code stays bit-identical with telemetry
//    compiled in, compiled out, tracing on or off (tests/obs).
//  * Hot-path recording (add / set / observe / span construction) touches
//    only the calling thread's shard. Registration of a *new* metric and
//    shard growth take the registry mutex; both happen once per site.
//  * snapshot() / drain_trace() must be called at a quiescent point: after
//    every parallel_for using instrumented tasks has returned (the pool's
//    job-completion acquire/release pair makes worker shard writes visible
//    to the caller). The benches and tests drain after runs complete.
//  * -DCEA_TELEMETRY=OFF removes metric recording only, and this header
//    is the only place that switch is read: the CEA_SPAN / CEA_TELEM
//    sites expand to nothing (arguments unevaluated), detail_enabled() is
//    a constant false, ScopedSpan reads no clock, and the registry stays
//    empty. The API below still links, so no other file needs an #if.
//    The decision journal, the SLO watchdog, the metrics page and the
//    engine's SlotObserver hook are runtime opt-ins in every build.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace cea::obs {

/// True when the build was configured with -DCEA_TELEMETRY=ON (the
/// default), i.e. metric recording is compiled in.
constexpr bool compiled_in() noexcept {
#if defined(CEA_TELEMETRY)
  return true;
#else
  return false;
#endif
}

/// Opaque metric handle: kind tag in the top bits, dense slot index below.
/// Obtained once per site (static local) from the registration functions.
using MetricId = std::uint32_t;
inline constexpr MetricId kInvalidMetric = ~MetricId{0};

/// Register (or look up) a metric by name. Re-registering the same name
/// with the same kind returns the existing id; the same name with a
/// different kind is a programming error and returns kInvalidMetric.
MetricId counter(std::string_view name);
MetricId gauge(std::string_view name);

/// Histogram with explicit finite bucket upper edges (strictly increasing);
/// a value v lands in the first bucket with v <= edge, or in the implicit
/// overflow bucket past the last edge.
MetricId histogram(std::string_view name, std::span<const double> upper_edges);

/// Histogram pre-configured for durations in nanoseconds: log-spaced edges,
/// three per decade from 100 ns to 10 s.
MetricId duration_histogram(std::string_view name);

/// Hot-path recording. No-ops on kInvalidMetric or a kind mismatch.
void add(MetricId id, double delta = 1.0);  ///< counter += delta
void set(MetricId id, double value);        ///< gauge last-write-wins
void observe(MetricId id, double value);    ///< histogram sample

/// Nanoseconds on the steady clock since the process telemetry epoch
/// (first registry use). Monotonic and comparable across threads.
std::int64_t now_ns() noexcept;

/// Intern a dynamically built label into process-lifetime storage and
/// return a stable pointer (deduplicated). Spans and trace events keep
/// name pointers by reference, so labels that are not string literals —
/// e.g. per-layer "nn.fwd.<model>.<layer>" names — must be interned once
/// and reused.
const char* intern(std::string_view text);

// ------------------------------------------------------- cardinality cap

/// Cap on *distinct metric names per kind*. Registration of a new name
/// past the cap is redirected to that kind's overflow bin
/// ("telemetry.capped.counter" / ".gauge" / ".histogram" — created on the
/// first capped registration, allowed past the cap) and counted in
/// capped_registrations(). Existing names always resolve to their own
/// metric. This bounds the snapshot of fleet-scale runs: a harness that
/// keys names per edge ("sim.edge.<i>.x") cannot grow the registry, and
/// therefore every shard and the snapshot, by O(num_edges) at 10k edges.
/// Default: 4096 per kind.
void set_metric_capacity(std::size_t max_names_per_kind);
std::size_t metric_capacity();

/// Registrations redirected to an overflow bin since process start (never
/// reset by reset() — it certifies whether a run stayed under the cap).
std::uint64_t capped_registrations();

// ---------------------------------------------------------------- snapshot

struct CounterValue {
  std::string name;
  double value = 0.0;
};

struct GaugeValue {
  std::string name;
  double value = 0.0;
  bool ever_set = false;
};

struct HistogramValue {
  std::string name;
  std::vector<double> upper_edges;           ///< finite edges, ascending
  std::vector<std::uint64_t> bucket_counts;  ///< size upper_edges.size() + 1
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;  ///< defined only when count > 0
  double max = 0.0;  ///< defined only when count > 0
};

struct Snapshot {
  std::vector<CounterValue> counters;
  std::vector<GaugeValue> gauges;
  std::vector<HistogramValue> histograms;
};

/// Aggregate every live thread shard plus the folded totals of exited
/// threads. Quiescent-point contract above.
Snapshot snapshot();

/// Zero all recorded values (live shards and retired totals). Metric
/// definitions persist, so cached MetricIds stay valid. Test setup /
/// bench-session start.
void reset();

// ----------------------------------------------------------------- tracing

/// One completed span ("X" phase) or counter sample ("C" phase) for the
/// Chrome trace-event exporter. `name` points at the static string the
/// instrumentation site passed; it is never owned.
struct TraceEvent {
  const char* name = nullptr;
  std::uint32_t tid = 0;        ///< stable per-thread shard id
  std::int64_t start_ns = 0;    ///< now_ns() timebase
  std::int64_t dur_ns = 0;      ///< spans only; 0 for counter events
  double value = 0.0;           ///< counter events only
  bool is_counter = false;
};

namespace internal {
/// Hot-path switches, exposed so tracing_enabled()/detail_enabled() inline
/// to a single relaxed load at the instrumentation sites (an out-of-line
/// call would dominate the cost of an *disabled* check). Toggle only
/// through enable_tracing()/set_detail().
extern std::atomic<bool> g_tracing;
extern std::atomic<bool> g_detail;
}  // namespace internal

/// Start recording trace events into per-thread ring buffers of
/// `capacity_per_thread` events (oldest overwritten when full). Enabling
/// clears any previously recorded events.
void enable_tracing(std::size_t capacity_per_thread = std::size_t{1} << 15);
void disable_tracing();
inline bool tracing_enabled() noexcept {
  return internal::g_tracing.load(std::memory_order_relaxed);
}

/// Number of events that fell out of full rings since tracing was enabled.
std::uint64_t trace_dropped();

/// Collect-and-clear all recorded events, sorted by start time. Quiescent-
/// point contract above.
std::vector<TraceEvent> drain_trace();

/// Record a counter sample into the trace (renders as a value-over-time
/// track in Perfetto, e.g. the trader's dual variable lambda). `name` must
/// be a string with static storage duration. No-op when tracing is off.
void trace_counter(const char* name, double value);

// -------------------------------------------------------- detail switch

/// Fine-grained instrumentation switch for sites too hot to record
/// unconditionally (the simulator's per-edge draw/bandit split, per-solve
/// Tsallis convergence observes, per-block bandit stats — anything that
/// fires more than a handful of times per slot). Default off, so the
/// always-on cost is the slot-level phase spans only (<2% on
/// perf_simulator); the bench harness turns detail on together with
/// tracing when --telemetry is given. Telemetry never feeds control flow,
/// so toggling this cannot change any computed result.
/// A constant false under -DCEA_TELEMETRY=OFF, so detail-gated blocks
/// compile away without an #if at the site.
void set_detail(bool enabled);
inline bool detail_enabled() noexcept {
  return compiled_in() && internal::g_detail.load(std::memory_order_relaxed);
}

// ------------------------------------------------------------- span timer

/// RAII phase timer: construction stamps now_ns(), destruction records the
/// duration into the histogram `id` and, when tracing is enabled, pushes a
/// trace event. A span constructed with enabled=false — and every span
/// under -DCEA_TELEMETRY=OFF — reads no clock at all (the dominant cost of
/// an idle span) and records nothing. Prefer CEA_SPAN / CEA_SPAN_DETAIL
/// below, which also register the histogram once per site.
class ScopedSpan {
 public:
  ScopedSpan(MetricId id, const char* name, bool enabled = true) noexcept
      : id_(id),
        name_(name),
        start_(compiled_in() && enabled ? now_ns() : -1) {}
  ~ScopedSpan() {
    if (start_ >= 0) finish();
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  void finish() noexcept;

  MetricId id_;
  const char* name_;
  std::int64_t start_;
};

}  // namespace cea::obs

// CEA_SPAN("phase.name"): scoped phase timer for the rest of the enclosing
// block. The name must be a string literal (it is retained by reference in
// trace events). The histogram is registered once per site via a static
// local. Expands to nothing under -DCEA_TELEMETRY=OFF.
//
// CEA_SPAN_DETAIL("phase.name"): the same, but the timer only runs while
// the detail switch is on (set_detail / --telemetry). When detail is off
// the site costs one inlined relaxed load — no clock reads — so it is safe
// on paths that run a handful of times per slot.
//
// CEA_TELEM(statements;): arbitrary telemetry-only statements (counter
// bumps, gauge sets, detail-gated timing) that vanish entirely when
// telemetry is compiled out.
#if defined(CEA_TELEMETRY)
#define CEA_OBS_CONCAT_INNER(a, b) a##b
#define CEA_OBS_CONCAT(a, b) CEA_OBS_CONCAT_INNER(a, b)
#define CEA_SPAN(name)                                                  \
  static const ::cea::obs::MetricId CEA_OBS_CONCAT(cea_span_id_,        \
                                                   __LINE__) =          \
      ::cea::obs::duration_histogram(name);                             \
  const ::cea::obs::ScopedSpan CEA_OBS_CONCAT(cea_span_, __LINE__)(     \
      CEA_OBS_CONCAT(cea_span_id_, __LINE__), name)
#define CEA_SPAN_DETAIL(name)                                           \
  static const ::cea::obs::MetricId CEA_OBS_CONCAT(cea_span_id_,        \
                                                   __LINE__) =          \
      ::cea::obs::duration_histogram(name);                             \
  const ::cea::obs::ScopedSpan CEA_OBS_CONCAT(cea_span_, __LINE__)(     \
      CEA_OBS_CONCAT(cea_span_id_, __LINE__), name,                     \
      ::cea::obs::detail_enabled())
#define CEA_TELEM(...) \
  do {                 \
    __VA_ARGS__        \
  } while (false)
#else
#define CEA_SPAN(name) \
  do {                 \
  } while (false)
#define CEA_SPAN_DETAIL(name) \
  do {                        \
  } while (false)
#define CEA_TELEM(...) \
  do {                 \
  } while (false)
#endif
