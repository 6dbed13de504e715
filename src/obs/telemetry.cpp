#include "obs/telemetry.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

namespace cea::obs {
namespace {

// MetricId layout: kind in the top two bits, dense per-kind slot index in
// the rest. Registration is append-only, so an index never moves.
enum : std::uint32_t { kKindCounter = 0, kKindGauge = 1, kKindHistogram = 2 };
constexpr std::uint32_t kKindShift = 30;
constexpr std::uint32_t kIndexMask = (std::uint32_t{1} << kKindShift) - 1;

constexpr MetricId make_id(std::uint32_t kind, std::uint32_t index) {
  return (kind << kKindShift) | index;
}
constexpr std::uint32_t kind_of(MetricId id) { return id >> kKindShift; }
constexpr std::uint32_t index_of(MetricId id) { return id & kIndexMask; }

/// Immutable histogram definition; owned by the registry through a
/// unique_ptr so the address stays stable and shards can cache it and read
/// the edges without taking the registry mutex.
struct HistogramDef {
  std::string name;
  std::vector<double> upper_edges;
};

struct GaugeCell {
  double value = 0.0;
  std::uint64_t seq = 0;  ///< global write sequence; merge keeps the max
};

struct HistCell {
  const HistogramDef* def = nullptr;      ///< bound on first observe
  std::vector<std::uint64_t> buckets;     ///< upper_edges.size() + 1
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
};

struct ShardData {
  std::vector<double> counters;
  std::vector<GaugeCell> gauges;
  std::vector<HistCell> hists;
};

struct TraceRing {
  std::vector<TraceEvent> events;  ///< sized to capacity once tracing starts
  std::size_t next = 0;            ///< write cursor
  std::uint64_t pushed = 0;        ///< total pushes since (re)enable
};

struct Shard;

class Registry {
 public:
  std::mutex mutex;

  // Definitions (append-only, guarded by mutex for writes; names are only
  // read back under the mutex in snapshot()).
  std::vector<std::string> counter_names;
  std::vector<std::string> gauge_names;
  std::vector<std::unique_ptr<HistogramDef>> hist_defs;
  std::unordered_map<std::string, MetricId> by_name;

  // Shard bookkeeping.
  std::vector<Shard*> live_shards;
  ShardData retired;
  std::vector<TraceEvent> retired_events;
  std::uint64_t retired_dropped = 0;
  std::uint32_t next_tid = 0;

  std::size_t trace_capacity = std::size_t{1} << 15;
  std::atomic<std::uint64_t> gauge_seq{0};

  // Cardinality cap (see telemetry.h): distinct names per kind, and the
  // number of registrations redirected to an overflow bin.
  std::size_t metric_capacity = 4096;
  std::uint64_t capped_registrations = 0;
};

/// Leaked singleton: thread-local shards fold themselves in at thread exit,
/// which may happen after static destruction would have run.
Registry& registry() {
  static Registry* instance = new Registry;
  return *instance;
}

void merge_data(const ShardData& from, ShardData& into) {
  if (into.counters.size() < from.counters.size())
    into.counters.resize(from.counters.size(), 0.0);
  for (std::size_t i = 0; i < from.counters.size(); ++i)
    into.counters[i] += from.counters[i];
  if (into.gauges.size() < from.gauges.size())
    into.gauges.resize(from.gauges.size());
  for (std::size_t i = 0; i < from.gauges.size(); ++i) {
    if (from.gauges[i].seq > into.gauges[i].seq) into.gauges[i] = from.gauges[i];
  }
  if (into.hists.size() < from.hists.size()) into.hists.resize(from.hists.size());
  for (std::size_t i = 0; i < from.hists.size(); ++i) {
    const HistCell& src = from.hists[i];
    if (src.count == 0) continue;
    HistCell& dst = into.hists[i];
    dst.def = src.def;
    if (dst.buckets.size() < src.buckets.size())
      dst.buckets.resize(src.buckets.size(), 0);
    for (std::size_t b = 0; b < src.buckets.size(); ++b)
      dst.buckets[b] += src.buckets[b];
    dst.count += src.count;
    dst.sum += src.sum;
    dst.min = std::min(dst.min, src.min);
    dst.max = std::max(dst.max, src.max);
  }
}

void zero_data(ShardData& data) {
  std::fill(data.counters.begin(), data.counters.end(), 0.0);
  for (auto& g : data.gauges) g = GaugeCell{};
  for (auto& h : data.hists) {
    std::fill(h.buckets.begin(), h.buckets.end(), 0);
    h.count = 0;
    h.sum = 0.0;
    h.min = std::numeric_limits<double>::infinity();
    h.max = -std::numeric_limits<double>::infinity();
  }
}

/// Events of a ring in chronological push order (oldest surviving first).
void append_ring_events(const TraceRing& ring, std::vector<TraceEvent>& out) {
  if (ring.pushed == 0) return;
  const std::size_t cap = ring.events.size();
  if (ring.pushed <= cap) {
    out.insert(out.end(), ring.events.begin(),
               ring.events.begin() + static_cast<std::ptrdiff_t>(ring.next));
  } else {
    out.insert(out.end(),
               ring.events.begin() + static_cast<std::ptrdiff_t>(ring.next),
               ring.events.end());
    out.insert(out.end(), ring.events.begin(),
               ring.events.begin() + static_cast<std::ptrdiff_t>(ring.next));
  }
}

std::uint64_t ring_dropped(const TraceRing& ring) {
  const std::size_t cap = ring.events.size();
  return ring.pushed > cap ? ring.pushed - cap : 0;
}

struct Shard {
  ShardData data;
  TraceRing ring;
  std::uint32_t tid = 0;

  Shard() {
    Registry& reg = registry();
    const std::lock_guard<std::mutex> lock(reg.mutex);
    tid = reg.next_tid++;
    reg.live_shards.push_back(this);
  }

  ~Shard() {
    Registry& reg = registry();
    const std::lock_guard<std::mutex> lock(reg.mutex);
    merge_data(data, reg.retired);
    append_ring_events(ring, reg.retired_events);
    reg.retired_dropped += ring_dropped(ring);
    std::erase(reg.live_shards, this);
  }
};

Shard& local_shard() {
  thread_local Shard shard;
  return shard;
}

/// Slow path of add/set/observe: the shard has not seen this metric index
/// yet. Growth takes the registry mutex (so it cannot race snapshot());
/// afterwards the hot path indexes the grown vector lock-free.
template <typename Vec>
void grow_cells(Vec& cells, std::size_t needed) {
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  if (cells.size() < needed) cells.resize(needed);
}

MetricId register_metric(std::uint32_t kind, std::string_view name,
                         std::span<const double> edges = {}) {
  // With metric recording compiled out (compiled_in() == false) the macro
  // sites vanish, and any direct API call degrades to a no-op on an empty
  // registry so harness code needs no #ifdefs.
  if (!compiled_in()) return kInvalidMetric;
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  std::string key(name);
  if (const auto it = reg.by_name.find(key); it != reg.by_name.end()) {
    return kind_of(it->second) == kind ? it->second : kInvalidMetric;
  }
  // Cardinality cap: a new name past the per-kind capacity registers the
  // kind's overflow bin instead (the bin itself may exceed the cap by
  // one). Keeps the registry — and every thread shard and snapshot —
  // bounded under per-edge-keyed naming at fleet scale.
  const char* overflow_name = nullptr;
  std::size_t kind_count = 0;
  switch (kind) {
    case kKindCounter:
      kind_count = reg.counter_names.size();
      overflow_name = "telemetry.capped.counter";
      break;
    case kKindGauge:
      kind_count = reg.gauge_names.size();
      overflow_name = "telemetry.capped.gauge";
      break;
    case kKindHistogram:
      kind_count = reg.hist_defs.size();
      overflow_name = "telemetry.capped.histogram";
      break;
    default:
      return kInvalidMetric;
  }
  if (kind_count >= reg.metric_capacity && key != overflow_name) {
    ++reg.capped_registrations;
    if (const auto it = reg.by_name.find(overflow_name);
        it != reg.by_name.end()) {
      return it->second;
    }
    key = overflow_name;  // first capped registration creates the bin
  }
  MetricId id = kInvalidMetric;
  switch (kind) {
    case kKindCounter:
      id = make_id(kind, static_cast<std::uint32_t>(reg.counter_names.size()));
      reg.counter_names.push_back(key);
      break;
    case kKindGauge:
      id = make_id(kind, static_cast<std::uint32_t>(reg.gauge_names.size()));
      reg.gauge_names.push_back(key);
      break;
    case kKindHistogram: {
      if (edges.empty()) return kInvalidMetric;
      for (std::size_t i = 1; i < edges.size(); ++i) {
        if (!(edges[i] > edges[i - 1])) return kInvalidMetric;
      }
      id = make_id(kind, static_cast<std::uint32_t>(reg.hist_defs.size()));
      auto def = std::make_unique<HistogramDef>();
      def->name = key;
      def->upper_edges.assign(edges.begin(), edges.end());
      reg.hist_defs.push_back(std::move(def));
      break;
    }
    default:
      return kInvalidMetric;
  }
  reg.by_name.emplace(std::move(key), id);
  return id;
}

void push_event(const TraceEvent& event) {
  Shard& shard = local_shard();
  TraceRing& ring = shard.ring;
  if (ring.events.empty()) {
    Registry& reg = registry();
    const std::lock_guard<std::mutex> lock(reg.mutex);
    if (!internal::g_tracing.load(std::memory_order_relaxed)) return;
    ring.events.resize(reg.trace_capacity);
    ring.next = 0;
    ring.pushed = 0;
  }
  TraceEvent& slot = ring.events[ring.next];
  slot = event;
  slot.tid = shard.tid;
  ring.next = (ring.next + 1) % ring.events.size();
  ++ring.pushed;
}

}  // namespace

namespace internal {
// Defined outside the registry so a disabled check never touches the
// (lazily constructed) singleton; they gate only whether telemetry
// *records*, never what instrumented code computes.
std::atomic<bool> g_tracing{false};
std::atomic<bool> g_detail{false};
}  // namespace internal

void set_metric_capacity(std::size_t max_names_per_kind) {
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  reg.metric_capacity = max_names_per_kind;
}

std::size_t metric_capacity() {
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  return reg.metric_capacity;
}

std::uint64_t capped_registrations() {
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  return reg.capped_registrations;
}

MetricId counter(std::string_view name) {
  return register_metric(kKindCounter, name);
}

MetricId gauge(std::string_view name) {
  return register_metric(kKindGauge, name);
}

MetricId histogram(std::string_view name,
                   std::span<const double> upper_edges) {
  return register_metric(kKindHistogram, name, upper_edges);
}

MetricId duration_histogram(std::string_view name) {
  // Log-spaced nanosecond edges, three per decade (1, 10^(1/3), 10^(2/3))
  // from 100 ns through 10 s; sub-100ns and >10s land in the end buckets.
  static const std::vector<double> edges = [] {
    std::vector<double> e;
    const double thirds[] = {1.0, 2.154434690031884, 4.641588833612779};
    for (int decade = 2; decade <= 9; ++decade) {
      for (double m : thirds) {
        double scale = 1.0;
        for (int d = 0; d < decade; ++d) scale *= 10.0;
        e.push_back(m * scale);
      }
    }
    e.push_back(1e10);
    return e;
  }();
  return register_metric(kKindHistogram, name, edges);
}

void add(MetricId id, double delta) {
  if (id == kInvalidMetric || kind_of(id) != kKindCounter) return;
  const std::size_t index = index_of(id);
  auto& cells = local_shard().data.counters;
  if (index >= cells.size()) grow_cells(cells, index + 1);
  cells[index] += delta;
}

void set(MetricId id, double value) {
  if (id == kInvalidMetric || kind_of(id) != kKindGauge) return;
  const std::size_t index = index_of(id);
  auto& cells = local_shard().data.gauges;
  if (index >= cells.size()) grow_cells(cells, index + 1);
  // Gauges are last-write-wins across threads; the global sequence number
  // orders writes at merge time. fetch_add is the one atomic in the
  // recording layer — gauges are set at most once per slot, never inside
  // per-edge or per-sample loops.
  const std::uint64_t seq =
      registry().gauge_seq.fetch_add(1, std::memory_order_relaxed) + 1;
  cells[index] = {value, seq};
}

void observe(MetricId id, double value) {
  if (id == kInvalidMetric || kind_of(id) != kKindHistogram) return;
  const std::size_t index = index_of(id);
  auto& cells = local_shard().data.hists;
  if (index >= cells.size()) grow_cells(cells, index + 1);
  HistCell& cell = cells[index];
  if (cell.def == nullptr) {
    Registry& reg = registry();
    const std::lock_guard<std::mutex> lock(reg.mutex);
    cell.def = reg.hist_defs[index].get();
    cell.buckets.assign(cell.def->upper_edges.size() + 1, 0);
  }
  const auto& edges = cell.def->upper_edges;
  const std::size_t bucket = static_cast<std::size_t>(
      std::lower_bound(edges.begin(), edges.end(), value) - edges.begin());
  ++cell.buckets[bucket];
  ++cell.count;
  cell.sum += value;
  cell.min = std::min(cell.min, value);
  cell.max = std::max(cell.max, value);
}

std::int64_t now_ns() noexcept {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

const char* intern(std::string_view text) {
  // Leaked node-based set: pointers stay valid for the process lifetime
  // (trace events and retired metrics may reference them at exit).
  static std::mutex* mutex = new std::mutex;
  static auto* pool = new std::unordered_map<std::string, std::nullptr_t>;
  const std::lock_guard<std::mutex> lock(*mutex);
  return pool->try_emplace(std::string(text)).first->first.c_str();
}

Snapshot snapshot() {
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  ShardData total = reg.retired;  // copy, then fold live shards in
  for (const Shard* shard : reg.live_shards) merge_data(shard->data, total);

  Snapshot snap;
  snap.counters.reserve(reg.counter_names.size());
  for (std::size_t i = 0; i < reg.counter_names.size(); ++i) {
    snap.counters.push_back(
        {reg.counter_names[i],
         i < total.counters.size() ? total.counters[i] : 0.0});
  }
  snap.gauges.reserve(reg.gauge_names.size());
  for (std::size_t i = 0; i < reg.gauge_names.size(); ++i) {
    GaugeValue value{reg.gauge_names[i], 0.0, false};
    if (i < total.gauges.size() && total.gauges[i].seq > 0) {
      value.value = total.gauges[i].value;
      value.ever_set = true;
    }
    snap.gauges.push_back(std::move(value));
  }
  snap.histograms.reserve(reg.hist_defs.size());
  for (std::size_t i = 0; i < reg.hist_defs.size(); ++i) {
    const HistogramDef& def = *reg.hist_defs[i];
    HistogramValue value;
    value.name = def.name;
    value.upper_edges = def.upper_edges;
    value.bucket_counts.assign(def.upper_edges.size() + 1, 0);
    if (i < total.hists.size() && total.hists[i].count > 0) {
      const HistCell& cell = total.hists[i];
      for (std::size_t b = 0; b < cell.buckets.size(); ++b)
        value.bucket_counts[b] = cell.buckets[b];
      value.count = cell.count;
      value.sum = cell.sum;
      value.min = cell.min;
      value.max = cell.max;
    }
    snap.histograms.push_back(std::move(value));
  }
  return snap;
}

void reset() {
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  zero_data(reg.retired);
  for (Shard* shard : reg.live_shards) zero_data(shard->data);
}

void enable_tracing(std::size_t capacity_per_thread) {
  if (!compiled_in()) return;
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  reg.trace_capacity = std::max<std::size_t>(capacity_per_thread, 16);
  reg.retired_events.clear();
  reg.retired_dropped = 0;
  for (Shard* shard : reg.live_shards) shard->ring = TraceRing{};
  internal::g_tracing.store(true, std::memory_order_relaxed);
}

void disable_tracing() {
  internal::g_tracing.store(false, std::memory_order_relaxed);
  if (!compiled_in()) return;
  // trace_dropped() counts "since tracing was enabled": drop counts folded
  // in by drains of the ending epoch must not leak into the next one.
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  reg.retired_dropped = 0;
}

std::uint64_t trace_dropped() {
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  std::uint64_t dropped = reg.retired_dropped;
  for (const Shard* shard : reg.live_shards) dropped += ring_dropped(shard->ring);
  return dropped;
}

std::vector<TraceEvent> drain_trace() {
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  std::vector<TraceEvent> events = std::move(reg.retired_events);
  reg.retired_events.clear();
  for (Shard* shard : reg.live_shards) {
    append_ring_events(shard->ring, events);
    reg.retired_dropped += ring_dropped(shard->ring);
    shard->ring = TraceRing{};
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.start_ns < b.start_ns;
                   });
  return events;
}

void trace_counter(const char* name, double value) {
  if (!tracing_enabled()) return;
  TraceEvent event;
  event.name = name;
  event.start_ns = now_ns();
  event.value = value;
  event.is_counter = true;
  push_event(event);
}

void set_detail(bool enabled) {
  if (!compiled_in()) return;
  internal::g_detail.store(enabled, std::memory_order_relaxed);
}

void ScopedSpan::finish() noexcept {
  const std::int64_t end = now_ns();
  observe(id_, static_cast<double>(end - start_));
  if (tracing_enabled()) {
    TraceEvent event;
    event.name = name_;
    event.start_ns = start_;
    event.dur_ns = end - start_;
    push_event(event);
  }
}

}  // namespace cea::obs
