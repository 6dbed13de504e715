#include "obs/telemetry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <thread>
#include <vector>

#include "util/thread_pool.h"

namespace cea::obs {
namespace {

// Telemetry state is process-global; every test starts from zeroed values.
class Telemetry : public ::testing::Test {
 protected:
  void SetUp() override {
    disable_tracing();
    set_detail(false);
    reset();
  }
  void TearDown() override {
    disable_tracing();
    set_detail(false);
    reset();
  }
};

const CounterValue* find_counter(const Snapshot& snap, std::string_view name) {
  for (const auto& c : snap.counters)
    if (c.name == name) return &c;
  return nullptr;
}

const GaugeValue* find_gauge(const Snapshot& snap, std::string_view name) {
  for (const auto& g : snap.gauges)
    if (g.name == name) return &g;
  return nullptr;
}

const HistogramValue* find_histogram(const Snapshot& snap,
                                     std::string_view name) {
  for (const auto& h : snap.histograms)
    if (h.name == name) return &h;
  return nullptr;
}

TEST_F(Telemetry, CompiledInMatchesBuildConfiguration) {
#if defined(CEA_TELEMETRY)
  EXPECT_TRUE(compiled_in());
#else
  EXPECT_FALSE(compiled_in());
#endif
}

TEST_F(Telemetry, CounterAccumulates) {
  const MetricId id = counter("test.counter");
  if (!compiled_in()) {
    EXPECT_EQ(id, kInvalidMetric);
    return;
  }
  add(id);
  add(id, 2.5);
  const auto snap = snapshot();
  const auto* c = find_counter(snap, "test.counter");
  ASSERT_NE(c, nullptr);
  EXPECT_DOUBLE_EQ(c->value, 3.5);
}

TEST_F(Telemetry, ReRegistrationReturnsSameId) {
  if (!compiled_in()) return;
  EXPECT_EQ(counter("test.same"), counter("test.same"));
  // Same name, different kind: a programming error, reported as invalid
  // rather than silently corrupting the existing metric.
  EXPECT_EQ(gauge("test.same"), kInvalidMetric);
}

TEST_F(Telemetry, InvalidIdIsANoOp) {
  add(kInvalidMetric);
  set(kInvalidMetric, 1.0);
  observe(kInvalidMetric, 1.0);
  // Nothing to assert beyond "did not crash"; the snapshot must not have
  // grown a phantom metric.
  for (const auto& c : snapshot().counters) EXPECT_NE(c.name, "");
}

TEST_F(Telemetry, GaugeLastWriteWins) {
  if (!compiled_in()) return;
  const MetricId id = gauge("test.gauge");
  const auto before = snapshot();
  const auto* unset = find_gauge(before, "test.gauge");
  ASSERT_NE(unset, nullptr);
  EXPECT_FALSE(unset->ever_set);

  set(id, 1.0);
  set(id, -7.5);
  const auto snap = snapshot();
  const auto* g = find_gauge(snap, "test.gauge");
  ASSERT_NE(g, nullptr);
  EXPECT_TRUE(g->ever_set);
  EXPECT_DOUBLE_EQ(g->value, -7.5);
}

TEST_F(Telemetry, HistogramBucketEdges) {
  if (!compiled_in()) return;
  const std::array<double, 3> edges = {1.0, 10.0, 100.0};
  const MetricId id = histogram("test.hist", edges);

  // Bucket semantics: v <= edge lands at that edge's bucket; values past
  // the last edge land in the implicit overflow bucket.
  observe(id, 0.5);    // <= 1      -> bucket 0
  observe(id, 1.0);    // <= 1      -> bucket 0 (inclusive upper edge)
  observe(id, 1.001);  // <= 10     -> bucket 1
  observe(id, 10.0);   // <= 10     -> bucket 1
  observe(id, 99.0);   // <= 100    -> bucket 2
  observe(id, 1e6);    // overflow  -> bucket 3

  const auto snap = snapshot();
  const auto* h = find_histogram(snap, "test.hist");
  ASSERT_NE(h, nullptr);
  ASSERT_EQ(h->upper_edges.size(), 3u);
  ASSERT_EQ(h->bucket_counts.size(), 4u);
  EXPECT_EQ(h->bucket_counts[0], 2u);
  EXPECT_EQ(h->bucket_counts[1], 2u);
  EXPECT_EQ(h->bucket_counts[2], 1u);
  EXPECT_EQ(h->bucket_counts[3], 1u);
  EXPECT_EQ(h->count, 6u);
  EXPECT_DOUBLE_EQ(h->min, 0.5);
  EXPECT_DOUBLE_EQ(h->max, 1e6);
  EXPECT_DOUBLE_EQ(h->sum, 0.5 + 1.0 + 1.001 + 10.0 + 99.0 + 1e6);
}

TEST_F(Telemetry, HistogramRejectsNonIncreasingEdges) {
  if (!compiled_in()) return;
  const std::array<double, 3> bad = {1.0, 1.0, 2.0};
  EXPECT_EQ(histogram("test.bad_edges", bad), kInvalidMetric);
  EXPECT_EQ(histogram("test.empty_edges", std::span<const double>{}),
            kInvalidMetric);
}

TEST_F(Telemetry, PoolShardsAggregateToSerialTotals) {
  if (!compiled_in()) return;
  const MetricId hits = counter("test.pool.hits");
  const MetricId weight = counter("test.pool.weight");
  const std::array<double, 4> edges = {10.0, 100.0, 1000.0, 10000.0};
  const MetricId hist = histogram("test.pool.hist", edges);

  constexpr std::size_t kTasks = 512;
  util::ThreadPool pool(3);
  pool.parallel_for(kTasks, [&](std::size_t i) {
    add(hits);
    add(weight, static_cast<double>(i));
    observe(hist, static_cast<double>(i));
  });

  // The pool's job-completion handshake is the quiescent point: all worker
  // shard writes are visible here. The aggregate must equal what a single
  // thread recording the same values would produce.
  const auto snap = snapshot();
  const auto* h = find_counter(snap, "test.pool.hits");
  const auto* w = find_counter(snap, "test.pool.weight");
  const auto* hg = find_histogram(snap, "test.pool.hist");
  ASSERT_NE(h, nullptr);
  ASSERT_NE(w, nullptr);
  ASSERT_NE(hg, nullptr);
  EXPECT_DOUBLE_EQ(h->value, static_cast<double>(kTasks));
  EXPECT_DOUBLE_EQ(w->value,
                   static_cast<double>(kTasks * (kTasks - 1) / 2));
  EXPECT_EQ(hg->count, kTasks);
  EXPECT_DOUBLE_EQ(hg->sum, static_cast<double>(kTasks * (kTasks - 1) / 2));
  std::uint64_t bucket_total = 0;
  for (const auto c : hg->bucket_counts) bucket_total += c;
  EXPECT_EQ(bucket_total, kTasks);
  EXPECT_EQ(hg->bucket_counts[0], 11u);   // 0..10
  EXPECT_EQ(hg->bucket_counts[1], 90u);   // 11..100
  EXPECT_EQ(hg->bucket_counts[2], 411u);  // 101..511
  EXPECT_EQ(hg->bucket_counts[3], 0u);
}

TEST_F(Telemetry, RetiredThreadTotalsAreFolded) {
  if (!compiled_in()) return;
  const MetricId id = counter("test.retired");
  std::thread worker([&] { add(id, 5.0); });
  worker.join();
  add(id, 1.0);
  const auto snap = snapshot();
  const auto* c = find_counter(snap, "test.retired");
  ASSERT_NE(c, nullptr);
  EXPECT_DOUBLE_EQ(c->value, 6.0);
}

TEST_F(Telemetry, ResetZeroesValuesButKeepsIds) {
  if (!compiled_in()) return;
  const MetricId id = counter("test.reset");
  add(id, 4.0);
  reset();
  const Snapshot snap_zeroed = snapshot();
  const auto* zeroed = find_counter(snap_zeroed, "test.reset");
  ASSERT_NE(zeroed, nullptr);
  EXPECT_DOUBLE_EQ(zeroed->value, 0.0);
  // The cached id survives the reset (static locals are registered once).
  add(id, 2.0);
  const Snapshot snap_after = snapshot();
  const auto* after = find_counter(snap_after, "test.reset");
  ASSERT_NE(after, nullptr);
  EXPECT_DOUBLE_EQ(after->value, 2.0);
}

TEST_F(Telemetry, SpanRecordsIntoDurationHistogram) {
  if (!compiled_in()) return;
  {
    CEA_SPAN("test.span");
  }
  {
    CEA_SPAN("test.span");
  }
  const Snapshot snap = snapshot();
  const auto* h = find_histogram(snap, "test.span");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 2u);
  EXPECT_GE(h->min, 0.0);
}

TEST_F(Telemetry, MacrosVanishWhenCompiledOut) {
  // CEA_TELEM arguments must not be evaluated when telemetry is compiled
  // out; when compiled in they run exactly once per pass.
  int evaluations = 0;
  CEA_TELEM(++evaluations;);
  EXPECT_EQ(evaluations, compiled_in() ? 1 : 0);
}

TEST_F(Telemetry, InternIsStableAndDeduplicated) {
  const std::string dynamic = std::string("test.intern.") + "label";
  const char* a = intern(dynamic);
  const char* b = intern("test.intern.label");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a, b);
  EXPECT_STREQ(a, "test.intern.label");
}

TEST_F(Telemetry, DetailSwitchTogglesButDefaultsOff) {
  EXPECT_FALSE(detail_enabled());
  set_detail(true);
  if (compiled_in()) {
    EXPECT_TRUE(detail_enabled());
  }
  set_detail(false);
  EXPECT_FALSE(detail_enabled());
}

TEST_F(Telemetry, CardinalityCapRedirectsNewNamesToOverflowBin) {
  if (!compiled_in()) return;
  const std::size_t saved = metric_capacity();
  // Names registered before the cap tightens must keep resolving to their
  // own metric afterwards.
  const MetricId existing = counter("test.cap.existing");
  ASSERT_NE(existing, kInvalidMetric);

  set_metric_capacity(1);  // registry already exceeds this
  EXPECT_EQ(metric_capacity(), 1u);
  const std::uint64_t capped_before = capped_registrations();

  // Per-edge-keyed names — the fleet-scale pattern the cap exists for —
  // all collapse onto one overflow bin instead of growing the registry.
  const MetricId first = counter("test.cap.edge.0");
  ASSERT_NE(first, kInvalidMetric);
  for (int e = 1; e < 50; ++e) {
    const std::string name = "test.cap.edge." + std::to_string(e);
    EXPECT_EQ(counter(name), first);
  }
  EXPECT_GE(capped_registrations() - capped_before, 50u);
  EXPECT_EQ(counter("test.cap.existing"), existing);
  // The overflow bin itself is registered past the cap and accumulates.
  EXPECT_EQ(counter("telemetry.capped.counter"), first);
  add(first, 3.0);
  const Snapshot snap = snapshot();
  const auto* bin = find_counter(snap, "telemetry.capped.counter");
  ASSERT_NE(bin, nullptr);
  EXPECT_DOUBLE_EQ(bin->value, 3.0);

  // Gauges and histograms cap independently, into their own bins. One
  // filler registration per kind guarantees the kind is at the cap (the
  // counter kind got there via the suite's earlier registrations).
  (void)gauge("test.cap.gauge.filler");  // ensures the kind is at the cap
  const MetricId gauge_bin = gauge("test.cap.gauge.overflowing");
  EXPECT_EQ(gauge("telemetry.capped.gauge"), gauge_bin);
  (void)duration_histogram("test.cap.histo.filler");
  const MetricId histo_bin = duration_histogram("test.cap.histo.overflowing");
  EXPECT_EQ(duration_histogram("telemetry.capped.histogram"), histo_bin);

  set_metric_capacity(saved);
}

TEST_F(Telemetry, NowNsIsMonotonic) {
  const auto a = now_ns();
  const auto b = now_ns();
  EXPECT_LE(a, b);
}

}  // namespace
}  // namespace cea::obs
