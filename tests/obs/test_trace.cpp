#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "json_parser.h"
#include "obs/export.h"
#include "obs/telemetry.h"

namespace cea::obs {
namespace {

class Tracing : public ::testing::Test {
 protected:
  void SetUp() override {
    disable_tracing();
    reset();
  }
  void TearDown() override {
    disable_tracing();
    drain_trace();
    reset();
  }
};

TEST_F(Tracing, ChromeTraceParsesAndSpansNest) {
  if (!compiled_in()) GTEST_SKIP() << "telemetry compiled out";
  enable_tracing();
  {
    CEA_SPAN("test.outer");
    {
      CEA_SPAN("test.inner");
    }
    {
      CEA_SPAN("test.inner");
    }
  }
  const auto events = drain_trace();
  const std::string json = chrome_trace_json(events);
  const JsonValue root = parse_json(json);

  ASSERT_TRUE(root.has("traceEvents"));
  const auto& list = root.at("traceEvents").array;
  ASSERT_EQ(list.size(), 3u);

  // Spans close inner-first, and drain_trace sorts by start time, so the
  // outer span is first again in the export.
  const JsonValue* outer = nullptr;
  std::vector<const JsonValue*> inner;
  for (const auto& event : list) {
    EXPECT_EQ(event.at("ph").string, "X");
    EXPECT_EQ(event.at("pid").number, 1.0);
    if (event.at("name").string == "test.outer") outer = &event;
    if (event.at("name").string == "test.inner") inner.push_back(&event);
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_EQ(inner.size(), 2u);

  // Nesting: both inner spans lie within [outer.ts, outer.ts + outer.dur]
  // on the same thread track — exactly how Perfetto decides stacking.
  const double outer_begin = outer->at("ts").number;
  const double outer_end = outer_begin + outer->at("dur").number;
  double previous_end = outer_begin;
  for (const JsonValue* span : inner) {
    EXPECT_EQ(span->at("tid").number, outer->at("tid").number);
    const double begin = span->at("ts").number;
    const double end = begin + span->at("dur").number;
    EXPECT_GE(begin, outer_begin);
    EXPECT_LE(end, outer_end);
    // Siblings must not overlap (they were sequential scopes).
    EXPECT_GE(begin, previous_end);
    previous_end = end;
  }
}

TEST_F(Tracing, CounterEventsCarryValues) {
  if (!compiled_in()) GTEST_SKIP() << "telemetry compiled out";
  enable_tracing();
  trace_counter("test.lambda", 1.5);
  trace_counter("test.lambda", 2.5);
  const auto events = drain_trace();
  const JsonValue root = parse_json(chrome_trace_json(events));
  const auto& list = root.at("traceEvents").array;
  ASSERT_EQ(list.size(), 2u);
  EXPECT_EQ(list[0].at("ph").string, "C");
  EXPECT_DOUBLE_EQ(list[0].at("args").at("value").number, 1.5);
  EXPECT_DOUBLE_EQ(list[1].at("args").at("value").number, 2.5);
  EXPECT_LE(list[0].at("ts").number, list[1].at("ts").number);
}

TEST_F(Tracing, RingBufferBoundsEventsAndCountsDrops) {
  if (!compiled_in()) GTEST_SKIP() << "telemetry compiled out";
  enable_tracing(/*capacity_per_thread=*/16);
  for (int i = 0; i < 40; ++i) trace_counter("test.ring", i);
  EXPECT_EQ(trace_dropped(), 24u);
  const auto events = drain_trace();
  ASSERT_EQ(events.size(), 16u);
  // Oldest events were overwritten: the survivors are the last 16 pushes.
  EXPECT_DOUBLE_EQ(events.front().value, 24.0);
  EXPECT_DOUBLE_EQ(events.back().value, 39.0);
}

TEST_F(Tracing, DisabledTracingRecordsNothing) {
  trace_counter("test.off", 1.0);
  {
    CEA_SPAN("test.off.span");
  }
  EXPECT_TRUE(drain_trace().empty());
  EXPECT_EQ(trace_dropped(), 0u);
}

TEST_F(Tracing, ProfileJsonParsesWithMetaCountersAndHistograms) {
  Metadata meta = {{"git_sha", "abc123"},
                   {"isa", "avx2"},
                   {"threads", "4"},
                   {"wall_clock_sec", "3.25"}};
  if (compiled_in()) {
    add(counter("test.profile.counter"), 3.0);
    set(gauge("test.profile.gauge"), 0.25);
    const double edges[] = {1.0, 2.0};
    const MetricId h = histogram("test.profile.hist", edges);
    observe(h, 0.5);
    observe(h, 1.5);
    observe(h, 9.0);
  }
  const JsonValue root = parse_json(profile_json(snapshot(), meta));

  EXPECT_EQ(root.at("telemetry_compiled").boolean, compiled_in());
  EXPECT_EQ(root.at("meta").at("git_sha").string, "abc123");
  EXPECT_EQ(root.at("meta").at("isa").string, "avx2");
  // Numeric-looking metadata values come out as JSON numbers, not strings.
  EXPECT_EQ(root.at("meta").at("threads").type, JsonValue::Type::kNumber);
  EXPECT_EQ(root.at("meta").at("threads").number, 4.0);
  EXPECT_EQ(root.at("meta").at("wall_clock_sec").number, 3.25);
  if (!compiled_in()) {
    EXPECT_TRUE(root.at("counters").object.empty());
    return;
  }
  EXPECT_DOUBLE_EQ(root.at("counters").at("test.profile.counter").number, 3.0);
  EXPECT_DOUBLE_EQ(root.at("gauges").at("test.profile.gauge").number, 0.25);
  const auto& hist = root.at("histograms").at("test.profile.hist");
  EXPECT_DOUBLE_EQ(hist.at("count").number, 3.0);
  EXPECT_DOUBLE_EQ(hist.at("sum").number, 11.0);
  EXPECT_DOUBLE_EQ(hist.at("min").number, 0.5);
  EXPECT_DOUBLE_EQ(hist.at("max").number, 9.0);
  const auto& buckets = hist.at("buckets").array;
  ASSERT_EQ(buckets.size(), 3u);
  EXPECT_DOUBLE_EQ(buckets[0].at("le").number, 1.0);
  EXPECT_DOUBLE_EQ(buckets[0].at("count").number, 1.0);
  EXPECT_DOUBLE_EQ(buckets[1].at("count").number, 1.0);
  EXPECT_EQ(buckets[2].at("le").string, "inf");  // overflow bucket
  EXPECT_DOUBLE_EQ(buckets[2].at("count").number, 1.0);
}

TEST_F(Tracing, JsonEscapeHandlesSpecials) {
  EXPECT_EQ(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  const JsonValue parsed =
      parse_json("\"" + json_escape("quote\" back\\ tab\t") + "\"");
  EXPECT_EQ(parsed.string, "quote\" back\\ tab\t");
}

}  // namespace
}  // namespace cea::obs
