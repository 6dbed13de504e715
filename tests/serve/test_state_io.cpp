#include "util/state_io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <clocale>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "../integration/golden_trace.h"
#include "data/trace_io.h"
#include "serve/controller.h"
#include "serve/daemon.h"
#include "serve/feed.h"
#include "util/csv.h"
#include "util/numio.h"
#include "util/rng.h"

namespace cea::util {
namespace {

// ---------------------------------------------------------------------------
// numio: locale-independent parsing / exact formatting
// ---------------------------------------------------------------------------

TEST(NumIo, ParsesDecimalForms) {
  double v = 0.0;
  EXPECT_TRUE(parse_double("7.4", v));
  EXPECT_DOUBLE_EQ(v, 7.4);
  EXPECT_TRUE(parse_double("-1e-3", v));
  EXPECT_DOUBLE_EQ(v, -1e-3);
  EXPECT_TRUE(parse_double("inf", v));
  EXPECT_TRUE(std::isinf(v));
  EXPECT_TRUE(parse_double("nan", v));
  EXPECT_TRUE(std::isnan(v));
}

TEST(NumIo, ParsesHexFloatForms) {
  double v = 0.0;
  ASSERT_TRUE(parse_double("0x1.8p+3", v));
  EXPECT_DOUBLE_EQ(v, 12.0);
  ASSERT_TRUE(parse_double("-0X1p-2", v));
  EXPECT_DOUBLE_EQ(v, -0.25);
}

TEST(NumIo, RejectsGarbage) {
  double v = 0.0;
  EXPECT_FALSE(parse_double("", v));
  EXPECT_FALSE(parse_double("abc", v));
  EXPECT_FALSE(parse_double("7.4x", v));   // trailing garbage
  EXPECT_FALSE(parse_double(" 7.4", v));   // leading whitespace
  EXPECT_FALSE(parse_double("7.4 ", v));   // trailing whitespace
  EXPECT_FALSE(parse_double("7,4", v));    // locale comma is never accepted
}

TEST(NumIo, ExactFormatRoundTripsBitForBit) {
  const std::vector<double> values = {
      0.0,
      -0.0,
      0.1,
      1.0 / 3.0,
      -12345.6789,
      1e308,
      std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::infinity(),
  };
  for (const double value : values) {
    double parsed = 0.0;
    const std::string text = format_double_exact(value);
    ASSERT_TRUE(parse_double(text, parsed)) << text;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(value),
              std::bit_cast<std::uint64_t>(parsed))
        << text;
  }
}

TEST(NumIo, IntegerParsersRejectSignAndOverflow) {
  std::uint64_t u = 0;
  EXPECT_TRUE(parse_u64("18446744073709551615", u));
  EXPECT_EQ(u, std::numeric_limits<std::uint64_t>::max());
  EXPECT_FALSE(parse_u64("18446744073709551616", u));  // overflow
  EXPECT_FALSE(parse_u64("-1", u));
  EXPECT_FALSE(parse_u64("12x", u));
  EXPECT_FALSE(parse_u64("", u));
  std::int64_t i = 0;
  EXPECT_TRUE(parse_i64("-42", i));
  EXPECT_EQ(i, -42);
  EXPECT_FALSE(parse_i64("9223372036854775808", i));  // overflow
}

// ---------------------------------------------------------------------------
// StateWriter / StateReader
// ---------------------------------------------------------------------------

TEST(StateIo, WriterReaderRoundTripAllTypes) {
  StateWriter writer;
  writer.write_u64("u", 42);
  writer.write_i64("i", -7);
  writer.write_bool("b", true);
  writer.write_double("d", 0.1);
  writer.write_string("s", "hello world");
  const std::vector<double> doubles = {1.5, -0.0, 1e-9};
  writer.write_doubles("ds", doubles);
  const std::vector<std::uint64_t> u64s = {0, 1, 99};
  writer.write_u64s("us", u64s);
  const std::vector<std::uint32_t> u32s = {0, 7, 0xFFFFFFFFu};
  writer.write_u32s("u32s", u32s);
  const std::vector<std::uint8_t> u8s = {0, 1, 255};
  writer.write_u8s("u8s", u8s);
  Rng rng(123);
  rng.normal();  // populate the Box-Muller cache so it must round-trip too
  writer.write_rng("r", rng);
  // Three generators, the middle one without a cached normal.
  std::vector<Rng> rngs = {Rng(1), Rng(2), Rng(3)};
  rngs[0].normal();
  rngs[2].normal();
  writer.write_rngs("rs", rngs);
  writer.write_rngs("none", std::vector<Rng>{});

  StateReader reader(writer.payload());
  EXPECT_EQ(reader.read_u64("u"), 42u);
  EXPECT_EQ(reader.read_i64("i"), -7);
  EXPECT_TRUE(reader.read_bool("b"));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(reader.read_double("d")),
            std::bit_cast<std::uint64_t>(0.1));
  EXPECT_EQ(reader.read_string("s"), "hello world");
  EXPECT_EQ(reader.read_doubles("ds", doubles.size()), doubles);
  EXPECT_EQ(reader.read_u64s("us", u64s.size()), u64s);
  EXPECT_EQ(reader.read_u32s("u32s", u32s.size()), u32s);
  EXPECT_EQ(reader.read_u8s("u8s", u8s.size()), u8s);
  Rng restored(0);
  reader.read_rng("r", restored);
  std::vector<Rng> restored_rngs(3, Rng(0));
  reader.read_rngs("rs", restored_rngs);
  reader.read_rngs("none", std::span<Rng>{});
  reader.expect_end();
  for (int k = 0; k < 32; ++k) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(rng.normal()),
              std::bit_cast<std::uint64_t>(restored.normal()));
    for (std::size_t e = 0; e < rngs.size(); ++e) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(rngs[e].normal()),
                std::bit_cast<std::uint64_t>(restored_rngs[e].normal()))
          << "generator " << e;
    }
  }
}

TEST(StateIo, ReaderThrowsOnKeyMismatch) {
  StateWriter writer;
  writer.write_u64("expected", 1);
  StateReader reader(writer.payload());
  EXPECT_THROW(reader.read_u64("other"), StateError);
}

TEST(StateIo, ReaderThrowsOnTypeConfusionAndPrematureEnd) {
  StateWriter writer;
  writer.write_string("s", "not a number");
  StateReader reader(writer.payload());
  EXPECT_THROW(reader.read_u64("s"), StateError);
  StateReader empty("");
  EXPECT_THROW(empty.read_u64("s"), StateError);
}

TEST(StateIo, ExpectEndThrowsOnTrailingData) {
  StateWriter writer;
  writer.write_u64("a", 1);
  writer.write_u64("b", 2);
  StateReader reader(writer.payload());
  reader.read_u64("a");
  EXPECT_FALSE(reader.at_end());
  EXPECT_THROW(reader.expect_end(), StateError);
}

TEST(StateIo, VectorCountMismatchThrows) {
  StateWriter writer;
  writer.write_doubles("v", std::vector<double>{1.0, 2.0});
  StateReader reader(writer.payload());
  EXPECT_THROW(reader.read_doubles("v", 3), StateError);
}

TEST(StateIo, RecordIsKeyLengthKeyTagAndRawLittleEndianValue) {
  StateWriter writer;
  writer.write_u64("k", 0x0102030405060708ULL);
  writer.write_doubles("v", std::vector<double>{1.0});
  const std::string u64_record(
      "\x01" "k" "\x01" "\x08\x07\x06\x05\x04\x03\x02\x01", 11);
  const std::string doubles_record(
      "\x01" "v" "\x06" "\x01\0\0\0\0\0\0\0" "\0\0\0\0\0\0\xf0\x3f", 19);
  EXPECT_EQ(writer.payload(), u64_record + doubles_record);
}

TEST(StateIo, WriterRejectsEmptyAndOverlongKeys) {
  StateWriter writer;
  EXPECT_THROW(writer.write_u64("", 1), StateError);
  EXPECT_THROW(writer.write_u64(std::string(256, 'k'), 1), StateError);
  EXPECT_TRUE(writer.payload().empty());
  writer.write_u64(std::string(255, 'k'), 1);
  StateReader reader(writer.payload());
  EXPECT_EQ(reader.read_u64(std::string(255, 'k')), 1u);
  reader.expect_end();
}

TEST(StateIo, TakeMovesThePayloadOut) {
  StateWriter writer(1024);
  writer.write_u64("a", 1);
  const std::string expected = writer.payload();
  EXPECT_EQ(writer.take(), expected);
  EXPECT_TRUE(writer.payload().empty());
}

TEST(StateIo, DumpStateRendersEveryRecordType) {
  StateWriter writer;
  writer.write_u64("u", 42);
  writer.write_i64("i", -7);
  writer.write_bool("b", true);
  writer.write_double("d", 0.5);
  writer.write_string("s", "a b\\");
  writer.write_doubles("ds", std::vector<double>{1.5, -0.0});
  writer.write_u64s("us", std::vector<std::uint64_t>{});
  writer.write_u32s("u32s", std::vector<std::uint32_t>{5, 4294967295u});
  writer.write_u8s("u8s", std::vector<std::uint8_t>{0, 1, 200});
  const Rng rng(3);
  writer.write_rng("r", rng);
  Rng cached(4);
  cached.normal();
  writer.write_rngs("rs", std::vector<Rng>{cached, rng});
  // One generator: its four words, the cached normal and the cache flag.
  auto text_of = [](const Rng& generator) {
    const Rng::State state = generator.state();
    std::string text;
    for (const std::uint64_t word : state.s) text += " " + format_u64(word);
    return text + " " + format_double_exact(state.cached_normal) +
           (state.has_cached_normal ? " 1" : " 0");
  };
  const std::string expected =
      "u u64 1 42\ni i64 1 -7\nb bool 1 1\nd f64 1 " +
      format_double_exact(0.5) + "\ns str 4 a\\x20b\\x5c\n" + "ds f64[] 2 " +
      format_double_exact(1.5) + " " + format_double_exact(-0.0) +
      "\nus u64[] 0\nu32s u32[] 2 5 4294967295\nu8s u8[] 3 0 1 200\n" +
      "r rng[] 1" + text_of(rng) + "\nrs rng[] 2" + text_of(cached) +
      text_of(rng) + "\n";
  EXPECT_EQ(dump_state(writer.payload()), expected);
  EXPECT_EQ(dump_state(""), "");
}

// ---------------------------------------------------------------------------
// Hostile payloads: every damaged input either throws StateError or
// restores state that serializes back to exactly the same bytes. Another
// exception type fails the test; a crash or UB trips the sanitizer build.
// ---------------------------------------------------------------------------

// A 2-tenant x 3-edge controller advanced 5 slots: a real payload holding
// the engine's, the SoA fleet's and the carbon trader's records.
std::vector<serve::TenantSpec> hostile_specs() {
  std::vector<serve::TenantSpec> specs;
  for (const char* name : {"alpha", "beta"}) {
    serve::TenantSpec spec;
    spec.name = name;
    spec.scenario = sim::golden::golden_config();
    spec.scenario.num_edges = 3;
    spec.scenario.horizon = 16;
    spec.scenario.workload.num_slots = 16;
    spec.scenario.seed = 17 + specs.size();
    spec.combo = sim::ours_combo();
    spec.run_seed = 7 + specs.size();
    specs.push_back(std::move(spec));
  }
  return specs;
}

std::string hostile_payload(
    const std::vector<serve::TenantSpec>& specs = hostile_specs()) {
  serve::ServeController controller(specs, sim::SimOptions{});
  serve::SyntheticFeed feed(controller.total_edges(), 9);
  serve::SlotInput input;
  while (controller.slot() < 5) {
    EXPECT_EQ(feed.poll(controller.slot(), input), serve::FeedStatus::kReady);
    controller.step(input.quote, input.workload);
  }
  return controller.checkpoint_payload();
}

/// Restore `payload`; a StateError is a pass, a success must round-trip.
void expect_rejected_or_exact(serve::ServeController& controller,
                              const std::string& payload,
                              const std::string& label) {
  try {
    controller.restore_payload(payload);
  } catch (const StateError&) {
    return;
  }
  EXPECT_EQ(controller.checkpoint_payload(), payload) << label;
}

TEST(StateIoHostile, PayloadTruncatedAtEveryOffset) {
  const std::string payload = hostile_payload();
  serve::ServeController controller(hostile_specs(), sim::SimOptions{});
  for (std::size_t size = 0; size < payload.size(); ++size) {
    EXPECT_THROW(controller.restore_payload(payload.substr(0, size)),
                 StateError)
        << "truncated to " << size << " of " << payload.size() << " bytes";
  }
  controller.restore_payload(payload);
  EXPECT_EQ(controller.checkpoint_payload(), payload);
}

TEST(StateIoHostile, ObserverStateTruncatedAtEveryOffset) {
  // With the daemon's observer attached the payload ends with the SLO
  // watchdog's state: a payload of its own inside one str record. Cut
  // anywhere and re-wrapped in a well-formed record, it throws (empty is
  // valid: it means no state); whole, it restores and saves back byte for
  // byte.
  serve::DaemonConfig config;  // observability on, no files
  config.slo.slot_deadline_ms = 1000000;
  std::string payload;
  {
    serve::ServeController writer(hostile_specs(), sim::SimOptions{});
    serve::SyntheticFeed feed(writer.total_edges(), 9);
    serve::ServeDaemon daemon(writer, feed, config);
    serve::SlotInput input;
    while (writer.slot() < 5) {
      EXPECT_EQ(feed.poll(writer.slot(), input), serve::FeedStatus::kReady);
      writer.step(input.quote, input.workload);
    }
    payload = writer.checkpoint_payload();
  }
  std::size_t record_at = 0;
  std::string state;
  StateReader reader(payload);
  while (!reader.at_end()) {
    const StateRecord record = reader.next_record();
    if (record.key != "serve.observer_state") continue;
    // The record starts at its key-length byte.
    record_at =
        static_cast<std::size_t>(record.key.data() - payload.data()) - 1;
    state = std::string(record.value);
  }
  ASSERT_GT(state.size(), 0u);
  serve::ServeController controller(hostile_specs(), sim::SimOptions{});
  serve::SyntheticFeed feed(controller.total_edges(), 9);
  serve::ServeDaemon daemon(controller, feed, config);
  for (std::size_t size = 1; size < state.size(); ++size) {
    StateWriter cut;
    cut.write_string("serve.observer_state", state.substr(0, size));
    EXPECT_THROW(
        controller.restore_payload(payload.substr(0, record_at) + cut.take()),
        StateError)
        << "state cut to " << size << " of " << state.size() << " bytes";
  }
  controller.restore_payload(payload);
  EXPECT_EQ(controller.checkpoint_payload(), payload);
}

TEST(StateIoHostile, EveryRecordHeaderByteFlipped) {
  // The second tenant runs UCB-LY: its per-edge policies write the u64[]
  // records an all-"Ours" payload no longer has.
  auto specs = hostile_specs();
  for (const auto& combo : sim::baseline_combos()) {
    if (combo.name == "UCB-LY") specs[1].combo = combo;
  }
  ASSERT_EQ(specs[1].combo.name, "UCB-LY");
  const std::string payload = hostile_payload(specs);
  // Header = key length, key, tag and (strings, vectors) the count: the
  // bytes from just before the key to the start of the value.
  std::vector<std::pair<std::size_t, std::size_t>> headers;
  std::set<StateTag> tags;
  StateReader reader(payload);
  while (!reader.at_end()) {
    const StateRecord record = reader.next_record();
    headers.emplace_back(
        static_cast<std::size_t>(record.key.data() - payload.data()) - 1,
        static_cast<std::size_t>(record.value.data() - payload.data()));
    tags.insert(record.tag);
  }
  for (const StateTag tag :
       {StateTag::kU64, StateTag::kBool, StateTag::kF64, StateTag::kString,
        StateTag::kF64s, StateTag::kU64s, StateTag::kU32s, StateTag::kU8s,
        StateTag::kRngs}) {
    EXPECT_TRUE(tags.count(tag)) << "payload lacks tag " << int(tag);
  }
  serve::ServeController controller(specs, sim::SimOptions{});
  for (const auto& [begin, end] : headers) {
    for (std::size_t i = begin; i < end; ++i) {
      for (const unsigned char mask : {0x01, 0x80, 0xFF}) {
        std::string damaged = payload;
        damaged[i] = static_cast<char>(damaged[i] ^ mask);
        expect_rejected_or_exact(controller, damaged,
                                 "byte " + std::to_string(i) + " ^ " +
                                     std::to_string(mask));
      }
    }
  }
}

// Overwrite the count of the payload's first record (a count-led one).
std::string with_count(std::string payload, std::uint64_t count) {
  const std::size_t at = 1 + static_cast<unsigned char>(payload[0]) + 1;
  std::memcpy(payload.data() + at, &count, sizeof count);
  return payload;
}

TEST(StateIoHostile, ForgedCountThrowsBeforeAllocating) {
  // 2^61 elements of 8 bytes wrap to 0 in 64 bits, so the reader must
  // bound the count by division, and before sizing a container: sizing
  // first would throw std::length_error or std::bad_alloc, not StateError.
  constexpr std::uint64_t kForged = std::uint64_t{1} << 61;
  // The same for the narrower elements: 2^62 u32s wrap to 0 bytes, and
  // 41^-1 mod 2^64 generators of 41 bytes to 1 byte (Newton's iteration
  // for the inverse; 41 * 41 = 1 mod 8 seeds it with 3 correct bits).
  constexpr std::uint64_t kForgedU32 = std::uint64_t{1} << 62;
  std::uint64_t forged_rngs = 41;
  for (int i = 0; i < 5; ++i) forged_rngs *= 2 - 41 * forged_rngs;
  ASSERT_EQ(forged_rngs * 41, 1u);
  StateWriter doubles;
  doubles.write_doubles("v", std::vector<double>{1.0, 2.0});
  StateWriter u64s;
  u64s.write_u64s("v", std::vector<std::uint64_t>{1, 2});
  StateWriter text;
  text.write_string("v", "ab");
  const std::string forged = with_count(doubles.payload(), kForged);
  EXPECT_THROW(StateReader(forged).read_doubles("v"), StateError);
  EXPECT_THROW(StateReader(forged).read_doubles("v", kForged), StateError);
  EXPECT_THROW(StateReader(with_count(u64s.payload(), kForged)).read_u64s("v"),
               StateError);
  EXPECT_THROW(
      StateReader(with_count(text.payload(), kForged)).read_string("v"),
      StateError);
  EXPECT_THROW(dump_state(forged), StateError);

  StateWriter u32s;
  u32s.write_u32s("v", std::vector<std::uint32_t>{1, 2});
  StateWriter u8s;
  u8s.write_u8s("v", std::vector<std::uint8_t>{1, 2});
  StateWriter rngs;
  rngs.write_rngs("v", std::vector<Rng>{Rng(1), Rng(2)});
  const std::string forged_u32s = with_count(u32s.payload(), kForgedU32);
  EXPECT_THROW(StateReader(forged_u32s).read_u32s("v", 2), StateError);
  EXPECT_THROW(StateReader(forged_u32s).read_u32s("v", kForgedU32),
               StateError);
  EXPECT_THROW(dump_state(forged_u32s), StateError);
  const std::string forged_u8s = with_count(u8s.payload(), kForged);
  EXPECT_THROW(StateReader(forged_u8s).read_u8s("v", 2), StateError);
  EXPECT_THROW(StateReader(forged_u8s).read_u8s("v", kForged), StateError);
  EXPECT_THROW(dump_state(forged_u8s), StateError);
  const std::string forged_rng_count = with_count(rngs.payload(), forged_rngs);
  std::vector<Rng> two(2, Rng(0));
  EXPECT_THROW(StateReader(forged_rng_count).read_rngs("v", two), StateError);
  EXPECT_THROW(StateReader(forged_rng_count).next_record(), StateError);
  EXPECT_THROW(dump_state(forged_rng_count), StateError);
}

// Overwrite element `index` of the first record named `key`, a T or an
// array of T, leaving every other byte alone.
template <class T>
std::string with_value(std::string payload, std::string_view key,
                       std::size_t index, T value) {
  StateReader reader(payload);
  while (!reader.at_end()) {
    const StateRecord record = reader.next_record();
    if (record.key != key) continue;
    EXPECT_EQ(record.value.size(), record.count * sizeof value) << key;
    const std::size_t at =
        static_cast<std::size_t>(record.value.data() - payload.data()) +
        index * sizeof value;
    std::memcpy(payload.data() + at, &value, sizeof value);
    return payload;
  }
  ADD_FAILURE() << "payload has no record " << key;
  return payload;
}

std::string with_u64(std::string payload, std::string_view key,
                     std::size_t index, std::uint64_t value) {
  return with_value(std::move(payload), key, index, value);
}

TEST(StateIoHostile, FleetCursorFieldsAreRangeCheckedBeforeNarrowing) {
  // The fleet's cursors and the engine's hosted models are stored in their
  // own widths, so the first value past each field's range is written as
  // it is: arm N, a flag of 2, hosted model N.
  const std::string payload = hostile_payload();
  serve::ServeController controller(hostile_specs(), sim::SimOptions{});
  const auto models =
      static_cast<std::uint32_t>(controller.tenant_engine(0).num_models());
  const std::vector<std::string> forged = {
      with_value<std::uint32_t>(payload, "btfleet.current_arm", 1, models),
      with_value<std::uint8_t>(payload, "btfleet.block_open", 2, 2),
      with_value<std::uint8_t>(payload, "btfleet.presolved", 0, 2),
      with_value<std::uint32_t>(payload, "engine.previous_model", 2, models),
  };
  for (std::size_t i = 0; i < forged.size(); ++i) {
    EXPECT_NE(forged[i], payload);
    EXPECT_THROW(controller.restore_payload(forged[i]), StateError)
        << "forgery " << i;
  }
  controller.restore_payload(payload);
  EXPECT_EQ(controller.checkpoint_payload(), payload);
}

TEST(StateIoHostile, ForgedUcbArmAndEpochCountThrow) {
  // UCB-LY tenants: per-edge UCB2 policies behind the fleet adapter. A
  // forged arm with plays left would be handed to the engine's per-model
  // tables on the next step; a forged epoch count would overflow the
  // integer epoch length select() computes from it.
  auto specs = hostile_specs();
  for (const auto& combo : sim::baseline_combos()) {
    if (combo.name != "UCB-LY") continue;
    for (auto& spec : specs) spec.combo = combo;
  }
  ASSERT_EQ(specs.front().combo.name, "UCB-LY");
  const std::string payload = hostile_payload(specs);
  serve::ServeController controller(specs, sim::SimOptions{});
  const std::string forged_arm = with_u64(
      with_u64(payload, "ucb2.current_arm", 0, 1000000),
      "ucb2.remaining_plays", 0, 5);
  EXPECT_THROW(controller.restore_payload(forged_arm), StateError);
  EXPECT_THROW(
      controller.restore_payload(with_u64(payload, "ucb2.epochs", 0, 1700)),
      StateError);
  controller.restore_payload(payload);
  EXPECT_EQ(controller.checkpoint_payload(), payload);
}

TEST(StateIoHostile, KeyLengthPastTheEndThrows) {
  StateWriter writer;
  writer.write_u64("key", 1);
  std::string payload = writer.payload();
  payload[0] = static_cast<char>(200);
  EXPECT_THROW(StateReader(payload).read_u64("key"), StateError);
  EXPECT_THROW(dump_state(payload), StateError);
  EXPECT_THROW(StateReader(std::string(1, '\x05')).next_record(), StateError);
}

TEST(StateIoHostile, UnknownTagAndOutOfRangeFlagsThrow) {
  StateWriter writer;
  writer.write_bool("b", true);
  std::string payload = writer.payload();
  payload[2] = 0x7F;  // the tag byte
  EXPECT_THROW(StateReader(payload).read_bool("b"), StateError);
  EXPECT_THROW(dump_state(payload), StateError);
  payload = writer.payload();
  payload[3] = 2;  // the bool byte
  EXPECT_THROW(StateReader(payload).read_bool("b"), StateError);
  EXPECT_THROW(dump_state(payload), StateError);

  StateWriter rng_writer;
  rng_writer.write_rng("r", Rng(1));
  payload = rng_writer.payload();
  payload.back() = 2;  // the Box-Muller cache flag
  Rng rng(0);
  EXPECT_THROW(StateReader(payload).read_rng("r", rng), StateError);
  EXPECT_THROW(dump_state(payload), StateError);
}

TEST(StateIoHostile, EveryRngArrayFlagByteIsChecked) {
  // An rng[] record's flag bytes sit every 41 bytes; the first, a middle
  // and the last element are each checked, by every reader.
  std::vector<Rng> rngs = {Rng(1), Rng(2), Rng(3), Rng(4), Rng(5)};
  rngs[2].normal();
  StateWriter writer;
  writer.write_rngs("rs", rngs);
  const std::string payload = writer.payload();
  const std::size_t values = payload.size() - rngs.size() * 41;
  for (const std::size_t element : {0, 2, 4}) {
    for (const char flag : {'\x02', '\xFF'}) {
      std::string damaged = payload;
      damaged[values + element * 41 + 40] = flag;
      std::vector<Rng> restored(rngs.size(), Rng(0));
      EXPECT_THROW(StateReader(damaged).read_rngs("rs", restored), StateError)
          << "element " << element;
      EXPECT_THROW(StateReader(damaged).next_record(), StateError);
      EXPECT_THROW(dump_state(damaged), StateError);
    }
  }
  std::vector<Rng> restored(rngs.size(), Rng(0));
  StateReader(payload).read_rngs("rs", restored);
  EXPECT_EQ(restored[2].state().has_cached_normal, true);
  EXPECT_EQ(restored[4].state().has_cached_normal, false);
}

// ---------------------------------------------------------------------------
// Checkpoint envelope
// ---------------------------------------------------------------------------

// The lane definition in state_io.h restated word by word: whole word i
// (assembled little-endian from its bytes) goes to lane i % 8, which is
// the same as word j of each 64-byte block to lane j and the leftover
// words to lanes 0, 1, ... in order.
std::uint64_t reference_checksum(std::string_view bytes) {
  constexpr std::uint64_t kBasis = 0xcbf29ce484222325ULL;
  constexpr std::uint64_t kPrime = 0x100000001b3ULL;
  auto mix = [](std::uint64_t hash, std::uint64_t word) {
    hash = (hash ^ word) * kPrime;
    return hash ^ (hash >> 32);
  };
  std::uint64_t lanes[8];
  std::fill(std::begin(lanes), std::end(lanes), kBasis);
  const std::size_t words = bytes.size() / 8;
  for (std::size_t i = 0; i < words; ++i) {
    std::uint64_t word = 0;
    for (std::size_t b = 8; b-- > 0;) {
      word = (word << 8) | static_cast<unsigned char>(bytes[8 * i + b]);
    }
    lanes[i % 8] = mix(lanes[i % 8], word);
  }
  std::uint64_t hash = kBasis;
  for (const std::uint64_t lane : lanes) hash = mix(hash, lane);
  for (std::size_t i = 8 * words; i < bytes.size(); ++i) {
    hash = (hash ^ static_cast<unsigned char>(bytes[i])) * kPrime;
  }
  return hash;
}

TEST(Checkpoint, ChecksumKnownAnswers) {
  EXPECT_EQ(checkpoint_checksum(""), 0x9f0fc129cfe74302ULL);
  EXPECT_EQ(checkpoint_checksum("a"), 0x2f089d0c45f78139ULL);
  EXPECT_EQ(checkpoint_checksum("abcdefgh"), 0x101898ef90e3f6e9ULL);
  EXPECT_EQ(checkpoint_checksum("abcdefghi"), 0x3dc25f13335bdb80ULL);
  std::string ramp;
  for (int repeat = 0; repeat < 4; ++repeat) {
    for (int byte = 0; byte < 256; ++byte) {
      ramp.push_back(static_cast<char>(byte));
    }
  }
  EXPECT_EQ(checkpoint_checksum(ramp), 0xd1698d41c6a7126aULL);
  // Every length 0-200 covers each mix of whole blocks, leftover words
  // (0-7 of them) and tail bytes (0-7) against the reference.
  for (std::size_t size = 0; size <= 200; ++size) {
    const std::string_view prefix(ramp.data() + 37, size);
    EXPECT_EQ(checkpoint_checksum(prefix), reference_checksum(prefix))
        << size << " bytes";
  }
  EXPECT_EQ(reference_checksum(ramp), 0xd1698d41c6a7126aULL);
  // The byte-serial FNV-1a of the journal is a different function.
  EXPECT_EQ(fnv1a64("abcdefgh"), 0x25da8c1836a8d66dULL);
}

TEST(Checkpoint, EverySingleBitFlipInThePayloadIsRejected) {
  StateWriter writer;
  writer.write_u64("engine.slot", 80);
  writer.write_doubles("engine.emissions",
                       std::vector<double>{0.25, 1.0 / 3.0, -7.5});
  writer.write_string("engine.algorithm", "Ours");
  ASSERT_NE(writer.payload().size() % 8, 0u);  // the tail path is covered
  const std::string file = encode_checkpoint(writer.payload());
  const std::size_t payload_at = file.find('\n') + 1;
  for (std::size_t i = payload_at; i < file.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = file;
      flipped[i] = static_cast<char>(flipped[i] ^ (1 << bit));
      EXPECT_THROW(decode_checkpoint(flipped), StateError)
          << "byte " << i << " bit " << bit;
    }
  }
}

TEST(Checkpoint, RejectsVersionOneTextCheckpoint) {
  // A well-formed v1 file: hex-float text lines under a byte-serial FNV-1a.
  const std::string v1 =
      "CEA-CHECKPOINT v1 39 165eeb22ca0baeec\n"
      "engine.slot 80\nengine.balance 0x1.8p+3\n";
  try {
    decode_checkpoint(v1);
    FAIL() << "a v1 checkpoint was accepted";
  } catch (const StateError& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported version v1"),
              std::string::npos)
        << e.what();
  }
}

TEST(Checkpoint, RejectsVersionTwoCheckpoint) {
  // A v2 envelope is intact but lacks the v3 engine records
  // (engine.horizon, engine.env_fingerprint): refused by version.
  std::string file = encode_checkpoint("k u64 1\n");
  const auto pos = file.find(" v" + std::to_string(kCheckpointVersion) + " ");
  ASSERT_NE(pos, std::string::npos);
  file.replace(pos, 3, " v2");
  try {
    decode_checkpoint(file);
    FAIL() << "a v2 checkpoint was accepted";
  } catch (const StateError& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported version v2"),
              std::string::npos)
        << e.what();
  }
}

TEST(Checkpoint, RejectsVersionThreeCheckpoint) {
  // A v3 envelope is intact, but its checksum is the one-lane v3 sum and
  // its fleet records are v3's (one rng record per edge, u64[] cursors):
  // refused by version.
  std::string file = encode_checkpoint("k u64 1\n");
  const auto pos = file.find(" v" + std::to_string(kCheckpointVersion) + " ");
  ASSERT_NE(pos, std::string::npos);
  file.replace(pos, 3, " v3");
  try {
    decode_checkpoint(file);
    FAIL() << "a v3 checkpoint was accepted";
  } catch (const StateError& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported version v3"),
              std::string::npos)
        << e.what();
  }
}

TEST(Checkpoint, RejectsVersionFourCheckpoint) {
  // A v4 envelope is intact and its checksum is the same 8-lane sum, but
  // its engine sections carry the per-slot series and selection counts
  // and no emission total or observer record: refused by version.
  std::string file = encode_checkpoint("k u64 1\n");
  const auto pos = file.find(" v" + std::to_string(kCheckpointVersion) + " ");
  ASSERT_NE(pos, std::string::npos);
  file.replace(pos, 3, " v4");
  try {
    decode_checkpoint(file);
    FAIL() << "a v4 checkpoint was accepted";
  } catch (const StateError& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported version v4"),
              std::string::npos)
        << e.what();
  }
}

TEST(Checkpoint, EncodeDecodeRoundTrip) {
  const std::string payload = "engine.slot u64 5\nengine.x d 0x1.8p+3\n";
  EXPECT_EQ(decode_checkpoint(encode_checkpoint(payload)), payload);
}

TEST(Checkpoint, DecodeRejectsBadMagic) {
  EXPECT_THROW(decode_checkpoint("NOT-A-CHECKPOINT v1 0 0\n"), StateError);
  EXPECT_THROW(decode_checkpoint(""), StateError);
}

TEST(Checkpoint, DecodeRejectsVersionMismatch) {
  std::string file = encode_checkpoint("k u64 1\n");
  const auto pos = file.find("v" + std::to_string(kCheckpointVersion));
  ASSERT_NE(pos, std::string::npos);
  file[pos + 1] = '9';
  EXPECT_THROW(decode_checkpoint(file), StateError);
}

TEST(Checkpoint, DecodeRejectsTruncation) {
  const std::string file = encode_checkpoint("key u64 123456789\n");
  EXPECT_THROW(decode_checkpoint(file.substr(0, file.size() - 4)), StateError);
}

TEST(Checkpoint, DecodeRejectsCorruptedPayloadByte) {
  std::string file = encode_checkpoint("key u64 123456789\n");
  file[file.size() - 3] ^= 0x01;  // flip a bit inside the payload
  EXPECT_THROW(decode_checkpoint(file), StateError);
}

class CheckpointFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "cea_ckpt_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name();
  }
  void TearDown() override {
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }
  /// `size` bytes, different for each `seed`.
  static std::string payload(std::size_t size, char seed) {
    std::string bytes(size, seed);
    for (std::size_t i = 0; i < size; i += 7) bytes[i] = static_cast<char>(i);
    return bytes;
  }
  static void put_file(const std::string& path, std::string_view bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  static bool exists(const std::string& path) {
    struct stat info {};
    return ::stat(path.c_str(), &info) == 0;
  }
  /// Whether the file system under test exchanges names (renameat2 with
  /// RENAME_EXCHANGE); the checkpoint writer renames where it does not.
  bool exchange_supported() const {
    const std::string a = path_ + ".probe_a", b = path_ + ".probe_b";
    put_file(a, "a");
    put_file(b, "b");
    const bool supported = ::renameat2(AT_FDCWD, a.c_str(), AT_FDCWD,
                                       b.c_str(), RENAME_EXCHANGE) == 0;
    std::remove(a.c_str());
    std::remove(b.c_str());
    return supported;
  }
  /// The three publishers, each with the reader of what it writes.
  struct Writer {
    const char* name;
    void (*write)(const std::string&, std::string_view);
    std::string (*read)(const std::string&);
  };
  static constexpr Writer kWriters[] = {
      {"write_checkpoint_file", write_checkpoint_file, read_checkpoint_file},
      {"write_file_durable", write_file_durable, read_file_bytes},
      {"write_file_atomic", write_file_atomic, read_file_bytes},
  };
  std::string path_;
};

TEST_F(CheckpointFileTest, WriteReadRoundTrip) {
  const std::string payload = "engine.slot u64 80\n";
  write_checkpoint_file(path_, payload);
  EXPECT_EQ(read_checkpoint_file(path_), payload);
  // A first write has no checkpoint to exchange names with: it renames,
  // and leaves no temp file behind.
  std::ifstream tmp(path_ + ".tmp");
  EXPECT_FALSE(tmp.good());
}

TEST_F(CheckpointFileTest, AlternatingSizesReadBackExactly) {
  // Each write reuses the pages of the checkpoint before the last one, so
  // a shorter checkpoint must not keep a longer one's tail.
  const std::pair<std::size_t, char> writes[] = {
      {300'000, 'a'}, {20, 'b'}, {100'000, 'c'}, {300'000, 'd'}};
  for (const auto& [size, seed] : writes) {
    const std::string bytes = payload(size, seed);
    write_checkpoint_file(path_, bytes);
    EXPECT_EQ(read_checkpoint_file(path_), bytes) << size << " bytes";
  }
}

TEST_F(CheckpointFileTest, TornTempFileLeavesThePreviousCheckpoint) {
  // A crash in the middle of an overwrite leaves a torn temp file, longer
  // than the next checkpoint. The names never switched, so the checkpoint
  // is the previous one, and the next write replaces every temp byte.
  const std::string first = payload(1'000, 'a');
  write_checkpoint_file(path_, first);
  put_file(path_ + ".tmp", std::string(50'000, '\xee'));
  EXPECT_EQ(read_checkpoint_file(path_), first);
  const std::string second = payload(2'000, 'b');
  write_checkpoint_file(path_, second);
  EXPECT_EQ(read_checkpoint_file(path_), second);
}

TEST_F(CheckpointFileTest, StaleTempWithoutCheckpointIsRenamed) {
  // A crash before the first name switch leaves a temp file and no
  // checkpoint. With nothing to exchange with, the write renames.
  put_file(path_ + ".tmp", std::string(50'000, '\xee'));
  const std::string bytes = payload(1'000, 'a');
  write_checkpoint_file(path_, bytes);
  EXPECT_EQ(read_checkpoint_file(path_), bytes);
  EXPECT_FALSE(exists(path_ + ".tmp"));
}

TEST_F(CheckpointFileTest, HardLinkedTempIsNeverOverwritten) {
  // Another name for the temp file's inode, such as an operator's `ln` of
  // an earlier checkpoint, keeps its bytes: the writer starts a new file.
  const std::string other = path_ + ".backup";
  for (const Writer& writer : kWriters) {
    SCOPED_TRACE(writer.name);
    writer.write(path_, payload(1'000, 'a'));
    const std::string held = encode_checkpoint(payload(3'000, 'h'));
    put_file(path_ + ".tmp", held);
    ASSERT_EQ(::link((path_ + ".tmp").c_str(), other.c_str()), 0);
    const std::string next = payload(2'000, 'b');
    writer.write(path_, next);
    EXPECT_EQ(writer.read(path_), next);
    EXPECT_EQ(read_file_bytes(other), held);
    std::remove(other.c_str());
  }
}

TEST_F(CheckpointFileTest, SymlinkedTempIsNeverWrittenThrough) {
  const std::string other = path_ + ".target";
  for (const Writer& writer : kWriters) {
    SCOPED_TRACE(writer.name);
    writer.write(path_, payload(1'000, 'a'));
    put_file(other, "not a checkpoint");
    std::remove((path_ + ".tmp").c_str());
    ASSERT_EQ(::symlink(other.c_str(), (path_ + ".tmp").c_str()), 0);
    const std::string next = payload(2'000, 'b');
    writer.write(path_, next);
    EXPECT_EQ(writer.read(path_), next);
    EXPECT_EQ(read_file_bytes(other), "not a checkpoint");
    std::remove(other.c_str());
  }
}

TEST_F(CheckpointFileTest, DirectoryAtCheckpointPathIsNeverMoved) {
  // Only a regular file is exchanged: a directory at the checkpoint path
  // refuses the write, as a rename over it does, and stays where it is.
  ASSERT_EQ(::mkdir(path_.c_str(), 0755), 0);
  EXPECT_THROW(write_checkpoint_file(path_, payload(1'000, 'a')),
               StateError);
  struct stat info {};
  EXPECT_TRUE(::stat(path_.c_str(), &info) == 0 && S_ISDIR(info.st_mode));
  EXPECT_FALSE(exists(path_ + ".tmp"));
  ::rmdir(path_.c_str());
}

TEST(StateIo, IoErrorsNameTheOperationAndThePathOnly) {
  // The metrics page and journal segments are published and read by the
  // same code as checkpoints, so an I/O error must not call them one.
  const std::string page = ::testing::TempDir() + "cea_no_such_dir/m.prom";
  for (const bool reading : {false, true}) {
    SCOPED_TRACE(reading ? "read_file_bytes" : "write_file_atomic");
    try {
      if (reading) {
        read_file_bytes(page);
      } else {
        write_file_atomic(page, "cea_up 1\n");
      }
      ADD_FAILURE() << "a missing directory was not reported";
    } catch (const StateError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("cannot open " + page), std::string::npos) << what;
      EXPECT_EQ(what.find("checkpoint"), std::string::npos) << what;
    }
  }
}

TEST_F(CheckpointFileTest, TempHoldsThePreviousCheckpointAfterAnExchange) {
  // The name switch is an exchange, not a rename that frees the replaced
  // file: after a second write the temp name holds the first checkpoint.
  if (!exchange_supported()) {
    GTEST_SKIP() << "the file system under " << ::testing::TempDir()
                 << " refuses RENAME_EXCHANGE; the writer renames there";
  }
  const std::string first = payload(1'000, 'a');
  write_checkpoint_file(path_, first);
  write_checkpoint_file(path_, payload(2'000, 'b'));
  EXPECT_EQ(decode_checkpoint(read_file_bytes(path_ + ".tmp")), first);
}

TEST_F(CheckpointFileTest, OverwriteReplacesAtomically) {
  write_checkpoint_file(path_, "a u64 1\n");
  write_checkpoint_file(path_, "a u64 2\n");
  EXPECT_EQ(read_checkpoint_file(path_), "a u64 2\n");
}

TEST_F(CheckpointFileTest, ReadRejectsMissingFile) {
  EXPECT_THROW(read_checkpoint_file(path_ + ".does-not-exist"), StateError);
}

TEST_F(CheckpointFileTest, ReadRejectsTruncatedFile) {
  write_checkpoint_file(path_, "engine.slot u64 123456\n");
  std::string bytes;
  {
    std::ifstream in(path_, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    bytes = buffer.str();
  }
  {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size() - 5));
  }
  EXPECT_THROW(read_checkpoint_file(path_), StateError);
}

// ---------------------------------------------------------------------------
// Locale regression: every serialization path must ignore LC_NUMERIC.
// Skipped when the host lacks the de_DE.UTF-8 locale.
// ---------------------------------------------------------------------------

class LocaleGuard {
 public:
  explicit LocaleGuard(const char* name) {
    const char* current = std::setlocale(LC_ALL, nullptr);
    saved_ = current != nullptr ? current : "C";
    active_ = std::setlocale(LC_ALL, name) != nullptr;
  }
  ~LocaleGuard() { std::setlocale(LC_ALL, saved_.c_str()); }
  bool active() const noexcept { return active_; }

 private:
  std::string saved_;
  bool active_ = false;
};

#define CEA_REQUIRE_DE_LOCALE(guard)                                   \
  LocaleGuard guard("de_DE.UTF-8");                                    \
  if (!guard.active()) {                                               \
    GTEST_SKIP() << "de_DE.UTF-8 locale not installed on this host";   \
  }

TEST(LocaleRegression, NumIoIgnoresCommaLocale) {
  CEA_REQUIRE_DE_LOCALE(guard);
  double v = 0.0;
  ASSERT_TRUE(parse_double("7.4", v));
  EXPECT_DOUBLE_EQ(v, 7.4);
  EXPECT_FALSE(parse_double("7,4", v));
  EXPECT_EQ(format_double(0.5, 3).find(','), std::string::npos);
  const std::string exact = format_double_exact(0.1);
  EXPECT_EQ(exact.find(','), std::string::npos);
  double parsed = 0.0;
  ASSERT_TRUE(parse_double(exact, parsed));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(parsed),
            std::bit_cast<std::uint64_t>(0.1));
}

TEST(LocaleRegression, StateIoRoundTripsUnderCommaLocale) {
  CEA_REQUIRE_DE_LOCALE(guard);
  StateWriter writer;
  writer.write_double("d", 1.0 / 3.0);
  writer.write_doubles("v", std::vector<double>{0.1, -2.5e-7});
  StateReader reader(writer.payload());
  EXPECT_EQ(std::bit_cast<std::uint64_t>(reader.read_double("d")),
            std::bit_cast<std::uint64_t>(1.0 / 3.0));
  const auto v = reader.read_doubles("v", 2);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(v[0]),
            std::bit_cast<std::uint64_t>(0.1));
}

TEST(LocaleRegression, CsvExactRowsUnderCommaLocale) {
  CEA_REQUIRE_DE_LOCALE(guard);
  const std::string path = ::testing::TempDir() + "cea_locale_csv.csv";
  {
    CsvWriter writer(path);
    writer.write_row_exact("row", {0.1, 7.4});
  }
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  in.close();
  std::remove(path.c_str());
  // Three cells exactly: a comma-decimal "0,1" would add a fourth.
  EXPECT_EQ(std::count(line.begin(), line.end(), ','), 2);
  const auto second_comma = line.find(',', line.find(',') + 1);
  double parsed = 0.0;
  ASSERT_TRUE(parse_double(
      line.substr(line.find(',') + 1, second_comma - line.find(',') - 1),
      parsed));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(parsed),
            std::bit_cast<std::uint64_t>(0.1));
}

TEST(LocaleRegression, TraceIoRoundTripsUnderCommaLocale) {
  CEA_REQUIRE_DE_LOCALE(guard);
  const std::string workload_path =
      ::testing::TempDir() + "cea_locale_workload.csv";
  const std::string prices_path =
      ::testing::TempDir() + "cea_locale_prices.csv";
  Rng rng(5);
  data::WorkloadConfig config;
  config.num_slots = 16;
  const auto workload = data::generate_workload(3, config, rng);
  const auto prices = data::generate_prices(16, {}, rng);
  data::save_workload_csv(workload, workload_path);
  data::save_prices_csv(prices, prices_path);
  const auto workload_back = data::load_workload_csv(workload_path);
  const auto prices_back = data::load_prices_csv(prices_path);
  std::remove(workload_path.c_str());
  std::remove(prices_path.c_str());
  EXPECT_EQ(workload_back, workload);
  ASSERT_EQ(prices_back.size(), prices.size());
  for (std::size_t t = 0; t < prices.size(); ++t) {
    EXPECT_NEAR(prices_back.buy[t], prices.buy[t], 1e-9);
    EXPECT_NEAR(prices_back.sell[t], prices.sell[t], 1e-9);
  }
}

// Strict count validation in the workload loader (satellite: trace-I/O
// parsing fixes) — rejections must name the offending line.

class StrictWorkloadTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "cea_strict_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".csv";
  }
  void TearDown() override { std::remove(path_.c_str()); }
  void write(const std::string& contents) {
    std::ofstream out(path_);
    out << contents;
  }
  std::string path_;
};

TEST_F(StrictWorkloadTest, RejectsNonIntegralCount) {
  write("10,3.7,30\n");
  EXPECT_THROW(data::load_workload_csv(path_), std::runtime_error);
}

TEST_F(StrictWorkloadTest, RejectsCountBeyondIntRange) {
  write("10,5000000000,30\n");
  EXPECT_THROW(data::load_workload_csv(path_), std::runtime_error);
}

TEST_F(StrictWorkloadTest, ErrorNamesTheLine) {
  write("10,20,30\n40,bad,60\n");
  try {
    data::load_workload_csv(path_);
    FAIL() << "expected a parse failure";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace cea::util
